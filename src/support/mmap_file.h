/**
 * @file
 * Read-only memory-mapped file wrapper.
 *
 * The shard loader (the only loader) points database columns straight
 * into a mapping of the shard file instead of copying any array.
 * MappedFile owns the mapping (RAII over open+mmap) and
 * is handed around as a shared_ptr so every database loaded from it
 * keeps the bytes alive for as long as any column still references
 * them — the ownership rule behind hot-swap serving: an old
 * generation's shards stay mapped until the last in-flight request
 * drops its catalog handle.
 */

#ifndef UOPS_SUPPORT_MMAP_FILE_H
#define UOPS_SUPPORT_MMAP_FILE_H

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace uops {

class MappedFile
{
  public:
    /** Map @p path read-only (throws FatalError when the file cannot
     *  be opened or mapped; an empty file maps to size() == 0). */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const char *data() const { return data_; }
    size_t size() const { return size_; }
    std::string_view view() const { return {data_, size_}; }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    const char *data_ = nullptr;
    size_t size_ = 0;
};

/** Convenience: map a file for shared ownership by loaders. */
std::shared_ptr<const MappedFile> mapFile(const std::string &path);

} // namespace uops

#endif // UOPS_SUPPORT_MMAP_FILE_H
