/**
 * @file
 * Owned-or-bound columnar storage.
 *
 * The instruction database stores every field as a flat array of
 * trivially copyable elements. During ingest those arrays must grow;
 * after a zero-copy shard load they are views into a memory-mapped
 * buffer that the database does not own. Column<T> unifies the two:
 * it is a growable vector in owned mode and a (pointer, size) view
 * once bound. A bound column is never written: the shard loader hands
 * out const databases, so only ingest ever grows a column.
 *
 * The holder of bound columns is responsible for keeping the backing
 * buffer alive (InstructionDatabase retains a shared_ptr to the
 * mapping); a Column never frees bound memory.
 */

#ifndef UOPS_SUPPORT_COLUMN_H
#define UOPS_SUPPORT_COLUMN_H

#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

namespace uops {

template <typename T>
class Column
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns are raw-dumped by snapshots");

  public:
    Column() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    const T &operator[](size_t i) const { return data_[i]; }

    /** Grow an owned column (ingest only; never called once bound). */
    void
    push_back(const T &value)
    {
        owned_.push_back(value);
        refresh();
    }

    void
    append(const T *ptr, size_t n)
    {
        owned_.insert(owned_.end(), ptr, ptr + n);
        refresh();
    }

    /** Become a view of @p n elements at @p ptr (caller keeps the
     *  buffer alive; zero-copy shard load). */
    void
    bind(const T *ptr, size_t n)
    {
        owned_.clear();
        owned_.shrink_to_fit();
        data_ = ptr;
        size_ = n;
    }

    Column(const Column &) = delete;
    Column &operator=(const Column &) = delete;

  private:
    void
    refresh()
    {
        data_ = owned_.data();
        size_ = owned_.size();
    }

    const T *data_ = nullptr;
    size_t size_ = 0;
    std::vector<T> owned_;
};

/** Column<char> with string-pool ergonomics. */
class BytePool
{
  public:
    size_t size() const { return bytes_.size(); }
    const char *data() const { return bytes_.data(); }
    std::string_view view() const { return {data(), size()}; }

    std::string_view
    substr(size_t offset, size_t length) const
    {
        return view().substr(offset, length);
    }

    void
    append(std::string_view s)
    {
        bytes_.append(s.data(), s.size());
    }

    void bind(const char *ptr, size_t n) { bytes_.bind(ptr, n); }

  private:
    Column<char> bytes_;
};

} // namespace uops

#endif // UOPS_SUPPORT_COLUMN_H
