/**
 * @file
 * The shard: the one binary container format of the instruction
 * database.
 *
 * A shard holds exactly one microarchitecture's InstructionDatabase —
 * the unit of the sharded catalog store (catalog.h), which writes one
 * shard file per uarch plus a manifest. Layout (version 3,
 * little-endian, mmap-friendly, every array 8-byte aligned):
 *
 *   header   8-byte magic "UOPSDB\x1a\n", u32 version, u32 endian
 *            tag (0x0A0B0C0D as written by the producer — a reader on
 *            a byte-swapped host rejects the file instead of
 *            misreading it), u64 record count, u64 microarchitecture
 *            id
 *   arrays   the columnar arrays of InstructionDatabase, in a fixed
 *            order, each as: u64 element count, raw element bytes,
 *            zero padding to the next 8-byte boundary
 *
 * The per-row uarch column is still stored and must agree with the
 * header on load. Older containers are refused with a StoreError that
 * names their version: v1 (IEEE-double cycle columns) and v2 (the
 * multi-uarch monolith, whose data a re-characterize or an XML
 * re-ingest reproduces as shards).
 *
 * Because every array is a contiguous raw dump aligned to 8 bytes,
 * the one loader is zero-copy: it binds the columns straight into a
 * memory-mapped buffer (loadShardMapped), the database keeping the
 * mapping alive. The in-memory query indexes are *not* serialized —
 * they are deterministically rebuilt on load, so two databases with
 * equal shard bytes answer every query identically.
 *
 * Shards are bit-exact: save(load(save(db))) == save(db), and a shard
 * ingested from XML has the same bytes as one ingested in memory from
 * the same results (see tests/db_test.cpp).
 */

#ifndef UOPS_DB_SNAPSHOT_H
#define UOPS_DB_SNAPSHOT_H

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "db/database.h"
#include "support/mmap_file.h"
#include "support/status.h"

namespace uops::db {

/**
 * A container failed validation on load: bad magic, unsupported
 * version, foreign endianness, truncation, or inconsistent columns.
 * Derived from FatalError so generic handlers (and existing
 * EXPECT_THROW(..., FatalError) tests) still work, but catchable on
 * its own so the catalog's recovery path can treat "this file is
 * bad" as a per-generation condition instead of a process-fatal one.
 */
class StoreError : public FatalError
{
  public:
    explicit StoreError(const std::string &msg) : FatalError(msg) {}
};

/** Shard container version (the only one loaded). */
constexpr uint32_t kShardVersion = 3;

/** Serialize @p db as a version-3 shard of its uarch. */
void saveShard(const InstructionDatabase &db, std::ostream &os);

/** Serialized shard bytes (the content that shard hashes cover). */
std::string shardBytes(const InstructionDatabase &db);

/**
 * Load a shard, zero-copy: columns are bound directly into
 * @p mapping, which the returned database keeps alive; only the
 * rebuilt indexes allocate. @p expected guards against a
 * manifest/file mismatch. Throws StoreError on malformed input: bad
 * magic, any version but kShardVersion, foreign endianness, truncated
 * or inconsistent arrays, or records that disagree with the header
 * uarch.
 */
std::unique_ptr<const InstructionDatabase>
loadShardMapped(std::shared_ptr<const MappedFile> mapping,
                uarch::UArch expected);

/**
 * Refuse a retired container by its first bytes: throws the
 * StoreError the loader would throw when @p head starts with a
 * version-1 or version-2 header (naming the version and @p source);
 * returns for anything else.
 */
void refuseRetiredContainer(std::string_view head,
                            const std::string &source);

} // namespace uops::db

#endif // UOPS_DB_SNAPSHOT_H
