/**
 * @file
 * Tests for the instruction-performance database (src/db): the
 * golden round-trip property (characterize → XML export → XML ingest
 * → shard save → shard load must be bit-identical to the streaming
 * sweep ingest), shard queries, shard validation (corrupt input,
 * retired container versions, a seeded mutation corpus fed straight
 * to the loader), identical answers under concurrent readers, and the
 * sharded catalog engine (golden shard round-trip, incremental-sweep
 * splicing bit-identical to a full sweep, routed queries,
 * corrupt-store rejection, and the errors of openCatalog).
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "isa/results_xml.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

/** Same diverse slice as batch_test: GPR ALU, zero idiom, SSE, AVX,
 *  divider, memory — small enough to characterize in milliseconds. */
bool
sliceFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR" || m == "PXOR" || m == "DIV" ||
           m == "MOVAPS" || m == "VPXOR" || m == "IMUL";
}

const std::vector<uarch::UArch> kArches = {uarch::UArch::Nehalem,
                                           uarch::UArch::Skylake};

/** One shared characterization report for the XML paths. */
const core::CharacterizationReport &
sliceReport()
{
    static const core::CharacterizationReport report = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = sliceFilter;
        return core::runBatchSweep(defaultDb(), kArches, options);
    }();
    return report;
}

/** The slice as a catalog built by the streaming sweep ingest. */
std::shared_ptr<const db::DatabaseCatalog>
sweepCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter = sliceFilter;
        options.keep_results = false;
        return db::runCatalogSweep(defaultDb(), kArches, options,
                                   nullptr);
    }();
    return catalog;
}

const db::InstructionDatabase &
shardOf(uarch::UArch arch)
{
    const db::InstructionDatabase *shard =
        sweepCatalog()->shard(arch);
    EXPECT_NE(shard, nullptr);
    return *shard;
}

/** Fresh, empty temp directory for one test. */
std::string
freshDir(const std::string &name)
{
    auto path = std::filesystem::temp_directory_path() /
                ("uops_db_test_" + name);
    std::filesystem::remove_all(path);
    return path.string();
}

void
spill(const std::string &path, std::string_view bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(os)) << path;
}

/** Run @p bytes through the one loader (via a scratch file, since
 *  loadShardMapped maps files). The file is unlinked once mapped, so
 *  the next call never rewrites bytes a live database still maps. */
std::unique_ptr<const db::InstructionDatabase>
loadBytes(std::string_view bytes, uarch::UArch expected)
{
    static const std::string path = freshDir("bytes") + ".shard";
    spill(path, bytes);
    auto mapping = mapFile(path);
    std::filesystem::remove(path);
    return db::loadShardMapped(std::move(mapping), expected);
}

/** Every field of two records, compared exactly. */
void
expectSameRecord(const db::RecordView &a, const db::RecordView &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.arch(), b.arch());
    EXPECT_EQ(a.mnemonic(), b.mnemonic());
    EXPECT_EQ(a.extension(), b.extension());
    EXPECT_TRUE(a.portUsage() == b.portUsage());
    EXPECT_EQ(a.uopCount(), b.uopCount());
    EXPECT_EQ(a.maxLatency(), b.maxLatency());
    // Bit-identical fixed-point values, not approximately equal.
    EXPECT_EQ(a.tpMeasured(), b.tpMeasured());
    EXPECT_EQ(a.tpWithBreakers(), b.tpWithBreakers());
    EXPECT_EQ(a.tpSlow(), b.tpSlow());
    EXPECT_EQ(a.tpFromPorts(), b.tpFromPorts());
    EXPECT_EQ(a.sameRegCycles(), b.sameRegCycles());
    EXPECT_EQ(a.storeRoundTrip(), b.storeRoundTrip());
    auto lats_a = a.latencies();
    auto lats_b = b.latencies();
    ASSERT_EQ(lats_a.size(), lats_b.size());
    for (size_t i = 0; i < lats_a.size(); ++i) {
        EXPECT_EQ(lats_a[i].src_op, lats_b[i].src_op);
        EXPECT_EQ(lats_a[i].dst_op, lats_b[i].dst_op);
        EXPECT_EQ(lats_a[i].cycles, lats_b[i].cycles);
        EXPECT_EQ(lats_a[i].upper_bound, lats_b[i].upper_bound);
        EXPECT_EQ(lats_a[i].slow_cycles, lats_b[i].slow_cycles);
    }
}

/** Shard bytes of every entry, in uarch order. */
std::vector<std::string>
allShardBytes(const std::vector<db::ShardEntry> &shards)
{
    std::vector<std::string> out;
    for (const db::ShardEntry &entry : shards)
        out.push_back(db::shardBytes(*entry.db));
    return out;
}

// ---------------------------------------------------------------------
// The golden round-trip (acceptance criterion).
// ---------------------------------------------------------------------

TEST(DbRoundTrip, XmlIngestIsBitIdenticalToSweepIngest)
{
    // characterize → XML export → XML ingest ...
    isa::ResultsDoc doc =
        isa::parseResultsXml(sliceReport().toXmlString());
    std::vector<db::ShardEntry> from_xml =
        db::ingestResults(doc, &defaultDb());

    // ... must match the streamed shards bit for bit.
    ASSERT_EQ(from_xml.size(), 2u);
    EXPECT_EQ(from_xml[0].arch, uarch::UArch::Nehalem);
    EXPECT_EQ(from_xml[1].arch, uarch::UArch::Skylake);
    EXPECT_EQ(allShardBytes(from_xml),
              allShardBytes(sweepCatalog()->shards()));
}

TEST(DbRoundTrip, ShardSaveLoadIsBitExact)
{
    for (const db::ShardEntry &entry : sweepCatalog()->shards()) {
        std::string bytes = db::shardBytes(*entry.db);
        auto loaded = loadBytes(bytes, entry.arch);
        // save(load(save(db))) == save(db)
        EXPECT_EQ(db::shardBytes(*loaded), bytes);
        EXPECT_EQ(loaded->arch(), entry.arch);
        EXPECT_EQ(loaded->numRecords(), entry.db->numRecords());
    }
}

TEST(DbRoundTrip, FullPipelineGolden)
{
    // The complete chain of the acceptance criterion in one line per
    // stage: characterize → XML → ingest → save → load, then compare
    // query answers (not just bytes) against the streamed shards.
    auto doc = isa::parseResultsXml(sliceReport().toXmlString());
    for (const db::ShardEntry &entry :
         db::ingestResults(doc, &defaultDb())) {
        auto loaded =
            loadBytes(db::shardBytes(*entry.db), entry.arch);
        const db::InstructionDatabase &direct = shardOf(entry.arch);
        ASSERT_EQ(loaded->numRecords(), direct.numRecords());
        for (uint32_t row = 0;
             row < static_cast<uint32_t>(direct.numRecords()); ++row)
            expectSameRecord(direct.record(row), loaded->record(row));
    }
}

TEST(DbRoundTrip, StreamingSweepIngestIsBitIdenticalToAllPaths)
{
    // Direct sweep -> shards: records stream into the per-uarch
    // databases while the sweep runs, with no XML tree and
    // (keep_results = false) no retained per-variant results. The
    // shards must be byte-identical at any thread count and to the
    // XML-materializing path — with integer Cycles columns that is
    // plain memcmp equality, no text canonicalization anywhere.
    core::BatchOptions options;
    options.num_threads = 4;
    options.characterizer.filter = sliceFilter;
    db::CatalogSweepIngestor ingestor;
    options.sink = &ingestor;
    options.keep_results = false;
    auto report = core::runBatchSweep(defaultDb(), kArches, options);

    EXPECT_EQ(ingestor.numIngested(), report.numSucceeded());
    // keep_results=false: outcome status is retained, results are not.
    for (const auto &ureport : report.uarches)
        for (const auto &outcome : ureport.outcomes) {
            EXPECT_TRUE(outcome.ok) << outcome.error;
            EXPECT_EQ(outcome.result.variant, nullptr);
        }
    // The cleared report stays safe to repackage: toSet() skips the
    // released slots instead of dereferencing their null variants.
    EXPECT_TRUE(report.uarches[0].toSet().instrs.empty());
    EXPECT_NE(report.toXmlString().find("<uopsBatch"),
              std::string::npos);

    std::vector<std::string> streamed =
        allShardBytes(ingestor.takeShards());
    EXPECT_EQ(streamed, allShardBytes(sweepCatalog()->shards()));
    EXPECT_EQ(streamed,
              allShardBytes(db::ingestResults(
                  isa::parseResultsXml(sliceReport().toXmlString()),
                  &defaultDb())));
}

TEST(DbRoundTrip, CyclesRoundingIsIdempotent)
{
    // The canonical representation absorbs re-rounding: converting a
    // Cycles back to double and rounding again is the identity.
    for (double x : {0.25, 0.33333, 1.0, 1.332, 3.99, 42.0, 88.5}) {
        Cycles canon = Cycles::round(x);
        EXPECT_EQ(canon, Cycles::round(canon.toDouble()));
    }
}

// ---------------------------------------------------------------------
// Results-XML parsing.
// ---------------------------------------------------------------------

TEST(ResultsXml, ParsesSingleUArchRoot)
{
    auto set = sliceReport().uarches[1].toSet();
    std::string xml = core::exportResultsXml(set)->toString();
    isa::ResultsDoc doc = isa::parseResultsXml(xml);
    ASSERT_EQ(doc.uarches.size(), 1u);
    EXPECT_EQ(doc.uarches[0].architecture, "SKL");
    EXPECT_EQ(doc.uarches[0].instrs.size(), set.instrs.size());
}

TEST(ResultsXml, CapturesErrorsFromBatchReports)
{
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = sliceFilter;
    options.on_variant_done = [](uarch::UArch,
                                 const isa::InstrVariant &v, bool) {
        if (v.mnemonic() == "PXOR")
            throw std::runtime_error("injected");
    };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);
    isa::ResultsDoc doc = isa::parseResultsXml(report.toXmlString());
    size_t errors = 0;
    for (const auto &ua : doc.uarches)
        errors += ua.errors.size();
    EXPECT_EQ(errors, report.numFailed());
    EXPECT_GT(errors, 0u);
}

TEST(ResultsXml, RejectsForeignRoots)
{
    EXPECT_THROW(isa::parseResultsXml("<wrong/>"), FatalError);
}

TEST(ResultsXml, PortUsageStringRoundTrips)
{
    // Canonical strings are sorted by port mask (PortUsage::add),
    // exactly as the XML export renders them.
    for (const char *text : {"-", "1*p0", "1*p23+3*p015",
                             "1*p23+1*p4+2*p0156"}) {
        uarch::PortUsage usage = uarch::PortUsage::fromString(text);
        EXPECT_EQ(usage.toString(), text);
    }
    EXPECT_THROW(uarch::PortUsage::fromString("nonsense"), FatalError);
    EXPECT_THROW(uarch::PortUsage::fromString("x*p0"), FatalError);
}

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

TEST(DbQuery, PointLookup)
{
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    EXPECT_EQ(skl.arch(), uarch::UArch::Skylake);
    auto row = skl.find("ADD_R64_R64");
    ASSERT_TRUE(row.has_value());
    db::RecordView rec = skl.record(*row);
    EXPECT_EQ(rec.name(), "ADD_R64_R64");
    EXPECT_EQ(rec.mnemonic(), "ADD");
    EXPECT_EQ(rec.arch(), uarch::UArch::Skylake);
    EXPECT_GT(rec.uopCount(), 0);
    EXPECT_GT(rec.tpMeasured().hundredths(), 0);

    EXPECT_FALSE(skl.find("NO_SUCH_VARIANT"));
    // Present on both uarches: the catalog routes to either shard.
    for (uarch::UArch arch : kArches) {
        auto view = sweepCatalog()->find(arch, "ADD_R64_R64");
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->arch(), arch);
    }
}

TEST(DbQuery, MnemonicAndExtensionIndexes)
{
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    db::Query query;
    query.mnemonic = "ADD";
    auto rows = skl.search(query);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows)
        EXPECT_EQ(skl.record(row).mnemonic(), "ADD");

    db::Query by_ext;
    by_ext.extension = "AVX";
    auto avx_rows = skl.search(by_ext);
    ASSERT_FALSE(avx_rows.empty());
    for (uint32_t row : avx_rows)
        EXPECT_EQ(skl.record(row).extension(), "AVX");

    // AVX doesn't exist on Nehalem.
    EXPECT_TRUE(shardOf(uarch::UArch::Nehalem).search(by_ext).empty());
}

TEST(DbQuery, ForeignUarchQueryAnswersNothing)
{
    // A shard holds one uarch: a query for another matches no row,
    // whatever else it asks; a query for its own uarch is the same
    // as one that names no uarch.
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    db::Query any;
    db::Query own;
    own.arch = uarch::UArch::Skylake;
    db::Query foreign;
    foreign.arch = uarch::UArch::Nehalem;
    EXPECT_EQ(skl.search(own), skl.search(any));
    EXPECT_EQ(skl.search(any).size(), skl.numRecords());
    EXPECT_TRUE(skl.search(foreign).empty());
    foreign.name = "ADD_R64_R64";
    EXPECT_TRUE(skl.search(foreign).empty());
}

TEST(DbQuery, PortMaskSupersetScan)
{
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.uses_ports = uarch::portMask({0, 5});
    auto rows = skl.search(query);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows) {
        uarch::PortMask mask = skl.record(row).portUnion();
        EXPECT_EQ(mask & query.uses_ports, query.uses_ports)
            << std::string(skl.record(row).name());
    }
    // Sanity: the filter excludes something (e.g. pure p23 loads).
    EXPECT_LT(rows.size(), skl.numRecords());
}

TEST(DbQuery, ThroughputAndLatencyRanges)
{
    db::Query query;
    query.tp_min = db::tpBoundMin(0.9);
    query.tp_max = db::tpBoundMax(30.0);
    auto records = sweepCatalog()->search(query);
    ASSERT_FALSE(records.empty());
    for (const db::RecordView &rec : records) {
        double tp = rec.tpMeasured().toDouble();
        EXPECT_GE(tp, 0.9);
        EXPECT_LE(tp, 30.0);
    }

    db::Query lat_query;
    lat_query.lat_min = 10;   // dividers
    auto lat_records = sweepCatalog()->search(lat_query);
    ASSERT_FALSE(lat_records.empty());
    for (const db::RecordView &rec : lat_records)
        EXPECT_GE(rec.maxLatency(), 10);
}

TEST(DbQuery, LimitAndCombinedPredicates)
{
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    db::Query query;
    query.arch = uarch::UArch::Skylake;
    query.limit = 3;
    EXPECT_EQ(skl.search(query).size(), 3u);

    db::Query combined;
    combined.mnemonic = "DIV";
    combined.arch = uarch::UArch::Skylake;
    combined.lat_min = 2;
    auto rows = skl.search(combined);
    ASSERT_FALSE(rows.empty());
    for (uint32_t row : rows) {
        EXPECT_EQ(skl.record(row).mnemonic(), "DIV");
        EXPECT_GE(skl.record(row).maxLatency(), 2);
    }
}

TEST(DbQuery, CrossUArchDiff)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    db::CatalogDiff diff =
        catalog.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    EXPECT_GT(diff.common, 0u);
    // AVX variants exist only on Skylake.
    EXPECT_FALSE(diff.only_b.empty());
    EXPECT_TRUE(diff.only_a.empty());
    EXPECT_TRUE(std::is_sorted(diff.only_b.begin(), diff.only_b.end()));
    for (const db::CatalogDiffEntry &entry : diff.changed) {
        EXPECT_TRUE(entry.tp_differs || entry.ports_differ ||
                    entry.latency_differs);
        EXPECT_EQ(entry.a.name(), entry.b.name());
        EXPECT_EQ(entry.a.arch(), uarch::UArch::Nehalem);
        EXPECT_EQ(entry.b.arch(), uarch::UArch::Skylake);
    }
    // Diff against self reports nothing.
    db::CatalogDiff self =
        catalog.diff(uarch::UArch::Skylake, uarch::UArch::Skylake);
    EXPECT_TRUE(self.changed.empty());
    EXPECT_TRUE(self.only_a.empty());
    EXPECT_TRUE(self.only_b.empty());
}

TEST(DbQuery, UArchEnumeration)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    auto arches = catalog.uarches();
    ASSERT_EQ(arches.size(), 2u);
    EXPECT_EQ(arches[0], uarch::UArch::Nehalem);
    EXPECT_EQ(arches[1], uarch::UArch::Skylake);
    EXPECT_EQ(catalog.numRecords(uarch::UArch::Nehalem) +
                  catalog.numRecords(uarch::UArch::Skylake),
              catalog.numRecords());
    for (const db::ShardEntry &entry : catalog.shards())
        EXPECT_EQ(entry.db->arch(), entry.arch);
}

TEST(DbQuery, ToCharacterizationSetResolvesVariants)
{
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);
    auto set = skl.toCharacterizationSet(defaultDb());
    EXPECT_EQ(set.arch, uarch::UArch::Skylake);
    EXPECT_EQ(set.instrs.size(), skl.numRecords());
    const auto *c = set.find("ADD_R64_R64");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->variant, defaultDb().byName("ADD_R64_R64"));
    EXPECT_FALSE(c->latency.pairs.empty());
    EXPECT_GT(c->ports.usage.totalUops(), 0);
}

// ---------------------------------------------------------------------
// Shard validation: the one loader takes untrusted bytes.
// ---------------------------------------------------------------------

/** Header fields of a shard, by byte offset. */
constexpr size_t kVersionAt = 8;
constexpr size_t kArchAt = 24;
constexpr size_t kHeaderBytes = 32;

std::string
withVersion(std::string bytes, uint32_t version)
{
    std::memcpy(bytes.data() + kVersionAt, &version, sizeof version);
    return bytes;
}

TEST(DbShard, RejectsCorruptInput)
{
    const uarch::UArch arch = uarch::UArch::Skylake;
    std::string bytes = db::shardBytes(shardOf(arch));

    EXPECT_THROW(loadBytes("", arch), db::StoreError);
    EXPECT_THROW(loadBytes(std::string_view(bytes).substr(
                               0, bytes.size() / 2),
                           arch),
                 db::StoreError);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW(loadBytes(bad_magic, arch), db::StoreError);

    EXPECT_THROW(loadBytes(withVersion(bytes, 0x7f), arch),
                 db::StoreError);

    // A shard for another uarch than the manifest names.
    EXPECT_THROW(loadBytes(bytes, uarch::UArch::Haswell),
                 db::StoreError);
    // Records that disagree with their header uarch.
    std::string foreign_header = bytes;
    foreign_header[kArchAt] =
        static_cast<char>(uarch::UArch::Haswell);
    EXPECT_THROW(loadBytes(foreign_header, uarch::UArch::Haswell),
                 db::StoreError);

    // A corrupt array-length prefix (the first array starts after the
    // 32-byte header) must be refused before any use: 16M declared
    // elements exceed the remaining file bytes but pass the
    // implausible-size cap, so this exercises the length bound.
    std::string length_bomb = bytes;
    length_bomb[kHeaderBytes] = char(0xff);
    length_bomb[kHeaderBytes + 1] = char(0xff);
    length_bomb[kHeaderBytes + 2] = char(0xff);
    for (size_t i = 3; i < 8; ++i)
        length_bomb[kHeaderBytes + i] = 0;
    EXPECT_THROW(loadBytes(length_bomb, arch), db::StoreError);
}

TEST(DbShard, RetiredVersionsAreRefusedByName)
{
    // v1 (floating-point cycle columns) and v2 (the multi-uarch
    // monolith) are refused with an error that names the version.
    const uarch::UArch arch = uarch::UArch::Skylake;
    std::string bytes = db::shardBytes(shardOf(arch));
    for (uint32_t version : {1u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        try {
            loadBytes(withVersion(bytes, version), arch);
            FAIL() << "expected StoreError";
        } catch (const db::StoreError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "version " + std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Byte offsets of every array-length field of a shard, walked with
 *  the column element widths in serialization order. */
std::vector<size_t>
lengthFieldOffsets(const std::string &bytes)
{
    static const size_t kWidths[] = {1, 4, 4, 1, 4, 4, 4, 2, 2, 2,
                                     1, 8, 8, 8, 8, 8, 8, 4, 4, 2,
                                     2, 2, 2, 2, 2, 1, 8, 8};
    std::vector<size_t> out;
    size_t at = kHeaderBytes;
    for (size_t width : kWidths) {
        uint64_t n = 0;
        std::memcpy(&n, bytes.data() + at, sizeof n);
        out.push_back(at);
        size_t payload = static_cast<size_t>(n) * width;
        at += sizeof n + payload + (8 - payload % 8) % 8;
    }
    EXPECT_EQ(at, bytes.size()) << "shard layout drifted";
    return out;
}

TEST(DbShard, MutatedShardsThrowOrLoadClean)
{
    // Seeded mutation corpus fed straight to the loader, bypassing the
    // manifest hash that guards it in a catalog: every mutant must
    // either be refused with a FatalError, or load into a database
    // whose every record reads and re-serializes cleanly (the
    // sanitizer job turns any out-of-bounds read into a failure).
    const uarch::UArch arch = uarch::UArch::Skylake;
    const std::string golden = db::shardBytes(shardOf(arch));
    const std::vector<size_t> length_fields = lengthFieldOffsets(golden);
    ASSERT_EQ(length_fields.size(), 28u);

    std::mt19937_64 rng(0x5AAD5EED);
    auto below = [&rng](uint64_t n) { return rng() % n; };
    size_t refused = 0, loaded = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        std::string mutant = golden;
        switch (trial % 3) {
        case 0:   // one to four byte flips
            for (uint64_t k = 0, n = 1 + below(4); k < n; ++k)
                mutant[below(mutant.size())] ^=
                    static_cast<char>(1 + below(255));
            break;
        case 1:   // truncation
            mutant.resize(below(mutant.size()));
            break;
        case 2: {  // array-length overwrite
            const size_t at = length_fields[below(length_fields.size())];
            uint64_t n = 0;
            std::memcpy(&n, mutant.data() + at, sizeof n);
            const uint64_t choices[] = {0,        n - 1,   n + 1,
                                        n * 2,    1ull << 32,
                                        ~0ull,    rng()};
            uint64_t value = choices[below(7)];
            std::memcpy(mutant.data() + at, &value, sizeof value);
            break;
        }
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::unique_ptr<const db::InstructionDatabase> db;
        try {
            db = loadBytes(mutant, arch);
        } catch (const FatalError &) {
            ++refused;
            continue;
        }
        ++loaded;
        for (uint32_t row = 0;
             row < static_cast<uint32_t>(db->numRecords()); ++row) {
            db::RecordView rec = db->record(row);
            EXPECT_EQ(db->find(rec.name()), std::optional<uint32_t>(row));
            (void)rec.mnemonic();
            (void)rec.extension();
            (void)rec.portUsage();
            (void)rec.latencies();
            (void)rec.tpWithBreakers();
            (void)rec.tpSlow();
            (void)rec.tpFromPorts();
            (void)rec.sameRegCycles();
            (void)rec.storeRoundTrip();
        }
        db::Query query;
        query.uses_ports = uarch::portMask({0});
        query.lat_max = 5;
        (void)db->search(query);
        std::string again = db::shardBytes(*db);
        EXPECT_EQ(db::shardBytes(*loadBytes(again, arch)), again);
    }
    // The corpus exercises both outcomes.
    EXPECT_GT(refused, 300u);
    EXPECT_GT(loaded, 30u);
}

TEST(DbShard, DuplicateRecordsAreRejected)
{
    // One record per (uarch, variant): a results document listing a
    // uarch twice cannot ingest.
    isa::ResultsDoc doc =
        isa::parseResultsXml(sliceReport().toXmlString());
    doc.uarches.push_back(doc.uarches.front());
    EXPECT_THROW(db::ingestResults(doc, &defaultDb()), FatalError);
}

// ---------------------------------------------------------------------
// Concurrent readers (snapshot-identical responses).
// ---------------------------------------------------------------------

TEST(DbConcurrency, ParallelReadersSeeIdenticalAnswers)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);

    // Baseline answers, computed single-threaded.
    db::Query by_ports;
    by_ports.uses_ports = uarch::portMask({0});
    const auto baseline_ports = skl.search(by_ports);
    db::Query by_mnemonic;
    by_mnemonic.mnemonic = "ADD";
    const auto baseline_add = catalog.search(by_mnemonic).size();
    const auto baseline_diff =
        catalog.diff(uarch::UArch::Nehalem, uarch::UArch::Skylake);
    const auto baseline_row = skl.find("ADD_R64_R64");
    ASSERT_TRUE(baseline_row.has_value());
    const Cycles baseline_tp = skl.record(*baseline_row).tpMeasured();

    std::atomic<size_t> mismatches{0};
    ThreadPool pool(8);
    pool.parallelFor(400, [&](size_t i, size_t) {
        switch (i % 4) {
          case 0: {
            if (skl.search(by_ports) != baseline_ports)
                ++mismatches;
            break;
          }
          case 1: {
            if (catalog.search(by_mnemonic).size() != baseline_add)
                ++mismatches;
            break;
          }
          case 2: {
            auto diff = catalog.diff(uarch::UArch::Nehalem,
                                     uarch::UArch::Skylake);
            if (diff.common != baseline_diff.common ||
                diff.changed.size() != baseline_diff.changed.size())
                ++mismatches;
            break;
          }
          case 3: {
            auto row = skl.find("ADD_R64_R64");
            if (!row || skl.record(*row).tpMeasured() != baseline_tp)
                ++mismatches;
            break;
          }
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------
// The sharded catalog engine.
// ---------------------------------------------------------------------

TEST(Catalog, GoldenShardRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    db::saveCatalogDir(*sweepCatalog(), dir);

    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->generation(), sweepCatalog()->generation());
    ASSERT_EQ(loaded->shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < loaded->shards().size(); ++i) {
        const db::ShardEntry &got = loaded->shards()[i];
        const db::ShardEntry &want = sweepCatalog()->shards()[i];
        EXPECT_EQ(got.arch, want.arch);
        EXPECT_EQ(got.db->arch(), want.arch);
        EXPECT_EQ(got.records, want.records);
        EXPECT_EQ(got.hash, want.hash);
        // Loaded shards re-serialize to the exact bytes saved.
        EXPECT_EQ(db::shardBytes(*got.db), db::shardBytes(*want.db));
    }

    // Query answers survive the round trip.
    auto view = loaded->find(uarch::UArch::Skylake, "ADD_R64_R64");
    ASSERT_TRUE(view.has_value());
    auto want_view =
        sweepCatalog()->find(uarch::UArch::Skylake, "ADD_R64_R64");
    expectSameRecord(*view, *want_view);
    db::Query query;
    query.uses_ports = uarch::portMask({0});
    EXPECT_EQ(loaded->search(query).size(),
              sweepCatalog()->search(query).size());
}

TEST(Catalog, IncrementalSpliceEqualsFullSweep)
{
    // Acceptance criterion: re-sweeping one uarch into an existing
    // catalog must reproduce the full fresh sweep bit for bit,
    // per-shard hash-checked.
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter = sliceFilter;

    auto base = db::runCatalogSweep(
        defaultDb(), {uarch::UArch::Nehalem}, options, nullptr);
    EXPECT_EQ(base->generation(), 1u);

    auto spliced = db::runCatalogSweep(defaultDb(),
                                       {uarch::UArch::Skylake},
                                       options, base.get());
    EXPECT_EQ(spliced->generation(), 2u);

    ASSERT_EQ(spliced->shards().size(),
              sweepCatalog()->shards().size());
    for (size_t i = 0; i < spliced->shards().size(); ++i) {
        const db::ShardEntry &got = spliced->shards()[i];
        const db::ShardEntry &want = sweepCatalog()->shards()[i];
        EXPECT_EQ(got.arch, want.arch);
        EXPECT_EQ(got.hash, want.hash)
            << uarch::uarchShortName(got.arch);
        EXPECT_EQ(db::shardBytes(*got.db), db::shardBytes(*want.db));
    }
    // The untouched shard is shared with the base, not copied.
    EXPECT_EQ(spliced->shard(uarch::UArch::Nehalem),
              base->shard(uarch::UArch::Nehalem));

    // On disk: saving base then splicing writes only the fresh
    // shard; the directory ends up with the same shard files as a
    // full-sweep save.
    const std::string dir_full = freshDir("splice_full");
    const std::string dir_incr = freshDir("splice_incr");
    db::saveCatalogDir(*sweepCatalog(), dir_full);
    db::saveCatalogDir(*base, dir_incr);
    db::saveCatalogDir(*spliced, dir_incr);
    for (const db::ShardEntry &entry : sweepCatalog()->shards()) {
        std::ifstream a(dir_full + "/" + entry.file,
                        std::ios::binary);
        std::ifstream b(dir_incr + "/" + entry.file,
                        std::ios::binary);
        ASSERT_TRUE(a && b) << entry.file;
        std::stringstream bytes_a, bytes_b;
        bytes_a << a.rdbuf();
        bytes_b << b.rdbuf();
        EXPECT_EQ(bytes_a.str(), bytes_b.str()) << entry.file;
        EXPECT_EQ(fnv1a64(bytes_a.str()), entry.hash);
    }
    EXPECT_EQ(db::loadCatalogDir(dir_incr)->generation(), 2u);
}

TEST(Catalog, RoutedQueriesMatchShards)
{
    const db::DatabaseCatalog &catalog = *sweepCatalog();
    const db::InstructionDatabase &nhm = shardOf(uarch::UArch::Nehalem);
    const db::InstructionDatabase &skl = shardOf(uarch::UArch::Skylake);

    // An unrouted search concatenates the shards' answers in uarch
    // order.
    db::Query query;
    query.uses_ports = uarch::portMask({0, 5});
    std::vector<db::RecordView> want;
    for (const db::InstructionDatabase *shard : {&nhm, &skl})
        for (uint32_t row : shard->search(query))
            want.push_back(shard->record(row));
    auto got = catalog.search(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        expectSameRecord(got[i], want[i]);

    // A routed search is the one shard's answer.
    query.arch = uarch::UArch::Skylake;
    auto routed = catalog.search(query);
    auto rows = skl.search(query);
    ASSERT_EQ(routed.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(routed[i].row(), rows[i]);

    // Limits span shards.
    db::Query limited;
    limited.limit = nhm.numRecords() + 2;
    auto spanning = catalog.search(limited);
    ASSERT_EQ(spanning.size(), limited.limit);
    EXPECT_EQ(spanning.front().arch(), uarch::UArch::Nehalem);
    EXPECT_EQ(spanning.back().arch(), uarch::UArch::Skylake);

    // An absent uarch routes nowhere.
    EXPECT_FALSE(catalog.find(uarch::UArch::Haswell, "ADD_R64_R64"));
    query.arch = uarch::UArch::Haswell;
    EXPECT_TRUE(catalog.search(query).empty());
}

TEST(Catalog, CorruptStoreIsRefused)
{
    const std::string dir = freshDir("corrupt");
    db::saveCatalogDir(*sweepCatalog(), dir);
    EXPECT_EQ(db::readCatalogGeneration(dir),
              std::optional<uint64_t>(1));
    EXPECT_EQ(db::readCatalogGeneration(dir + "_missing"),
              std::nullopt);

    // Flip one byte of a shard: the manifest hash check refuses it.
    const std::string victim =
        dir + "/" + sweepCatalog()->shards().back().file;
    {
        std::fstream file(victim, std::ios::binary | std::ios::in |
                                      std::ios::out);
        ASSERT_TRUE(file);
        file.seekg(100);
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        file.seekp(100);
        file.write(&byte, 1);
    }
    EXPECT_THROW(db::loadCatalogDir(dir), FatalError);

    // A torn manifest is rejected too, even with intact shards.
    const std::string torn = freshDir("corrupt_torn");
    db::saveCatalogDir(*sweepCatalog(), torn);
    spill(torn + "/" + db::manifestFileName(1), "UOPSMF");
    EXPECT_THROW(db::loadCatalogDir(torn), db::CatalogError);
}

TEST(Catalog, OpenCatalogNamesMissingPaths)
{
    // A missing path or a non-directory is a CatalogError naming the
    // path, not a misleading "cannot open" from a file loader.
    const std::string missing = freshDir("no_such_dir");
    try {
        db::openCatalog(missing);
        FAIL() << "expected CatalogError";
    } catch (const db::CatalogError &e) {
        EXPECT_NE(std::string(e.what()).find(missing),
                  std::string::npos)
            << e.what();
    }

    const std::string plain = freshDir("plain") + ".txt";
    spill(plain, "not a catalog");
    try {
        db::openCatalog(plain);
        FAIL() << "expected CatalogError";
    } catch (const db::CatalogError &e) {
        EXPECT_NE(std::string(e.what()).find(plain), std::string::npos)
            << e.what();
    }

    // A bare v3 shard is a file, not a catalog either.
    const std::string bare = freshDir("bare") + ".shard";
    spill(bare, db::shardBytes(shardOf(uarch::UArch::Skylake)));
    EXPECT_THROW(db::openCatalog(bare), db::CatalogError);
}

TEST(Catalog, OpenCatalogNamesRetiredContainerVersions)
{
    const std::string bytes =
        db::shardBytes(shardOf(uarch::UArch::Skylake));
    for (uint32_t version : {1u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        const std::string path = freshDir("retired_v" +
                                          std::to_string(version)) +
                                 ".snap";
        spill(path, withVersion(bytes, version));
        try {
            db::openCatalog(path);
            FAIL() << "expected StoreError";
        } catch (const db::StoreError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("version " + std::to_string(version)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(path), std::string::npos) << what;
        }
    }
}

TEST(Catalog, EmptyShardRoundTrips)
{
    // A uarch swept with zero successful variants still publishes an
    // (empty) shard — the mechanism for deliberately erasing one.
    core::BatchOptions options;
    options.characterizer.filter = [](const isa::InstrVariant &) {
        return false;
    };
    auto catalog = db::runCatalogSweep(
        defaultDb(), {uarch::UArch::Nehalem}, options, nullptr);
    ASSERT_EQ(catalog->shards().size(), 1u);
    EXPECT_EQ(catalog->numRecords(), 0u);
    EXPECT_TRUE(catalog->uarches().empty());

    const std::string dir = freshDir("empty");
    db::saveCatalogDir(*catalog, dir);
    auto loaded = db::loadCatalogDir(dir);
    EXPECT_EQ(loaded->numRecords(uarch::UArch::Nehalem), 0u);
    EXPECT_EQ(loaded->shards().front().hash,
              catalog->shards().front().hash);
}

} // namespace
} // namespace uops::test
