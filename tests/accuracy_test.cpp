/**
 * @file
 * Full-ISA accuracy of Algorithm 1 against the simulator's ground
 * truth.
 *
 * characterize_test checks a 20-variant subset on three uarches; this
 * suite runs the whole sweep — every measurable variant on all nine
 * uarches, through runCatalogSweep, exactly what `uopsq characterize`
 * publishes — and compares every published port usage with
 * PortUsage::ofTiming of the synthesized timing. The known misses are
 * named below, each with its reason; any other miss, and any failed
 * task, fails the test. The published shards' content hashes are
 * pinned too: they change only when the data model or a measured
 * value does.
 *
 * Carries the ctest label `full_isa`: a few seconds in Release, under
 * a minute in Debug, minutes under sanitizers (CI leaves it out of
 * the sanitizer job).
 */

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "db/catalog.h"
#include "support/hash.h"
#include "test_util.h"
#include "uarch/timing_synth.h"

namespace uops::test {
namespace {

using uarch::UArch;

/**
 * The (variant, uarch) pairs where Algorithm 1 misses, all for one
 * reason: blockRep copies of the p015 blocking instruction keep p015
 * busy for a shorter time than the instruction under analysis takes,
 * so some of its p0156 µops dispatch after the blocker drained and
 * are counted on p015 (inferred 2*p015+1*p0156 or 3*p015+3*p0156
 * where the truth is 3*p0156 or 6*p0156).
 */
const std::set<std::pair<std::string, std::string>> kKnownMisses = {
    // 64-bit divides on Haswell and Broadwell: the slow divider µop
    // (96 cycles) would need blockRep = 8 * 96, but blockRep is capped
    // at 96 (PortUsageOptions::block_rep_cap).
    {"DIV_R64i_R64i_R64", "HSW"},
    {"DIV_R64i_R64i_R64", "BDW"},
    {"DIV_R64i_R64i_M64", "HSW"},
    {"DIV_R64i_R64i_M64", "BDW"},
    {"IDIV_R64i_R64i_R64", "HSW"},
    {"IDIV_R64i_R64i_R64", "BDW"},
    // REP STOSB, 14 µops throttled by its four port-4 stores: its
    // maximum latency of 4 gives blockRep = 32, too short for it.
    {"REPSTOSB_R64i_R64i_R8i_M8", "HSW"},
    {"REPSTOSB_R64i_R64i_R8i_M8", "BDW"},
    {"REPSTOSB_R64i_R64i_R8i_M8", "SKL"},
    {"REPSTOSB_R64i_R64i_R8i_M8", "KBL"},
    {"REPSTOSB_R64i_R64i_R8i_M8", "CFL"},
};

/**
 * Content hash (FNV-1a 64 of the shard bytes) of every uarch's shard
 * of the full catalog, as `uopsq characterize --arches
 * NHM,WSM,SNB,IVB,HSW,BDW,SKL,KBL,CFL` publishes it (5,956 records).
 * A change of the shard layout or of any published value moves these;
 * fixing a known miss above re-pins them on purpose.
 */
const std::map<UArch, std::string> kShardHashes = {
    {UArch::Nehalem, "4bbd39b0a2af80d1"},
    {UArch::Westmere, "76d074968f16c9a7"},
    {UArch::SandyBridge, "8f08ba5e22d98cbd"},
    {UArch::IvyBridge, "b8b925b7eedc2528"},
    {UArch::Haswell, "4a4bc143cddfe9e2"},
    {UArch::Broadwell, "962e90ab679cafe2"},
    {UArch::Skylake, "a69ec5abf4344be2"},
    {UArch::KabyLake, "dfe635573e571848"},
    {UArch::CoffeeLake, "ea18447ca6a203ce"},
};

/** The full catalog and its sweep report, swept once for the whole
 *  suite. */
struct FullSweep
{
    core::CharacterizationReport report;
    std::shared_ptr<const db::DatabaseCatalog> catalog;
};

const FullSweep &
fullSweep()
{
    static const FullSweep sweep = [] {
        FullSweep out;
        out.catalog = db::runCatalogSweep(
            defaultDb(), uarch::allUArches(), core::BatchOptions{},
            nullptr, &out.report);
        return out;
    }();
    return sweep;
}

TEST(FullIsa, PortUsageMatchesGroundTruthOnEveryUarch)
{
    const core::CharacterizationReport &report = fullSweep().report;
    const db::DatabaseCatalog &catalog = *fullSweep().catalog;
    EXPECT_EQ(report.numFailed(), 0u);

    size_t compared = 0;
    size_t misses = 0;
    for (const db::ShardEntry &entry : catalog.shards()) {
        const std::string arch = uarch::uarchShortName(entry.arch);
        for (uint32_t row = 0; row < entry.db->numRecords(); ++row) {
            db::RecordView rec = entry.db->record(row);
            const isa::InstrVariant *variant =
                defaultDb().byName(std::string(rec.name()));
            ASSERT_NE(variant, nullptr) << rec.name();
            ++compared;
            uarch::PortUsage truth = uarch::PortUsage::ofTiming(
                uarch::synthesizeTiming(*variant, entry.arch).uops);
            if (rec.portUsage() == truth)
                continue;
            ++misses;
            EXPECT_TRUE(kKnownMisses.count({variant->name(), arch}))
                << arch << " " << variant->name() << ": inferred "
                << rec.portUsage().toString() << " vs truth "
                << truth.toString();
        }
    }
    EXPECT_EQ(compared, report.numSucceeded());
    EXPECT_GT(compared, 5000u);
    RecordProperty("compared", static_cast<int>(compared));
    RecordProperty("misses", static_cast<int>(misses));
}

TEST(FullIsa, ShardHashesArePinned)
{
    const db::DatabaseCatalog &catalog = *fullSweep().catalog;
    EXPECT_EQ(catalog.numRecords(), 5956u);
    ASSERT_EQ(catalog.shards().size(), kShardHashes.size());
    for (const db::ShardEntry &entry : catalog.shards()) {
        auto it = kShardHashes.find(entry.arch);
        ASSERT_NE(it, kShardHashes.end());
        EXPECT_EQ(hashHex(entry.hash), it->second)
            << uarch::uarchShortName(entry.arch);
    }
}

} // namespace
} // namespace uops::test
