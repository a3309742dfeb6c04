/**
 * @file
 * Full-ISA differential check of the simulator's steady-state
 * fast-forward.
 *
 * A logically unrolled run (Pipeline::run(decoded, n)) may jump over
 * whole periods of a repeating state; a materialized kernel
 * (Pipeline::run(kernel)) is one body copy and never does. For every
 * 8th variant of the instruction database on all nine uarches, this
 * suite runs Algorithm 2's long run (n = 110) of the variant's
 * independent-sequence body both ways and requires identical counters
 * at both counter reads, identical final counters and identical cycle
 * counts; a latency-chain body per uarch rides along.
 *
 * Carries the ctest label `full_isa` with accuracy_test: a few seconds
 * in Release, minutes under sanitizers.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/characterize.h"
#include "core/codegen.h"
#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

/** Algorithm 2's long run: n copies between CPUID · RDTSC · CPUID. */
constexpr int kCopies = 110;

struct Tally
{
    int64_t copies = 0;
    int64_t skipped = 0;
};

void
expectSameRun(const uarch::TimingDb &tdb, const sim::Pipeline &pipeline,
              const isa::Kernel &body, const std::string &what,
              Tally &tally)
{
    const isa::Kernel wrapper = asm_("CPUID\nRDTSC\nCPUID");
    isa::Kernel flat(wrapper);
    for (int i = 0; i < kCopies; ++i)
        flat.insert(flat.end(), body.begin(), body.end());
    flat.insert(flat.end(), wrapper.begin(), wrapper.end());
    const std::vector<size_t> markers = {
        1, wrapper.size() + body.size() * kCopies + 1};

    sim::DecodedKernel decoded(tdb, wrapper, body, wrapper);
    sim::RunResult reference = pipeline.run(flat, markers);
    sim::RunResult logical = pipeline.run(decoded, kCopies, markers);

    EXPECT_EQ(reference.skipped_copies, 0) << what;
    EXPECT_EQ(reference.cycles, logical.cycles) << what;
    ASSERT_EQ(reference.snapshots.size(), logical.snapshots.size());
    std::vector<std::pair<const sim::PerfCounters *,
                          const sim::PerfCounters *>>
        pairs = {{&reference.final, &logical.final}};
    for (size_t i = 0; i < reference.snapshots.size(); ++i)
        pairs.emplace_back(&reference.snapshots[i], &logical.snapshots[i]);
    for (const auto &[a, b] : pairs) {
        EXPECT_EQ(a->cycles, b->cycles) << what;
        EXPECT_EQ(a->port_uops, b->port_uops) << what;
        EXPECT_EQ(a->uops_issued, b->uops_issued) << what;
        EXPECT_EQ(a->uops_eliminated, b->uops_eliminated) << what;
        EXPECT_EQ(a->instrs_retired, b->instrs_retired) << what;
    }
    tally.copies += kCopies;
    tally.skipped += logical.skipped_copies;
}

TEST(FastForward, MatchesMaterializedRunsOnEveryEighthVariant)
{
    const std::vector<const isa::InstrVariant *> variants =
        defaultDb().all();
    Tally tally;
    for (UArch arch : uarch::allUArches()) {
        const std::string uarch_name = uarch::uarchShortName(arch);
        const uarch::TimingDb &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        core::Characterizer characterizer(defaultDb(), arch);
        for (size_t i = 0; i < variants.size(); i += 8) {
            const isa::InstrVariant &variant = *variants[i];
            if (!characterizer.isMeasurable(variant))
                continue;
            core::RegPool pool(core::RegPool::Zone::Analyzed);
            expectSameRun(tdb, pipeline,
                          core::independentSequence(variant, pool, 8),
                          variant.name() + " on " + uarch_name, tally);
        }
        // Two IMUL chains closed by MOVSX, the shape of the latency
        // analyzer's GPR chains.
        expectSameRun(tdb, pipeline,
                      asm_("IMUL RAX, RBX\nMOVSX RBX, EAX\n"
                           "IMUL RCX, RDX\nMOVSX RDX, ECX"),
                      "IMUL/MOVSX chain on " + uarch_name, tally);
    }
    // The comparison means something only if runs did jump.
    EXPECT_GT(tally.skipped * 4, tally.copies)
        << tally.skipped << " of " << tally.copies
        << " body copies fast-forwarded";
    std::printf("%lld of %lld body copies fast-forwarded\n",
                static_cast<long long>(tally.skipped),
                static_cast<long long>(tally.copies));
}

} // namespace
} // namespace uops::test
