/**
 * @file
 * Golden determinism suite for the measurement hot path.
 *
 * The PR-2 optimizations (decoded-µop templates with logical
 * unrolling, the reusable pipeline scratch arena, idle-cycle clock
 * skipping, and the measurement memo-cache) are pure performance
 * work: every one of them must be invisible in the results. This
 * suite pins that contract down:
 *
 *  - a MeasurementCache hit is bit-identical to the cache miss that
 *    populated it, and to an uncached harness;
 *  - the memo's program key merges exactly the kernels that run the
 *    same µop program on the same machine model (ADD vs SUB, Skylake
 *    vs Kaby Lake vs Coffee Lake) and keeps apart every difference the
 *    core can observe (divider value class, memory aliasing, the
 *    SSE/AVX transition, move elimination, macro-fusion, the cycle
 *    budget);
 *  - runBatchSweep XML is byte-identical with the memo-cache on and
 *    off, and across 1 and 4 worker threads;
 *  - logical unrolling over a DecodedKernel reproduces the
 *    materialized n-copy kernel exactly (counters and snapshots),
 *    including macro-fusion across copy boundaries;
 *  - a Pipeline reusing its scratch arena across runs reproduces a
 *    fresh pipeline's results run for run;
 *  - idle-cycle skipping is cycle-exact against plain stepping.
 */

#include <set>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "sim/measurement_cache.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

void
expectCountersEqual(const sim::PerfCounters &a,
                    const sim::PerfCounters &b, const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    for (int p = 0; p < sim::kMaxPorts; ++p)
        EXPECT_EQ(a.port_uops[static_cast<size_t>(p)],
                  b.port_uops[static_cast<size_t>(p)])
            << what << " port " << p;
    EXPECT_EQ(a.uops_issued, b.uops_issued) << what;
    EXPECT_EQ(a.uops_eliminated, b.uops_eliminated) << what;
    EXPECT_EQ(a.instrs_retired, b.instrs_retired) << what;
}

void
expectRunsEqual(const sim::RunResult &a, const sim::RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    expectCountersEqual(a.final, b.final, what + " final");
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size()) << what;
    for (size_t i = 0; i < a.snapshots.size(); ++i)
        expectCountersEqual(a.snapshots[i], b.snapshots[i],
                            what + " snapshot " + std::to_string(i));
}

/** Bit-exact Measurement comparison (doubles compared with ==). */
void
expectMeasurementsIdentical(const sim::Measurement &a,
                            const sim::Measurement &b,
                            const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    for (int p = 0; p < sim::kMaxPorts; ++p)
        EXPECT_EQ(a.port_uops[static_cast<size_t>(p)],
                  b.port_uops[static_cast<size_t>(p)])
            << what << " port " << p;
    EXPECT_EQ(a.uops_issued, b.uops_issued) << what;
    EXPECT_EQ(a.uops_eliminated, b.uops_eliminated) << what;
}

// ---------------------------------------------------------------------
// Measurement memo-cache.
// ---------------------------------------------------------------------

TEST(Determinism, CacheHitIsBitIdenticalToMissAndToUncached)
{
    const auto &tdb = timingDb(UArch::Skylake);
    const std::vector<std::string> bodies = {
        "ADD RAX, RBX",
        "IMUL RAX, RBX\nPSHUFD XMM1, XMM2, 0",
        "DIV RBX",
        "MOV [RAX], RBX\nMOV RCX, [RAX]",
        "CMP RAX, RBX\nJZ 1",
    };

    sim::MeasurementCache cache;
    sim::MeasurementHarness cached(tdb);
    cached.setCache(&cache);
    sim::MeasurementHarness uncached(tdb);

    for (const std::string &listing : bodies) {
        auto body = asm_(listing);
        sim::Measurement miss = cached.measure(body);  // populates
        sim::Measurement hit = cached.measure(body);   // serves
        sim::Measurement plain = uncached.measure(body);
        expectMeasurementsIdentical(miss, hit, listing + " hit/miss");
        expectMeasurementsIdentical(plain, miss,
                                    listing + " cached/uncached");
    }
    EXPECT_EQ(cache.size(), bodies.size());
    EXPECT_GE(cache.hits(), bodies.size());
}

TEST(Determinism, FingerprintSeparatesKernelsAndOptions)
{
    sim::HarnessOptions options;
    auto a = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX"),
                                                options);
    auto b = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RCX"),
                                                options);
    auto c = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX\n"
                                                     "ADD RAX, RBX"),
                                                options);
    options.unroll_large = 60;
    auto d = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX"),
                                                options);
    EXPECT_NE(a, b); // operands differ
    EXPECT_NE(a, c); // lengths differ
    EXPECT_NE(a, d); // harness options differ
    EXPECT_EQ(a, sim::MeasurementCache::fingerprint(
                     asm_("ADD RAX, RBX"), sim::HarnessOptions{}));
}

TEST(Determinism, SharedCacheIsThreadSafeAndExact)
{
    // One cache shared across threads *and* uarches: Haswell has its
    // own machine model, the Skylake family shares one.
    const std::vector<UArch> arches = {UArch::Haswell, UArch::Skylake,
                                       UArch::KabyLake,
                                       UArch::CoffeeLake};
    sim::MeasurementCache cache(4);
    auto body = asm_("IMUL RAX, RBX\nADD RCX, RDX");
    std::vector<sim::Measurement> expected;
    for (UArch arch : arches) {
        // Also warms each lazily filled TimingDb before the threads
        // read it concurrently.
        sim::MeasurementHarness reference(timingDb(arch));
        expected.push_back(reference.measure(body));
    }

    ThreadPool pool(4);
    std::vector<sim::Measurement> results(64);
    pool.parallelFor(results.size(), [&](size_t i, size_t) {
        // One harness per task: harnesses are single-threaded, the
        // cache is the shared object under test.
        sim::MeasurementHarness harness(
            timingDb(arches[i % arches.size()]));
        harness.setCache(&cache);
        results[i] = harness.measure(body);
    });
    for (size_t i = 0; i < results.size(); ++i)
        expectMeasurementsIdentical(expected[i % arches.size()],
                                    results[i],
                                    "task " + std::to_string(i));
    EXPECT_EQ(cache.size(), 2u);
    // Single-flight: concurrent misses of one key simulate it once.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), results.size() - 2);
}

// ---------------------------------------------------------------------
// Program-key coverage: what must share a simulation, what must not.
// ---------------------------------------------------------------------

/** Measure each (uarch, body) through one shared cache, checking every
 *  result against an uncached harness; returns the cache misses. */
uint64_t
sharedMisses(const std::vector<std::pair<UArch, isa::Kernel>> &runs,
             std::vector<sim::Measurement> *out = nullptr)
{
    sim::MeasurementCache cache;
    for (const auto &[arch, body] : runs) {
        sim::MeasurementHarness cached(timingDb(arch));
        cached.setCache(&cache);
        sim::MeasurementHarness plain(timingDb(arch));
        sim::Measurement m = cached.measure(body);
        expectMeasurementsIdentical(plain.measure(body), m,
                                    uarch::uarchShortName(arch) + " " +
                                        isa::kernelToAsm(body));
        if (out != nullptr)
            out->push_back(m);
    }
    EXPECT_EQ(cache.size(), cache.misses());
    return cache.misses();
}

TEST(Determinism, ProgramKeyMergesIdenticalPrograms)
{
    // Same µop program, different instructions.
    EXPECT_EQ(sharedMisses({{UArch::Skylake, asm_("ADD RAX, RBX")},
                            {UArch::Skylake, asm_("SUB RAX, RBX")}}),
              1u);
    // Identical machine models.
    for (const char *listing :
         {"IMUL RAX, RBX", "DIV RBX", "CMP RAX, RBX\nJZ 1",
          "VADDPS YMM0, YMM1, YMM2\nSQRTPS XMM3, XMM4"}) {
        EXPECT_EQ(sharedMisses({{UArch::Skylake, asm_(listing)},
                                {UArch::KabyLake, asm_(listing)},
                                {UArch::CoffeeLake, asm_(listing)}}),
                  1u)
            << listing;
    }
}

TEST(Determinism, ProgramKeySeparatesObservableDifferences)
{
    std::vector<sim::Measurement> m;

    // Divider value class: slow operands take longer.
    isa::Kernel fast = asm_("DIV RBX");
    isa::Kernel slow = fast;
    fast[0].div_class = isa::DivValueClass::Fast;
    slow[0].div_class = isa::DivValueClass::Slow;
    EXPECT_EQ(sharedMisses({{UArch::Skylake, fast},
                            {UArch::Skylake, slow}},
                           &m),
              2u);
    EXPECT_LT(m[0].cycles, m[1].cycles);

    // Memory aliasing: the load of the stored location forms a chain
    // through memory, a load of another location does not.
    m.clear();
    EXPECT_EQ(sharedMisses({{UArch::Skylake,
                             asm_("MOV [RAX], RBX\nMOV RBX, [RAX]")},
                            {UArch::Skylake,
                             asm_("MOV [RAX], RBX\nMOV RBX, [RAX+1]")}},
                           &m),
              2u);
    EXPECT_GT(m[0].cycles, m[1].cycles);

    // SSE/AVX transition: with the upper YMM state dirty, the
    // legacy-SSE write merges with its destination (a loop-carried
    // chain); the VEX form of the same µop does not.
    m.clear();
    EXPECT_EQ(
        sharedMisses({{UArch::Haswell,
                       asm_("VADDPS YMM0, YMM1, YMM2\nSQRTPS XMM3, XMM4")},
                      {UArch::Haswell,
                       asm_("VADDPS YMM0, YMM1, YMM2\n"
                            "VSQRTPS XMM3, XMM4")}},
                     &m),
        2u);
    EXPECT_GT(m[0].cycles, m[1].cycles);

    // Move elimination: Ivy Bridge eliminates reg-reg moves, Sandy
    // Bridge (otherwise the same machine model) does not.
    m.clear();
    EXPECT_EQ(sharedMisses({{UArch::SandyBridge, asm_("MOV RAX, RBX")},
                            {UArch::IvyBridge, asm_("MOV RAX, RBX")}},
                           &m),
              2u);
    EXPECT_EQ(m[0].uops_eliminated, 0.0);
    EXPECT_GT(m[1].uops_eliminated, 0.0);

    // Macro-fusion across generations.
    EXPECT_EQ(sharedMisses({{UArch::Nehalem, asm_("CMP RAX, RBX\nJZ 1")},
                            {UArch::SandyBridge,
                             asm_("CMP RAX, RBX\nJZ 1")}}),
              2u);
}

TEST(Determinism, ProgramKeySeparatesCycleBudget)
{
    const auto &tdb = timingDb(UArch::Skylake);
    auto body = asm_("DIV RBX");
    sim::MeasurementCache cache;
    sim::MeasurementHarness unbudgeted(tdb);
    unbudgeted.setCache(&cache);
    (void)unbudgeted.measure(body);

    // The same kernel already sits in the shared cache, but a
    // budgeted harness must still run it and blow its budget.
    sim::MeasurementHarness budgeted(tdb, {},
                                     sim::SimOptions{.cycle_budget = 100});
    budgeted.setCache(&cache);
    EXPECT_THROW(budgeted.measure(body), sim::CycleBudgetExceeded);
    EXPECT_EQ(cache.hits(), 0u);
}

// ---------------------------------------------------------------------
// Batch XML byte-stability.
// ---------------------------------------------------------------------

TEST(Determinism, BatchXmlByteIdenticalAcrossCacheAndThreads)
{
    auto options = [](size_t threads, bool share) {
        core::BatchOptions o;
        o.num_threads = threads;
        o.share_measurements = share;
        // Every rename/dispatch special case the program key must
        // capture: macro-fusible ALU ops (CMP, ADD), move elimination
        // (MOV, MOVAPS), zero and dependency-breaking idioms (XOR,
        // PXOR, VPXOR, PCMPGTD), the divider (DIV), SSE/AVX
        // transitions (SQRTPS next to VSQRTPS) and memory round trips
        // (the M64 forms of ADD and MOV).
        o.characterizer.filter = [](const isa::InstrVariant &v) {
            static const std::set<std::string> mnemonics = {
                "ADD",   "CMP",     "MOV", "MOVAPS", "XOR",     "PXOR",
                "VPXOR", "PCMPGTD", "DIV", "SQRTPS", "VSQRTPS",
            };
            return mnemonics.count(v.mnemonic()) > 0;
        };
        return o;
    };
    const std::vector<UArch> &arches = uarch::allUArches();

    // The uncached baseline runs on 4 threads (threading never changes
    // the report either), so the 1-thread run below is cached.
    std::string baseline =
        core::runBatchSweep(defaultDb(), arches, options(4, false))
            .toXmlString();
    EXPECT_EQ(baseline,
              core::runBatchSweep(defaultDb(), arches, options(1, true))
                  .toXmlString())
        << "1-thread cached sweep changed the report";
    EXPECT_EQ(baseline,
              core::runBatchSweep(defaultDb(), arches, options(4, true))
                  .toXmlString())
        << "4-thread cached sweep changed the report";
}

// ---------------------------------------------------------------------
// Logical unrolling and the scratch arena.
// ---------------------------------------------------------------------

/** Bodies covering the rename/dispatch special cases: ALU chains,
 *  fusion (including across copy boundaries), zero idioms and move
 *  elimination, vectors with bypass, divider, memory round trips,
 *  serializing instructions. */
const char *const kUnrollBodies[] = {
    "ADD RAX, RBX\nIMUL RCX, RAX",
    "CMP RAX, RBX\nJZ 1",          // fuses, also across copies
    "JZ 1\nCMP RAX, RBX",          // wrap pair (CMP, JZ) fuses
    "XOR RAX, RAX\nMOV RBX, RCX\nNOP",
    "PSHUFD XMM1, XMM2, 0\nPADDD XMM1, XMM3\nMULPS XMM4, XMM1",
    "DIV RBX\nADD RCX, RDX",
    "MOV [RAX], RBX\nMOV RCX, [RAX]\nMOVSX RDX, CL",
    "IMUL RAX, RBX\nLFENCE\nIMUL RCX, RBX",
};

TEST(Determinism, LogicalUnrollMatchesMaterializedKernel)
{
    for (UArch arch : {UArch::Nehalem, UArch::Skylake}) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        auto prologue = asm_("MOV RAX, 7\nCPUID\nRDTSC\nCPUID");
        auto epilogue = asm_("CPUID\nRDTSC\nCPUID\nADD RAX, RBX");

        for (const char *listing : kUnrollBodies) {
            auto body = asm_(listing);
            for (int n : {1, 3, 10}) {
                isa::Kernel flat;
                flat.insert(flat.end(), prologue.begin(),
                            prologue.end());
                for (int i = 0; i < n; ++i)
                    flat.insert(flat.end(), body.begin(), body.end());
                flat.insert(flat.end(), epilogue.begin(),
                            epilogue.end());
                std::vector<size_t> markers = {2, flat.size() - 2};

                sim::DecodedKernel decoded(tdb, prologue, body,
                                           epilogue);
                expectRunsEqual(
                    pipeline.run(flat, markers),
                    pipeline.run(decoded, n, markers),
                    std::string(listing) + " n=" + std::to_string(n));
            }
        }
    }
}

TEST(Determinism, ScratchArenaReuseReproducesFreshPipeline)
{
    const auto &tdb = timingDb(UArch::Skylake);
    sim::Pipeline reused(tdb);
    // Interleave dissimilar kernels so stale scratch state from one
    // run would corrupt the next if the reset were incomplete.
    for (int round = 0; round < 3; ++round) {
        for (const char *listing : kUnrollBodies) {
            auto kernel = asm_(listing);
            sim::Pipeline fresh(tdb);
            expectRunsEqual(fresh.run(kernel), reused.run(kernel),
                            listing);
        }
    }
}

// ---------------------------------------------------------------------
// Golden RunResults.
// ---------------------------------------------------------------------

/** One golden kernel body; @c slow marks its dividers slow-valued. */
struct GoldenBody
{
    const char *listing;
    bool slow = false;
};

/** Every operand shape the rename stage resolves, in bodies run behind
 *  a prologue whose last CMP fuses into the body's first JZ and in
 *  front of an epilogue whose first JNZ fuses with the body's last
 *  CMP. */
const GoldenBody kGoldenBodies[] = {
    // µops with five sources: two registers, CL and two flag groups.
    {"SHLD RAX, RBX\nSHRD RDX, RSI"},
    // Reads and writes of one, two and three flag groups.
    {"ADC RAX, RBX\nCMOVBE RCX, RDX\nLAHF\nSAHF\nINC RSI\nCMC\n"
     "SETBE DL"},
    // CMP/JCC fused across the copy wrap and into the epilogue; ALU
    // fusion on Sandy Bridge and later.
    {"JZ 1\nCMP RAX, RBX"},
    {"ADD RAX, RBX\nJNZ 1\nIMUL RCX, RAX\nCMP RCX, RDX"},
    // Eliminated moves and flag-writing zero idioms.
    {"MOV RAX, RBX\nMOV RBX, RAX\nXOR RCX, RCX\nSUB RDX, RDX\n"
     "ADC RCX, RDX\nMOVAPS XMM1, XMM2\nMOVAPS XMM2, XMM1\n"
     "PXOR XMM3, XMM3\nPADDD XMM3, XMM1"},
    // Partial-register writes merging with the old value.
    {"IMUL RAX, R9\nMOV AL, BL\nADC AX, CX\nSETBE AL\nLAHF"},
    // Slow and fast divider values.
    {"DIV RBX\nIMUL RCX, RAX", true},
    {"DIV RBX\nIMUL RCX, RAX"},
    // Dirty-upper SSE merges, then a clean upper state.
    {"VADDPS YMM0, YMM1, YMM2\nSQRTPS XMM3, XMM4\nADDPS XMM3, XMM5"},
    {"VZEROUPPER\nSQRTPS XMM3, XMM4\nVADDPS YMM0, YMM1, YMM2"},
    // Temporaries: memory read-modify-write and load-op forms.
    {"ADD [RBX], RAX\nADD RCX, [RBX]\nXOR R8, [RBX]\nSHLD RAX, RBX, 3"},
    // The implicit stack tag -1 and the largest displacement.
    {"PUSH RAX\nPOP RCX\nMOV [RSI+1048576], RBX\n"
     "MOV RDX, [RSI+1048576]\nMOV R8, [RSI+1048575]"},
};

uint64_t
fnv1a(uint64_t h, int64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
digestCounters(uint64_t h, const sim::PerfCounters &c)
{
    h = fnv1a(h, c.cycles);
    for (int64_t u : c.port_uops)
        h = fnv1a(h, u);
    h = fnv1a(h, c.uops_issued);
    h = fnv1a(h, c.uops_eliminated);
    return fnv1a(h, c.instrs_retired);
}

/** Digest of cycles, final counters and marker snapshots of every
 *  golden body @p arch supports, at 1, 2 and 10 body copies. */
uint64_t
goldenDigest(UArch arch)
{
    const auto &tdb = timingDb(arch);
    const uarch::UArchInfo &info = uarch::uarchInfo(arch);
    sim::Pipeline pipeline(tdb);
    auto prologue = asm_("MOV RAX, 7\nCPUID\nRDTSC\nCPUID\nCMP RSI, RDI");
    auto epilogue = asm_("JNZ 2\nCPUID\nRDTSC\nCPUID");
    uint64_t h = 0xcbf29ce484222325ull;
    for (const GoldenBody &golden : kGoldenBodies) {
        isa::Kernel body = asm_(golden.listing);
        bool supported = true;
        for (isa::InstrInstance &inst : body) {
            supported &= info.hasExtension(inst.variant->extension());
            if (golden.slow && inst.variant->attrs().uses_divider)
                inst.div_class = isa::DivValueClass::Slow;
        }
        if (!supported)
            continue;
        sim::DecodedKernel decoded(tdb, prologue, body, epilogue);
        for (int n : {1, 2, 10}) {
            std::vector<size_t> markers = {
                2, prologue.size() + body.size() * n + 2};
            sim::RunResult r = pipeline.run(decoded, n, markers);
            h = fnv1a(h, r.cycles);
            h = digestCounters(h, r.final);
            for (const sim::PerfCounters &s : r.snapshots)
                h = digestCounters(h, s);
        }
    }
    return h;
}

TEST(Determinism, GoldenRunResultsArePinned)
{
    // Recorded before the rename plans and the pooled µop operands
    // replaced per-copy operand resolution; any drift is a change of
    // simulated behaviour, not of speed.
    const std::pair<UArch, uint64_t> golden[] = {
        {UArch::Nehalem, 0xe8d0483bb922b738ull},
        {UArch::Westmere, 0xe8d0483bb922b738ull},
        {UArch::SandyBridge, 0xa16cbaaa7a8196ddull},
        {UArch::IvyBridge, 0x1b532c3e537244bbull},
        {UArch::Haswell, 0x89b9074d19dc8b0bull},
        {UArch::Broadwell, 0xa78be9f309e2a449ull},
        {UArch::Skylake, 0x5a4eb599d49a4518ull},
        {UArch::KabyLake, 0x5a4eb599d49a4518ull},
        {UArch::CoffeeLake, 0x5a4eb599d49a4518ull},
    };
    for (const auto &[arch, expected] : golden)
        EXPECT_EQ(goldenDigest(arch), expected)
            << uarch::uarchShortName(arch) << " digest 0x" << std::hex
            << goldenDigest(arch);
}

TEST(Determinism, IdleCycleSkippingIsCycleExact)
{
    sim::SimOptions stepping;
    stepping.skip_idle = false;
    for (UArch arch : {UArch::Nehalem, UArch::Skylake}) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline fast(tdb);
        sim::Pipeline slow(tdb, stepping);
        for (const char *listing : kUnrollBodies) {
            // Long dependent chains maximize idle stretches.
            auto body = asm_(listing);
            isa::Kernel kernel;
            for (int i = 0; i < 40; ++i)
                kernel.insert(kernel.end(), body.begin(), body.end());
            expectRunsEqual(slow.run(kernel), fast.run(kernel),
                            listing);
        }
    }
}

} // namespace
} // namespace uops::test
