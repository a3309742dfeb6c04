/**
 * @file
 * Measurement harness (Algorithm 2, Section 6.2).
 *
 * Reproduces the paper's kernel-space measurement routine on top of
 * the simulated core:
 *
 *   saveState / disablePreemptionAndInterrupts   (no-ops in simulation)
 *   serializing instruction                       CPUID
 *   start <- readPerfCtrs()                       RDTSC-modeled reader
 *   serializing instruction                       CPUID
 *   AsmCode (n copies of the benchmark body)
 *   serializing instruction                       CPUID
 *   end <- readPerfCtrs()
 *   serializing instruction                       CPUID
 *
 * The counter-read and serializing overhead is cancelled exactly as in
 * the paper: the harness runs once with n = 10 and once with n = 110
 * copies of the body, subtracts the two measurements and divides by
 * 100. The result is averaged over a configurable number of repetitions
 * after a warm-up run; optional seeded noise exercises the averaging
 * logic in tests.
 *
 * Hot path: the body is decoded into a µop template once per measure()
 * call and the pipeline unrolls it logically (sim/decoded.h) — the
 * n-copy kernel is never materialized — and fast-forwards over the
 * copies that repeat a steady state (sim/pipeline.h), so most of the
 * n = 110 run's copies are not simulated one by one; the counters
 * are those of simulating every copy. When a MeasurementCache is
 * attached (setCache), the template is serialized into an exact
 * program key (the decoded body, Pipeline::appendBodyKey, after the id
 * of the harness's fixed context: machine model, outcome-affecting
 * simulator options, Algorithm-2 wrapper and harness options) and a
 * measurement of an equal program is served from the cache. Bodies
 * that decode to the same program share one simulation — ADD and SUB
 * of the same registers, Skylake and its identically modeled
 * successors — and a hit is bit-identical to recomputation because a
 * Measurement is a pure function of the key.
 */

#ifndef UOPS_SIM_HARNESS_H
#define UOPS_SIM_HARNESS_H

#include <array>

#include "isa/kernel.h"
#include "sim/pipeline.h"
#include "support/rng.h"

namespace uops::sim {

class MeasurementCache;

/** One per-body-execution measurement (averages over the copies). */
struct Measurement
{
    double cycles = 0.0;                       ///< Core cycles per body.
    std::array<double, kMaxPorts> port_uops{}; ///< µops per port per body.
    double uops_issued = 0.0;
    double uops_eliminated = 0.0;

    double
    totalPortUops() const
    {
        double total = 0.0;
        for (double u : port_uops)
            total += u;
        return total;
    }
};

/** Harness configuration. */
struct HarnessOptions
{
    int unroll_small = 10;   ///< n for the first run.
    int unroll_large = 110;  ///< n for the second run.
    int repetitions = 1;     ///< measurement repetitions (paper: 100).
    bool warmup = false;     ///< extra untimed run before measuring.
    double noise_stddev = 0.0; ///< cycles of seeded jitter (0 = exact).
    uint64_t noise_seed = 42;
};

/**
 * Runs benchmark bodies on the simulated core per Algorithm 2.
 */
class MeasurementHarness
{
  public:
    /**
     * @param sim Options for the underlying pipeline; the defaults
     *            match direct Pipeline construction. A cycle_budget
     *            here bounds each Algorithm-2 run (untrusted-kernel
     *            admission control); budgeted and unbudgeted runs
     *            that complete produce bit-identical measurements.
     */
    MeasurementHarness(const uarch::TimingDb &timing,
                       HarnessOptions options = {},
                       SimOptions sim = {});

    const uarch::UArchInfo &info() const { return pipeline_.info(); }
    const uarch::TimingDb &timingDb() const { return timing_; }
    const HarnessOptions &options() const { return options_; }

    /**
     * Attach a measurement memo-cache (nullptr detaches). The key
     * carries the machine model and simulator options, so one cache
     * may be shared by any harnesses, across uarches and threads.
     */
    void setCache(MeasurementCache *cache);
    MeasurementCache *cache() const { return cache_; }

    /**
     * Measure one benchmark body.
     *
     * @param body The assembler sequence under measurement.
     * @return Per-body-execution averages.
     */
    Measurement measure(const isa::Kernel &body) const;

  private:
    /** Algorithm 2 on a decoded body, without the memo-cache. */
    Measurement simulate(const DecodedKernel &decoded) const;

    /** One Algorithm-2 run with @p n logical body copies; returns the
     *  counter delta between the two reads. */
    PerfCounters runOnce(const DecodedKernel &decoded, int n) const;

    const uarch::TimingDb &timing_;
    Pipeline pipeline_;
    HarnessOptions options_;
    const isa::InstrVariant *serializer_;
    const isa::InstrVariant *counter_reader_;
    /** Algorithm 2's fixed wrapper code: serializer / counter read /
     *  serializer, built once and decoded with every body. */
    isa::Kernel prologue_;
    isa::Kernel epilogue_;
    MeasurementCache *cache_ = nullptr;
    /** This harness's context in cache_ (MeasurementCache::contextId). */
    uint32_t context_id_ = 0;
};

} // namespace uops::sim

#endif // UOPS_SIM_HARNESS_H
