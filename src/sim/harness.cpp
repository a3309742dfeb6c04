#include "harness.h"

#include <cmath>

#include "sim/measurement_cache.h"
#include "support/status.h"

namespace uops::sim {

using isa::InstrInstance;
using isa::Kernel;

MeasurementHarness::MeasurementHarness(const uarch::TimingDb &timing,
                                       HarnessOptions options,
                                       SimOptions sim)
    : timing_(timing), pipeline_(timing, sim), options_(options)
{
    const isa::InstrDb &db = timing.instrDb();
    serializer_ = db.byName("CPUID_R32i_R32i_R32i_R32i");
    if (serializer_ == nullptr)
        serializer_ = db.byName("CPUID");
    counter_reader_ = db.byName("RDTSC_R32i_R32i");
    if (counter_reader_ == nullptr)
        counter_reader_ = db.byName("RDTSC");
    fatalIf(serializer_ == nullptr || counter_reader_ == nullptr,
            "harness: CPUID/RDTSC must be present in the instruction DB");

    // start <- readPerfCtrs() / end <- readPerfCtrs(), wrapped in
    // serializing instructions; fixed for the harness lifetime.
    for (Kernel *wrapper : {&prologue_, &epilogue_}) {
        wrapper->push_back(isa::makeInstance(*serializer_, {}));
        wrapper->push_back(isa::makeInstance(*counter_reader_, {}));
        wrapper->push_back(isa::makeInstance(*serializer_, {}));
    }
}

void
MeasurementHarness::setCache(MeasurementCache *cache)
{
    cache_ = cache;
    if (cache_ == nullptr)
        return;
    // Everything but the body is fixed for the harness lifetime, so
    // its part of the key is interned once per attached cache.
    const Kernel no_body;
    DecodedKernel wrapper(timing_, prologue_, no_body, epilogue_);
    context_id_ = cache_->contextId(options_, pipeline_, wrapper);
}

PerfCounters
MeasurementHarness::runOnce(const DecodedKernel &decoded, int n) const
{
    // Counter snapshots at the two RDTSC retirements; indices in the
    // logical stream prologue · body×n · epilogue.
    std::vector<size_t> markers;
    markers.reserve(2);
    markers.push_back(1);
    markers.push_back(decoded.prologueSize() +
                      decoded.bodySize() * static_cast<size_t>(n) + 1);

    RunResult result = pipeline_.run(decoded, n, markers);
    return result.snapshots[1] - result.snapshots[0];
}

Measurement
MeasurementHarness::measure(const Kernel &body) const
{
    panicIf(body.empty(), "harness: empty benchmark body");

    // Decode the body (µop selection, idiom and fusion analysis) once:
    // the template keys the memo and, on a miss, is what runs.
    DecodedKernel decoded(timing_, prologue_, body, epilogue_);
    if (cache_ == nullptr)
        return simulate(decoded);

    std::string key = MeasurementCache::programKey(context_id_, decoded);
    if (auto hit = cache_->lookup(key))
        return *hit;
    Measurement m = simulate(decoded);
    cache_->insert(key, m);
    return m;
}

Measurement
MeasurementHarness::simulate(const DecodedKernel &decoded) const
{
    // Both unroll factors and all repetitions reuse the template.
    if (options_.warmup)
        (void)runOnce(decoded, options_.unroll_small);

    Rng rng(options_.noise_seed);
    int reps = std::max(1, options_.repetitions);
    const double scale =
        static_cast<double>(options_.unroll_large - options_.unroll_small);

    // Accumulate raw counter deltas; normalize by scale and reps once
    // at the end instead of per repetition and per port.
    double cycles_sum = 0.0;
    std::array<int64_t, kMaxPorts> port_sum{};
    int64_t issued_sum = 0;
    int64_t eliminated_sum = 0;

    for (int rep = 0; rep < reps; ++rep) {
        PerfCounters small = runOnce(decoded, options_.unroll_small);
        PerfCounters large = runOnce(decoded, options_.unroll_large);
        PerfCounters diff = large - small;

        double cycles = static_cast<double>(diff.cycles);
        if (options_.noise_stddev > 0.0) {
            // Triangular-distributed jitter (sum of two uniforms),
            // seeded: repeatable noise for the averaging tests.
            double u = rng.nextDouble() + rng.nextDouble() - 1.0;
            cycles += u * options_.noise_stddev * scale;
            if (cycles < 0)
                cycles = 0;
        }
        cycles_sum += cycles;
        for (int p = 0; p < kMaxPorts; ++p)
            port_sum[static_cast<size_t>(p)] +=
                diff.port_uops[static_cast<size_t>(p)];
        issued_sum += diff.uops_issued;
        eliminated_sum += diff.uops_eliminated;
    }

    const double norm = scale * static_cast<double>(reps);
    Measurement acc;
    acc.cycles = cycles_sum / norm;
    for (int p = 0; p < kMaxPorts; ++p)
        acc.port_uops[static_cast<size_t>(p)] =
            static_cast<double>(port_sum[static_cast<size_t>(p)]) / norm;
    acc.uops_issued = static_cast<double>(issued_sum) / norm;
    acc.uops_eliminated = static_cast<double>(eliminated_sum) / norm;
    return acc;
}

} // namespace uops::sim
