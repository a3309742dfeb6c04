/**
 * @file
 * Admission and simulator ownership for /predict.
 *
 * /predict is the one endpoint whose cost is set by the *client*: a
 * kernel simulation runs for micro- to milliseconds of CPU. The
 * engine runs each simulation on the calling (HTTP) thread and
 * bounds how much of that work may run or wait at once:
 *
 *  - admission: at most max_inflight requests may be waiting for or
 *    holding a seat; beyond that simulate() fails fast with
 *    PredictOverloaded (the service's 429) instead of queueing
 *    without bound;
 *  - seats: at most num_threads simulations run at once. A caller
 *    waits for a free seat; the seat owns the simulator state
 *    (BlockPredictor: timing synthesis + pipeline scratch, one per
 *    uarch, built lazily), which only the seat's current holder
 *    touches. Handing a seat over under the engine mutex is
 *    the whole synchronization story for that state;
 *  - one memo: every seat measures through one MeasurementCache
 *    shared by all seats and uarches (its program keys carry the
 *    machine model). Its misses are single-flight, so concurrent
 *    identical kernels share one simulator run, and repeat kernels —
 *    or kernels that decode to a program already simulated on any
 *    identically modeled uarch — skip the simulator. Timing is
 *    catalog-independent, so the memo survives generation
 *    hot-swaps.
 *
 * Exceptions from a simulation (validation FatalError, budget
 * overrun) propagate to the caller; the seat and the admission slot
 * are released on every path.
 */

#ifndef UOPS_SERVER_PREDICT_ENGINE_H
#define UOPS_SERVER_PREDICT_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "isa/kernel.h"
#include "sim/block_predict.h"
#include "sim/measurement_cache.h"
#include "support/status.h"
#include "uarch/uarch.h"

namespace uops::server {

/** Thrown when the in-flight bound is hit (the service's 429). */
class PredictOverloaded : public FatalError
{
  public:
    PredictOverloaded(const std::string &msg, size_t max_inflight)
        : FatalError(msg), max_inflight_(max_inflight)
    {
    }

    size_t maxInflight() const { return max_inflight_; }

  private:
    size_t max_inflight_;
};

class PredictEngine
{
  public:
    struct Options
    {
        /** Simulations running at once (seats). Kept small on
         *  purpose: simulations are CPU-bound. */
        size_t num_threads = 2;

        /** Requests admitted (waiting for or holding a seat) before
         *  simulate() rejects with PredictOverloaded. */
        size_t max_inflight = 64;

        /** Per-simulation policy (harness config, cycle budget). */
        sim::BlockPredictOptions predict;
    };

    /** Point-in-time engine counters. */
    struct Stats
    {
        uint64_t simulations = 0;   ///< predictions completed (memo
                                    ///< hits included)
        uint64_t coalesced = 0;     ///< predictions that waited for an
                                    ///< identical in-flight simulation
        uint64_t rejected = 0;      ///< PredictOverloaded throws
        uint64_t sim_cache_hits = 0;
        uint64_t sim_cache_misses = 0;
        size_t sim_cache_entries = 0;
        size_t inflight = 0;        ///< admitted requests
        size_t workers = 0;         ///< seats
    };

    PredictEngine(const isa::InstrDb &instrs, Options options);
    ~PredictEngine();

    PredictEngine(const PredictEngine &) = delete;
    PredictEngine &operator=(const PredictEngine &) = delete;

    /**
     * Simulate @p body on @p arch on the calling thread, once a seat
     * is free. Identical concurrent kernels share one simulation.
     *
     * @throws PredictOverloaded     at the admission bound;
     * @throws sim::CycleBudgetExceeded past the cycle budget;
     * @throws FatalError            for kernels invalid on @p arch.
     */
    sim::Measurement simulate(uarch::UArch arch,
                              const isa::Kernel &body);

    /**
     * Canonical request key for (arch, body) under this engine's
     * options: the uarch short name prefixed to the exact
     * MeasurementCache::fingerprint. Two requests get the same key
     * iff they decode to byte-identical simulations.
     */
    std::string fingerprint(uarch::UArch arch,
                            const isa::Kernel &body) const;

    const Options &options() const { return options_; }

    Stats stats() const;

  private:
    /** Simulators of one seat, built lazily per uarch. */
    using Seat =
        std::map<uarch::UArch, std::unique_ptr<sim::BlockPredictor>>;

    /** Admits the caller and waits for a seat; gives both back when
     *  destroyed. */
    class SeatLease;

    const isa::InstrDb &instrs_;
    Options options_;

    /** Measurement memo shared by all seats and uarches. */
    sim::MeasurementCache sim_cache_;

    std::vector<Seat> seats_;

    mutable std::mutex mutex_;
    std::condition_variable seat_freed_;
    std::vector<Seat *> free_seats_;
    size_t inflight_ = 0;

    std::atomic<uint64_t> simulations_{0};
    std::atomic<uint64_t> rejected_{0};
};

} // namespace uops::server

#endif // UOPS_SERVER_PREDICT_ENGINE_H
