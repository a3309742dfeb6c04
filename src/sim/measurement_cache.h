/**
 * @file
 * Thread-safe, sharded memoization of harness measurements.
 *
 * The characterization algorithms are massively redundant at the
 * kernel level: blocking-set discovery measures every candidate in
 * isolation, Algorithm 1 re-measures the pure blocking kernels for
 * every variant, the latency/throughput analyzers rebuild
 * byte-identical chains across variants sharing an operand shape,
 * and many distinct instructions (ADD/SUB/AND of one register pair)
 * decode to the very same µop program. Since the "hardware" is a
 * deterministic simulator, a Measurement is a pure function of the
 * program it runs, and repeats are served from this memo instead of
 * the simulator.
 *
 * Keys are program keys (programKey): the id of the measurement
 * context — harness options, the UArchInfo fields the core reads, the
 * outcome-affecting SimOptions and the decoded Algorithm-2 wrapper,
 * interned once per harness (contextId) — followed by
 * Pipeline::appendBodyKey, the decoded body with its operands
 * resolved to rename units and memory tags. Because the context
 * carries the machine model, one cache serves any number of harnesses
 * on any uarch: Skylake, Kaby Lake and Coffee Lake, whose models are
 * identical, share every measurement. The full key is stored, so
 * lookups are exact — a hash collision can never silently return a
 * wrong Measurement, which would break the determinism contract
 * (cache-hit results must be bit-identical to cache-miss results).
 *
 * fingerprint() is a different, instruction-level key (variant ids
 * and operands): the request identity /predict memoizes whole
 * responses by, because those responses echo the instructions. It
 * keys nothing here; concurrent identical requests coalesce on the
 * program key below like any other measurement.
 *
 * Misses are single-flight: the first caller to miss a key claims it
 * and simulates; a concurrent caller missing the same key waits for
 * that Measurement instead of simulating it again, and counts as a
 * hit; waits() counts those callers. So misses() is the number of
 * simulations run and equals size() whatever the thread count.
 * (Before, concurrent misses of one key each simulated it and the
 * first insert won: a 4-thread full sweep ran 10,940-11,940
 * simulations where a 1-thread one ran 10,486.)
 *
 * The table is sharded by key hash; each shard has its own mutex and
 * condition variable, so the batch engine shares one cache across all
 * worker threads and uarches with negligible contention (simulator
 * runs are milliseconds; the critical section is a map probe).
 */

#ifndef UOPS_SIM_MEASUREMENT_CACHE_H
#define UOPS_SIM_MEASUREMENT_CACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/kernel.h"
#include "sim/harness.h"

namespace uops::sim {

class MeasurementCache
{
  public:
    explicit MeasurementCache(size_t num_shards = 16);

    /**
     * Dense id of a measurement context: @p options plus
     * Pipeline::appendContextKey of @p wrapper (a template whose body
     * is ignored). Equal contexts get equal ids for the lifetime of
     * this cache, so a harness resolves its id once, when attached.
     */
    uint32_t contextId(const HarnessOptions &options,
                       const Pipeline &pipeline,
                       const DecodedKernel &wrapper);

    /** Exact memo key of measuring @p decoded in context
     *  @p context_id (see the file comment). */
    static std::string programKey(uint32_t context_id,
                                  const DecodedKernel &decoded);

    /** Canonical, exact instruction-level fingerprint of (body,
     *  options): request identity, not the memo key. */
    static std::string fingerprint(const isa::Kernel &body,
                                   const HarnessOptions &options);

    /**
     * The measurement memoized under @p key; on a miss, @p simulate
     * computes it once for every concurrent caller of that key (see
     * the file comment). If @p simulate throws, the claim is dropped,
     * the exception propagates, and a waiting caller claims the key
     * and simulates it itself.
     */
    Measurement getOrCompute(const std::string &key,
                             const std::function<Measurement()> &simulate);

    size_t numShards() const { return shards_.size(); }
    size_t size() const;
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    /** Callers that found their key claimed by another caller and
     *  waited for it to be published or dropped. */
    uint64_t waits() const { return waits_.load(); }

  private:
    struct Entry
    {
        bool ready = false; ///< false: claimed, being simulated
        Measurement measurement;
    };

    struct Shard
    {
        std::mutex mutex;
        /** Signalled when a claimed entry is published or dropped. */
        std::condition_variable settled;
        std::unordered_map<std::string, Entry> map;
    };

    Shard &shardFor(const std::string &key) const;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::mutex contexts_mutex_;
    std::unordered_map<std::string, uint32_t> contexts_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> waits_{0};
};

} // namespace uops::sim

#endif // UOPS_SIM_MEASUREMENT_CACHE_H
