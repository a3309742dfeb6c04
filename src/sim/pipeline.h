/**
 * @file
 * Cycle-level out-of-order execution-engine simulator.
 *
 * This is the project's substitute for the paper's physical Intel Core
 * processors (see DESIGN.md): it executes benchmark kernels against the
 * ground-truth µop timing tables and exposes the performance counters
 * the characterization algorithms consume.
 *
 * Modeled (per Figure 1 and Section 3.1 of the paper):
 *  - in-order issue of µops into the scheduler (4-wide front end);
 *  - register renaming over architectural units, eliminating false
 *    dependencies; partial-register writes merge with the old value;
 *  - the reorder buffer executing special µops directly: NOPs, zero
 *    idioms (with identical registers), and register-to-register moves
 *    (move elimination — deliberately succeeding only ~1/3 of the time
 *    in dependent chains, as the paper observed, so that latency
 *    measurements must use MOVSX instead of MOV);
 *  - per-µop port binding by least-load heuristic at issue time and
 *    oldest-first dispatch of at most one µop per port per cycle;
 *  - per-(µop, destination) latencies, inter-domain bypass delays, and
 *    the not-fully-pipelined divider with value-dependent timing;
 *  - loads, store-address/store-data µops, memory dependencies through
 *    store-to-load forwarding;
 *  - SSE/AVX transition behaviour: while the upper YMM state is dirty,
 *    non-VEX vector writes acquire a merge dependency on their
 *    destination (why the tool keeps separate SSE/AVX blocking sets);
 *  - serializing instructions (pipeline drain) and in-order retirement
 *    with counter snapshots at marker instructions (Algorithm 2).
 *
 * Performance: run() executes either a materialized kernel or a
 * DecodedKernel template with logical body unrolling (the measurement
 * hot path — see sim/decoded.h). Renaming reads each µop's operands
 * from the template's rename plan, resolved once at decode time, so no
 * unrolled copy looks at an operand again. A renamed µop is a small
 * plain struct: its source value ids live in one per-run operand pool
 * and its destination ids are consecutive. That pool and the rest of
 * the per-run working state (reorder buffer, value tables, port
 * queues) live in a scratch arena owned by the Pipeline and reused
 * across runs, so a warmed pipeline's run allocates the same small
 * constant however many µops it issues (pinned by sim_pipeline_test).
 * Before the rename plans, flag-group expansion and µops with more
 * than four sources allocated per renamed µop: a full nine-uarch,
 * full-ISA sweep (runBatchSweep, 4 threads) made about 35 M heap
 * allocations, and makes 6.2 M now, most of them in benchmark
 * construction and decoding; the fast-forward's snapshots live in the
 * same arena and did not move that count. Results
 * are unaffected: every run starts from a fully reset power-on state.
 * When no µop can dispatch, issue, or retire in a cycle, the simulated
 * clock skips ahead to the next cycle at which a value becomes ready,
 * the divider frees up, or the oldest µop completes — cycle-exact,
 * since no architectural state can change in the skipped span.
 *
 * Steady-state fast-forward: a logically unrolled run soon settles
 * into a state that repeats every few body copies, and the remaining
 * copies only replay it. At the first cycle of every snapshot stride
 * (whole copies, at least 16 instructions) the core snapshots its
 * live state relative to the clock and to the stream position: the
 * body phase, the serializer and in-flight instruction counts, the
 * pending and ROB entries from their heads (spec, dispatch state,
 * remaining time to complete, sources and destinations; each µop's
 * instruction follows from the in-flight instructions' µop counts,
 * since both are in program order), the port queues as ROB offsets,
 * scheduler and divider occupancy, the SSE/AVX upper state, the
 * move-elimination phase, and every register, memory and temporary
 * binding. A value is canonical: ready for every consumer, in flight
 * with its remaining latency and domain, or not yet produced and named
 * by its distance from the newest value id (ids are allocated in
 * program order). A cheap summary of the scalars is compared first; a
 * state is encoded in full once its summary repeats, as zigzag varints
 * with each spec a delta from the previous one (at most about 80 KB of
 * snapshots per Pipeline on the full sweep, a seventh of fixed 64-bit
 * words). When a state equals an earlier one of the same run, P copies
 * and Δ cycles before, the same body instructions lie ahead of both
 * and nothing the core does depends on absolute positions or times,
 * so the run from here is the run from
 * there shifted by P copies and Δ cycles, and it repeats while body
 * copies remain. The core then jumps m whole periods: clock, counters,
 * stream position, retire cursor, in-flight instruction indices, ready
 * and completion times and divider occupancy move by m periods; value
 * ids and ROB indices stay. The jump is exact, so results are bit-
 * identical to simulating every copy. It does not fire across a marker
 * that has not retired yet (Algorithm 2's counter reads sit outside
 * the body), it leaves at least one full period and the epilogue to
 * simulate, it keeps the clock within max_cycles and the cycle budget
 * (so the same limit throws as in a plain run), and it never fires on
 * a materialized kernel, which is one body copy: run(kernel) is the
 * reference tests compare the fast-forward with. On the full
 * nine-uarch catalog sweep it skips 45% of the body copies and 68% of
 * the issued µops (RunResult::skipped_copies, copyTotals()).
 *
 * Two further designs were measured on the full sweep in a prototype
 * and did not pay:
 * per-port wakeup heaps instead of the oldest-first scan of each
 * port's bound queue (1.05x slower), and caching each waiting µop's
 * ready time (1.10x slower).
 *
 * Thread-safety: because of the reused scratch arena, a Pipeline
 * instance must not execute concurrent run() calls. The batch engine
 * keeps one Pipeline (inside a Characterizer) per worker thread.
 */

#ifndef UOPS_SIM_PIPELINE_H
#define UOPS_SIM_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "isa/kernel.h"
#include "sim/counters.h"
#include "sim/decoded.h"
#include "support/status.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

class PipelineScratch;

/**
 * Thrown when a run exceeds SimOptions::cycle_budget. Unlike the
 * max_cycles backstop (a panic: a kernel the library itself built
 * should never run away), blowing the budget is a *user* condition —
 * the submitted kernel was legal but too expensive to simulate under
 * the caller's admission policy — so it derives from FatalError and
 * carries the budget for a structured rejection.
 */
class CycleBudgetExceeded : public FatalError
{
  public:
    CycleBudgetExceeded(const std::string &msg, int64_t budget)
        : FatalError(msg), budget_(budget)
    {
    }

    int64_t budget() const { return budget_; }

  private:
    int64_t budget_;
};

/** Tuning/feature knobs (defaults follow the uarch descriptor). */
struct SimOptions
{
    /** Hard cycle cap: aborts runaway simulations. */
    int64_t max_cycles = 50'000'000;

    /** Admission budget for externally-supplied kernels: a run whose
     *  simulated clock passes this many cycles throws
     *  CycleBudgetExceeded (0 disables the budget). Purely an abort
     *  threshold — results of runs within budget are unaffected. */
    int64_t cycle_budget = 0;

    /** Success period of move elimination in dependent chains
     *  (1 elimination every N candidates; 0 disables elimination). */
    int mov_elim_period = 3;

    /** Skip idle stretches of the simulated clock (cycle-exact; off
     *  only for differential testing). */
    bool skip_idle = true;
};

/** Result of simulating one kernel. */
struct RunResult
{
    PerfCounters final;                  ///< Counters at end of run.
    std::vector<PerfCounters> snapshots; ///< At marker retirements.
    int64_t cycles = 0;                  ///< Total cycles to drain.
    /** Body copies the steady-state fast-forward jumped over instead
     *  of simulating (see the file comment); the counters above are
     *  the same either way. */
    int64_t skipped_copies = 0;
};

/** Body copies run() was asked to execute and body copies it
 *  fast-forwarded, summed over every run in this process. */
struct CopyTotals
{
    uint64_t run = 0;
    uint64_t skipped = 0;
};

CopyTotals copyTotals();

/**
 * The simulated core. Architecturally stateless between run() calls —
 * each run starts from power-on register state — but the working
 * memory is reused (see the file comment), so concurrent run() calls
 * on one instance are not allowed.
 */
class Pipeline
{
  public:
    explicit Pipeline(const uarch::TimingDb &timing,
                      SimOptions options = {});
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    const uarch::UArchInfo &info() const { return info_; }

    /**
     * Execute @p kernel to completion.
     *
     * @param kernel  Straight-line instance sequence.
     * @param markers Kernel indices at whose retirement the counters
     *                are snapshotted (Algorithm 2's counter reads).
     */
    RunResult run(const isa::Kernel &kernel,
                  const std::vector<size_t> &markers = {}) const;

    /**
     * Execute a decoded template with @p body_reps logical body
     * copies: prologue · body × body_reps · epilogue. Produces
     * bit-identical results to run() on the equivalent materialized
     * kernel, without building it.
     *
     * @param markers Virtual-stream indices for counter snapshots.
     */
    RunResult run(const DecodedKernel &decoded, int body_reps,
                  const std::vector<size_t> &markers = {}) const;

    /**
     * Exact byte key of the program run(decoded, ...) executes, in two
     * parts. The context key holds what does not depend on the body:
     * the UArchInfo fields the core reads, the SimOptions that can
     * change an outcome, and the decoded prologue and epilogue. The
     * body key holds the body's decode entries and the one prologue
     * field that depends on the body (fusion of the last prologue
     * instruction into the first body instruction). Every entry is
     * written with its decode flags and its µops' rename plans — the
     * spec fields the core reads and the operands it renames from:
     * rename units, merges, memory tags and temporaries. Equal
     * context keys and equal body keys imply identical RunResults for
     * equal body_reps and markers, whatever the uarch or timing
     * database behind either pipeline.
     */
    void appendContextKey(const DecodedKernel &decoded,
                          std::string &out) const;
    static void appendBodyKey(const DecodedKernel &decoded,
                              std::string &out);

  private:
    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    SimOptions options_;
    /** Reusable per-run working state (see file comment). */
    mutable std::unique_ptr<PipelineScratch> scratch_;
};

} // namespace uops::sim

#endif // UOPS_SIM_PIPELINE_H
