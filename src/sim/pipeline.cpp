#include "pipeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <string>

#include "support/status.h"

namespace uops::sim {

using uarch::Domain;
using uarch::UopSpec;

namespace {

constexpr int64_t kNotReady = std::numeric_limits<int64_t>::max() / 4;

/** Dynamic (renamed) instance of one µop in flight: a plain struct,
 *  copied from the pending queue into the ROB. */
struct UopDyn
{
    const UopSpec *spec = nullptr; ///< nullptr for rename-eliminated.
    int64_t complete = -1;         ///< -1: not finished.
    int32_t instr_idx = -1;
    /** Source value ids: PipelineScratch::operands[srcs, srcs +
     *  num_srcs). */
    uint32_t srcs = 0;
    /** Destination value ids, one per spec write: consecutive from
     *  dsts (renaming allocates them in a row). */
    int32_t dsts = 0;
    uint16_t num_srcs = 0;
    uint8_t num_dsts = 0;
    bool slow = false;
    bool dispatched = false;
    int8_t port = -1;
};

/** Words of a StateSnapshot's summary (see Core::summarize). */
constexpr size_t kSummaryWords = 9 + 5 * kMaxPorts;

/** State snapshot of the steady-state fast-forward, taken at a body-copy
 *  boundary: a summary, the canonical state (Core::encodeState) once
 *  the summary has repeated, and where the run stood. */
struct StateSnapshot
{
    std::array<int64_t, kSummaryWords> summary{};
    uint64_t summary_hash = 0;
    bool encoded = false;
    std::string state;
    size_t next_instr = 0;
    int64_t cycle = 0;
    PerfCounters counters;
};

/** Snapshots kept per run: the longest steady-state period the
 *  fast-forward finds, in snapshot strides. */
constexpr size_t kSnapshotSlots = 32;

/** Instructions simulated at least between two snapshots; a snapshot
 *  costs O(in-flight µops), so tiny bodies take one every few copies. */
constexpr size_t kSnapshotInstrs = 16;

/** Appends @p v to @p out as a zigzag LEB128 varint. The encoding is
 *  prefix-free, so equal byte strings mean equal integer sequences. */
void
appendVarint(std::string &out, int64_t v)
{
    uint64_t z = (static_cast<uint64_t>(v) << 1) ^
                 static_cast<uint64_t>(v >> 63);
    while (z >= 0x80) {
        out.push_back(static_cast<char>((z & 0x7f) | 0x80));
        z >>= 7;
    }
    out.push_back(static_cast<char>(z));
}

std::atomic<uint64_t> g_copies_run{0};
std::atomic<uint64_t> g_copies_skipped{0};

static_assert(isa::kUnitFlagAf == isa::kUnitFlagCf + 1 &&
                  isa::kUnitFlagSpazo == isa::kUnitFlagCf + 2,
              "PlanRef::Kind::Flags bits index the flag units from CF");

} // namespace

/**
 * Whole-run working memory, owned by the Pipeline and reused across
 * runs. Every container is reset (not reallocated) at the start of a
 * run, so the simulated core still observes pristine power-on state
 * while a warmed pipeline's run allocates nothing per issued µop.
 */
class PipelineScratch
{
  public:
    std::vector<size_t> marker_set;

    std::vector<int64_t> value_ready;
    std::vector<uint8_t> value_domain;
    std::vector<int32_t> unit_value;
    /** Memory-location values, flat (tag, value) pairs: kernels touch
     *  a handful of distinct tags, so linear scans beat a std::map. */
    std::vector<std::pair<int, int32_t>> mem_value;
    std::vector<int32_t> temp_value;
    /** Operand pool: the source value ids of every µop renamed this
     *  run (UopDyn::srcs indexes it). */
    std::vector<int32_t> operands;

    std::vector<UopDyn> pending_uops;
    std::vector<UopDyn> rob;
    std::vector<std::vector<size_t>> bound;
    std::vector<size_t> bound_head;
    std::vector<int> waiting;
    std::vector<int64_t> div_busy;
    std::vector<int> instr_uops_left;

    /** Steady-state fast-forward: a ring of kSnapshotSlots snapshots,
     *  and the live value ids a jump shifts. */
    std::vector<StateSnapshot> snapshots;
    std::vector<int32_t> live_values;
};

namespace {

/** Whole-run simulation over a decoded virtual instruction stream. */
class Core
{
  public:
    Core(const uarch::TimingDb &timing, const uarch::UArchInfo &info,
         const SimOptions &options, const DecodedKernel &decoded,
         int body_reps, const std::vector<size_t> &markers,
         PipelineScratch &s)
        : timing_(timing), info_(info), options_(options),
          decoded_(decoded), body_reps_(body_reps),
          total_(decoded.totalSize(body_reps)),
          plans_(decoded.plans().data()), refs_(decoded.refs().data()),
          marker_set_(s.marker_set), value_ready_(s.value_ready),
          value_domain_(s.value_domain), unit_value_(s.unit_value),
          mem_value_(s.mem_value), temp_value_(s.temp_value),
          operands_(s.operands), pending_uops_(s.pending_uops),
          rob_(s.rob), bound_(s.bound), bound_head_(s.bound_head),
          waiting_(s.waiting), div_busy_(s.div_busy),
          instr_uops_left_(s.instr_uops_left),
          body_begin_(decoded.prologueSize()),
          body_size_(decoded.bodySize()),
          body_end_(body_begin_ +
                    body_size_ * static_cast<size_t>(body_reps)),
          snapshots_(s.snapshots), live_values_(s.live_values)
    {
        marker_set_.assign(markers.begin(), markers.end());
        std::sort(marker_set_.begin(), marker_set_.end());
        // Value 0: power-on state (ready, integer domain).
        value_ready_.clear();
        value_ready_.push_back(0);
        value_domain_.clear();
        value_domain_.push_back(static_cast<uint8_t>(Domain::Gpr));
        unit_value_.assign(isa::kNumArchUnits, 0);
        mem_value_.clear();
        temp_value_.assign(decoded.numTemps(), 0);
        operands_.clear();
        pending_uops_.clear();
        rob_.clear();
        bound_.resize(static_cast<size_t>(info.num_ports));
        for (auto &queue : bound_)
            queue.clear();
        bound_head_.assign(static_cast<size_t>(info.num_ports), 0);
        waiting_.assign(static_cast<size_t>(info.num_ports), 0);
        div_busy_.assign(static_cast<size_t>(info.num_ports), 0);
        // -1: not yet renamed (blocks the in-order retire cursor).
        instr_uops_left_.assign(total_, -1);
        result_.snapshots.resize(marker_set_.size());
        // A single copy (every materialized kernel) cannot repeat.
        if (body_reps > 1) {
            size_t copies = std::max<size_t>(
                1, (kSnapshotInstrs + body_size_ - 1) / body_size_);
            snapshot_stride_ = copies * body_size_;
            next_snapshot_ = body_begin_ + snapshot_stride_;
            snapshots_.resize(kSnapshotSlots);
        }
    }

    RunResult
    run()
    {
        while (!done()) {
            if (next_instr_ >= next_snapshot_)
                fastForward();
            ++cycle_;
            panicIf(cycle_ > options_.max_cycles,
                    "simulation exceeded max_cycles (deadlock?)");
            if (options_.cycle_budget > 0 &&
                cycle_ > options_.cycle_budget) {
                throw CycleBudgetExceeded(
                    "simulation exceeded the cycle budget (" +
                        std::to_string(options_.cycle_budget) +
                        " cycles)",
                    options_.cycle_budget);
            }
            activity_ = false;
            dispatch();
            issue();
            retire();
            if (!activity_ && options_.skip_idle)
                skipIdleCycles();
        }
        counters_.cycles = cycle_;
        result_.final = counters_;
        result_.cycles = cycle_;
        result_.skipped_copies = skipped_copies_;
        return std::move(result_);
    }

  private:
    bool
    done() const
    {
        return next_instr_ >= total_ && pendingEmpty() &&
               retire_head_ == rob_.size() && retire_cursor_ >= total_;
    }

    bool
    pendingEmpty() const
    {
        return pending_head_ == pending_uops_.size();
    }

    // ---- value table -------------------------------------------------
    int32_t
    newValue()
    {
        value_ready_.push_back(kNotReady);
        value_domain_.push_back(static_cast<uint8_t>(Domain::Gpr));
        return static_cast<int32_t>(value_ready_.size() - 1);
    }

    int64_t
    effectiveReady(int32_t value, Domain consumer) const
    {
        int64_t t = value_ready_[value];
        if (t >= kNotReady)
            return t;
        auto d = static_cast<Domain>(value_domain_[value]);
        bool cross = (d == Domain::IVec && consumer == Domain::FVec) ||
                     (d == Domain::FVec && consumer == Domain::IVec);
        if (cross)
            t += info_.bypass_delay;
        return t;
    }

    // ---- renaming ----------------------------------------------------
    /** Value id currently bound to a planned source or merge. */
    int32_t
    readValue(const PlanRef &ref) const
    {
        switch (ref.kind) {
          case PlanRef::Kind::Mem:
            for (const auto &[t, v] : mem_value_)
                if (t == ref.value)
                    return v;
            return 0;
          case PlanRef::Kind::Temp:
            return temp_value_[static_cast<size_t>(ref.value)];
          default: // Unit, Narrow, LegacySse
            return unit_value_[static_cast<size_t>(ref.value)];
        }
    }

    /** Allocate the value of a planned destination and bind it. */
    int32_t
    bindWrite(const PlanRef &ref)
    {
        int32_t value = newValue();
        switch (ref.kind) {
          case PlanRef::Kind::Unit:
            unit_value_[static_cast<size_t>(ref.value)] = value;
            break;
          case PlanRef::Kind::Flags:
            for (int g = 0; g < 3; ++g)
                if (ref.value & (1 << g))
                    unit_value_[static_cast<size_t>(isa::kUnitFlagCf + g)] =
                        value;
            break;
          case PlanRef::Kind::Mem: {
            auto it = std::find_if(
                mem_value_.begin(), mem_value_.end(),
                [&](const auto &entry) { return entry.first == ref.value; });
            if (it != mem_value_.end())
                it->second = value;
            else
                mem_value_.emplace_back(ref.value, value);
            break;
          }
          case PlanRef::Kind::Temp:
            temp_value_[static_cast<size_t>(ref.value)] = value;
            break;
          case PlanRef::Kind::Narrow:
          case PlanRef::Kind::LegacySse:
            panic("bindWrite: a merge is not a destination");
        }
        return value;
    }

    /** Rename one planned µop: sources and merges read the current
     *  bindings, then its destinations get fresh values. */
    UopDyn
    renameUop(const UopPlan &plan, int32_t idx, bool slow)
    {
        UopDyn dyn;
        dyn.spec = plan.spec;
        dyn.instr_idx = idx;
        dyn.slow = slow;
        dyn.srcs = static_cast<uint32_t>(operands_.size());
        const PlanRef *ref = refs_ + plan.first;
        for (int k = 0; k < plan.num_srcs; ++k)
            operands_.push_back(readValue(*ref++));
        // Partial-register merges always; legacy-SSE merges while the
        // upper YMM state is dirty (it never is without the SSE/AVX
        // transition).
        for (int k = 0; k < plan.num_merges; ++k, ++ref)
            if (ref->kind == PlanRef::Kind::Narrow || dirty_upper_)
                operands_.push_back(
                    unit_value_[static_cast<size_t>(ref->value)]);
        dyn.num_srcs = static_cast<uint16_t>(operands_.size() - dyn.srcs);
        dyn.dsts = static_cast<int32_t>(value_ready_.size());
        dyn.num_dsts = plan.num_dsts;
        for (int k = 0; k < plan.num_dsts; ++k)
            bindWrite(*ref++);
        return dyn;
    }

    // ---- issue -------------------------------------------------------
    /** Generate and enqueue the renamed µops of the next instruction.
     *  The static decode (µop selection, idiom classification, operand
     *  resolution) comes precomputed from the template's rename plan;
     *  only the binding to values is per-copy. */
    void
    renameInstruction(const DecodedInstr &d, int32_t idx)
    {
        activity_ = true;
        const UopPlan *plans = plans_ + d.plan;

        // Move elimination: reg-reg moves handled by the ROB.
        bool eliminated_mov = false;
        if (d.try_mov_elim && options_.mov_elim_period > 0) {
            eliminated_mov =
                (mov_elim_counter_++ % options_.mov_elim_period) == 0;
        }

        if (d.rename_direct || eliminated_mov) {
            // Rename-stage execution: one issued-but-not-dispatched µop.
            UopDyn dyn;
            dyn.instr_idx = idx;
            if (eliminated_mov) {
                // Zero-latency: destination aliases the source value.
                unit_value_[d.elim_dst_unit] =
                    unit_value_[d.elim_src_unit];
            } else {
                // NOP / zero idiom: register and flag results are
                // ready immediately.
                for (uint32_t i = 0; i < d.num_uops; ++i) {
                    const UopPlan &plan = plans[i];
                    const PlanRef *dst = refs_ + plan.first +
                                         plan.num_srcs + plan.num_merges;
                    for (int k = 0; k < plan.num_dsts; ++k, ++dst)
                        if (dst->kind == PlanRef::Kind::Unit ||
                            dst->kind == PlanRef::Kind::Flags)
                            value_ready_[bindWrite(*dst)] = 0;
                }
            }
            instr_uops_left_[static_cast<size_t>(idx)] = 1;
            pending_uops_.push_back(dyn);
            return;
        }

        std::fill(temp_value_.begin(), temp_value_.end(), 0);
        for (uint32_t i = 0; i < d.num_uops; ++i)
            pending_uops_.push_back(renameUop(plans[i], idx, d.slow));
        instr_uops_left_[static_cast<size_t>(idx)] =
            static_cast<int>(d.num_uops);

        // Track the YMM upper state for the SSE/AVX transition model.
        if (info_.sse_avx_transition) {
            if (d.ymm_effect == DecodedInstr::YmmEffect::ClearUpper)
                dirty_upper_ = false;
            else if (d.ymm_effect == DecodedInstr::YmmEffect::DirtyUpper)
                dirty_upper_ = true;
        }
    }

    /** Rename a macro-fused pair into a single branch-unit µop; the
     *  fused plan itself is precomputed by the template. */
    void
    renameFusedPair(const UopPlan &plan, int32_t idx)
    {
        activity_ = true;
        pending_uops_.push_back(renameUop(plan, idx, false));
        instr_uops_left_[static_cast<size_t>(idx)] = 1;
        instr_uops_left_[static_cast<size_t>(idx) + 1] = 0;
    }

    void
    issue()
    {
        int issued = 0;
        while (issued < info_.issue_width) {
            // Refill the pending queue from the instruction stream.
            if (pendingEmpty()) {
                if (next_instr_ >= total_)
                    return;
                // A serializing instruction in flight blocks younger
                // instructions until it has fully retired.
                if (serializer_in_flight_ >= 0) {
                    if (instr_uops_left_[static_cast<size_t>(
                            serializer_in_flight_)] > 0)
                        return;
                    serializer_in_flight_ = -1;
                }
                DecodedKernel::Ref ref =
                    decoded_.at(next_instr_, body_reps_);
                const DecodedInstr &d = *ref.instr;
                if (d.serializing) {
                    // Drain: all older µops must have retired first.
                    if (retire_head_ != rob_.size())
                        return;
                    serializer_in_flight_ =
                        static_cast<int32_t>(next_instr_);
                }
                // Macro-fusion: a flag-writing ALU instruction and an
                // immediately following Jcc decode into a single µop.
                // The eligible pair (and its fused spec) was decided
                // once at decode time.
                int32_t fused = ref.wraps ? d.fused_wrap : d.fused_next;
                if (fused >= 0 && next_instr_ + 1 < total_) {
                    renameFusedPair(plans_[fused],
                                    static_cast<int32_t>(next_instr_));
                    next_instr_ += 2;
                    continue;
                }
                renameInstruction(d,
                                  static_cast<int32_t>(next_instr_));
                ++next_instr_;
            }
            while (!pendingEmpty() && issued < info_.issue_width) {
                UopDyn dyn = pending_uops_[pending_head_];
                // Rename-stage µops (no spec) never enter the RS.
                bool rename_only = dyn.spec == nullptr;
                // Capacity checks.
                if (rob_.size() - retire_head_ >=
                    static_cast<size_t>(info_.rob_size))
                    return;
                if (!rename_only && rs_count_ >= info_.rs_size)
                    return;
                ++pending_head_;
                if (pendingEmpty()) {
                    pending_uops_.clear();
                    pending_head_ = 0;
                }
                ++issued;
                activity_ = true;
                ++counters_.uops_issued;
                if (rename_only) {
                    ++counters_.uops_eliminated;
                    dyn.complete = cycle_;
                    rob_.push_back(dyn);
                    continue;
                }
                // Bind to the least-loaded allowed port. Scans the
                // mask bits directly (ascending, like portsOf) — this
                // runs once per issued µop, too hot for a vector.
                int best = -1;
                uarch::PortMask mask = dyn.spec->ports;
                for (int p = 0; p < info_.num_ports; ++p) {
                    if (!(mask & static_cast<uarch::PortMask>(1u << p)))
                        continue;
                    if (best < 0 || waiting_[p] < waiting_[best])
                        best = p;
                }
                panicIf(best < 0, "µop with no valid port");
                dyn.port = static_cast<int8_t>(best);
                ++waiting_[best];
                ++rs_count_;
                rob_.push_back(dyn);
                bound_[static_cast<size_t>(best)].push_back(
                    rob_.size() - 1);
            }
        }
    }

    // ---- dispatch ----------------------------------------------------
    void
    dispatch()
    {
        for (int p = 0; p < info_.num_ports; ++p) {
            auto &queue = bound_[static_cast<size_t>(p)];
            size_t &head = bound_head_[static_cast<size_t>(p)];
            // Compact fully-drained queues.
            if (head > 0 && head == queue.size()) {
                queue.clear();
                head = 0;
            }
            for (size_t i = head; i < queue.size(); ++i) {
                UopDyn &u = rob_[queue[i]];
                if (u.dispatched)
                    continue;
                const UopSpec &spec = *u.spec;
                if (spec.div_occupancy > 0 && div_busy_[p] > cycle_)
                    continue;
                bool ready = true;
                const int32_t *srcs = operands_.data() + u.srcs;
                for (int k = 0; k < u.num_srcs; ++k) {
                    if (effectiveReady(srcs[k], spec.domain) > cycle_) {
                        ready = false;
                        break;
                    }
                }
                if (!ready)
                    continue;
                // Dispatch.
                u.dispatched = true;
                activity_ = true;
                int64_t max_done = cycle_ + 1;
                for (size_t w = 0; w < u.num_dsts; ++w) {
                    int lat = spec.writeLatency(w, u.slow);
                    size_t value = static_cast<size_t>(u.dsts) + w;
                    value_ready_[value] = cycle_ + lat;
                    value_domain_[value] = static_cast<uint8_t>(spec.domain);
                    max_done = std::max(
                        max_done, cycle_ + static_cast<int64_t>(lat));
                }
                max_done = std::max(
                    max_done,
                    cycle_ + static_cast<int64_t>(spec.latency));
                u.complete = max_done;
                ++counters_.port_uops[static_cast<size_t>(p)];
                --waiting_[p];
                --rs_count_;
                if (spec.div_occupancy > 0) {
                    int occ = u.slow && spec.div_occupancy_slow > 0
                                  ? spec.div_occupancy_slow
                                  : spec.div_occupancy;
                    div_busy_[p] = cycle_ + occ;
                }
                // Mark as drained if at the head.
                if (i == head)
                    ++head;
                break; // one µop per port per cycle
            }
            // Advance head past dispatched entries.
            while (head < queue.size() && rob_[queue[head]].dispatched)
                ++head;
        }
    }

    // ---- retire ------------------------------------------------------
    void
    retire()
    {
        int retired = 0;
        while (retire_head_ < rob_.size() &&
               retired < info_.retire_width) {
            UopDyn &u = rob_[retire_head_];
            if (u.complete < 0 || u.complete > cycle_)
                break;
            --instr_uops_left_[static_cast<size_t>(u.instr_idx)];
            ++retire_head_;
            ++retired;
            activity_ = true;
        }
        // In-order instruction retirement: an instruction is retired
        // once all its µops are (fused branches contribute zero µops
        // and retire together with their producer).
        while (retire_cursor_ < total_ &&
               instr_uops_left_[retire_cursor_] == 0) {
            ++counters_.instrs_retired;
            activity_ = true;
            auto it = std::lower_bound(marker_set_.begin(),
                                       marker_set_.end(),
                                       retire_cursor_);
            if (it != marker_set_.end() && *it == retire_cursor_) {
                counters_.cycles = cycle_;
                result_.snapshots[static_cast<size_t>(
                    it - marker_set_.begin())] = counters_;
            }
            ++retire_cursor_;
        }
    }

    // ---- idle-cycle skip ---------------------------------------------
    /**
     * Nothing dispatched, issued, renamed, or retired this cycle, so
     * every blocked µop waits on a purely time-based condition: a
     * source value becoming ready (plus bypass), the divider freeing
     * up, or the oldest ROB entry completing. Until the earliest such
     * threshold no architectural state can change, so jumping the
     * clock there is exact. With no finite threshold the simulation
     * is genuinely deadlocked; fall through to normal stepping and
     * let the max_cycles guard fire as before.
     */
    void
    skipIdleCycles()
    {
        int64_t next = kNotReady;
        if (retire_head_ < rob_.size()) {
            const UopDyn &u = rob_[retire_head_];
            if (u.complete > cycle_)
                next = std::min(next, u.complete);
        }
        for (int p = 0; p < info_.num_ports; ++p) {
            const auto &queue = bound_[static_cast<size_t>(p)];
            for (size_t i = bound_head_[static_cast<size_t>(p)];
                 i < queue.size(); ++i) {
                const UopDyn &u = rob_[queue[i]];
                if (u.dispatched)
                    continue;
                const UopSpec &spec = *u.spec;
                if (spec.div_occupancy > 0 && div_busy_[p] > cycle_)
                    next = std::min(next, div_busy_[p]);
                const int32_t *srcs = operands_.data() + u.srcs;
                for (int k = 0; k < u.num_srcs; ++k) {
                    int64_t r = effectiveReady(srcs[k], spec.domain);
                    if (r > cycle_ && r < kNotReady)
                        next = std::min(next, r);
                }
            }
        }
        if (next < kNotReady && next - 1 > cycle_)
            cycle_ = next - 1;
    }

    // ---- steady-state fast-forward -----------------------------------
    /**
     * Canonical form of value @p v: what any future read of it can
     * observe. 0 if it is ready for every consumer; its remaining
     * latency and domain if it is dispatched but still in flight; its
     * distance from the newest value id if its producer has not
     * dispatched yet (ids are allocated in program order).
     */
    int64_t
    canonicalValue(int32_t v) const
    {
        int64_t ready = value_ready_[static_cast<size_t>(v)];
        if (ready >= kNotReady)
            return static_cast<int64_t>(value_ready_.size() -
                                        static_cast<size_t>(v)) *
                       4 +
                   2;
        if (ready + info_.bypass_delay <= cycle_)
            return 0;
        return ((ready - cycle_) * 8 +
                value_domain_[static_cast<size_t>(v)]) *
                   4 +
               1;
    }

    /** A µop in flight: when it can retire if it has dispatched (or
     *  needs no port), else everything its dispatch reads, its spec as
     *  the distance from @p spec, the previous one encoded. Its
     *  instruction is implied: the µops in flight are in program order
     *  and encodeState lists each in-flight instruction's count. */
    void
    encodeUop(const UopDyn &u, intptr_t &spec, std::string &w) const
    {
        if (u.spec == nullptr || u.dispatched) {
            appendVarint(w, std::max<int64_t>(0, u.complete - cycle_) * 2);
            return;
        }
        appendVarint(w, ((u.slow ? 1 : 0) | ((u.port + 1) << 1)) * 2 + 1);
        const auto here = reinterpret_cast<intptr_t>(u.spec);
        appendVarint(w, here - spec);
        spec = here;
        appendVarint(w, u.num_srcs);
        appendVarint(w, u.num_dsts);
        for (int k = 0; k < u.num_srcs; ++k)
            appendVarint(w, canonicalValue(operands_[u.srcs + k]));
        appendVarint(w, static_cast<int64_t>(value_ready_.size()) - u.dsts);
    }

    /** Scalars of the state, relative like encodeState: equal states
     *  have equal summaries, so most snapshots skip encodeState. */
    void
    summarize(std::array<int64_t, kSummaryWords> &w) const
    {
        const int64_t ni = static_cast<int64_t>(next_instr_);
        w[0] = static_cast<int64_t>((next_instr_ - body_begin_) %
                                    body_size_);
        w[1] = serializer_in_flight_ < 0 ? 0 : ni - serializer_in_flight_;
        w[2] = dirty_upper_ ? 1 : 0;
        w[3] = options_.mov_elim_period > 0
                   ? static_cast<int64_t>(
                         mov_elim_counter_ %
                         static_cast<uint64_t>(options_.mov_elim_period))
                   : 0;
        w[4] = rs_count_;
        w[5] = ni - static_cast<int64_t>(retire_cursor_);
        w[6] = static_cast<int64_t>(pending_uops_.size() - pending_head_);
        w[7] = static_cast<int64_t>(rob_.size() - retire_head_);
        w[8] = static_cast<int64_t>(mem_value_.size());
        for (size_t p = 0; p < kMaxPorts; ++p) {
            int64_t *port = &w[9 + 5 * p];
            std::fill(port, port + 5, 0);
            if (p >= static_cast<size_t>(info_.num_ports))
                continue;
            const auto &queue = bound_[p];
            port[0] = waiting_[p];
            port[1] = std::max<int64_t>(0, div_busy_[p] - cycle_);
            port[2] = static_cast<int64_t>(queue.size() - bound_head_[p]);
            if (port[2] > 0) {
                port[3] = static_cast<int64_t>(queue[bound_head_[p]] -
                                               retire_head_);
                port[4] = static_cast<int64_t>(queue.back() - retire_head_);
            }
        }
    }

    /**
     * Everything a future cycle can read beyond the summary, relative
     * to cycle_ and next_instr_, so that two states equal up to a shift
     * of the clock and of the stream position encode to equal bytes.
     */
    void
    encodeState(std::string &w) const
    {
        w.clear();
        for (int p = 0; p < info_.num_ports; ++p) {
            const auto &queue = bound_[static_cast<size_t>(p)];
            for (size_t i = bound_head_[static_cast<size_t>(p)];
                 i < queue.size(); ++i)
                appendVarint(w, static_cast<int64_t>(queue[i] - retire_head_));
        }
        for (int32_t v : unit_value_)
            appendVarint(w, canonicalValue(v));
        for (const auto &[tag, v] : mem_value_) {
            appendVarint(w, tag);
            appendVarint(w, canonicalValue(v));
        }
        for (int32_t v : temp_value_)
            appendVarint(w, canonicalValue(v));
        for (size_t i = retire_cursor_; i < next_instr_; ++i)
            appendVarint(w, instr_uops_left_[i]);
        intptr_t spec = 0;
        for (size_t i = pending_head_; i < pending_uops_.size(); ++i)
            encodeUop(pending_uops_[i], spec, w);
        for (size_t i = retire_head_; i < rob_.size(); ++i)
            encodeUop(rob_[i], spec, w);
    }

    static uint64_t
    hashSummary(const std::array<int64_t, kSummaryWords> &w)
    {
        uint64_t h = 0x9e3779b97f4a7c15ull;
        for (int64_t x : w) {
            h = (h ^ static_cast<uint64_t>(x)) * 0xff51afd7ed558ccdull;
            h ^= h >> 32;
        }
        return h;
    }

    /** The next snapshot is due at the next stride boundary. */
    void
    scheduleSnapshot()
    {
        next_snapshot_ = next_instr_ + snapshot_stride_ -
                         (next_instr_ - body_begin_) % snapshot_stride_;
    }

    /**
     * At the first cycle of a snapshot stride: snapshot the state, and
     * if it repeats an earlier snapshot of this run, jump over whole
     * periods of the repetition. A state is encoded in full only once
     * its summary repeats, so a steady state is found one period after
     * its summaries start to repeat.
     */
    void
    fastForward()
    {
        if (next_instr_ >= body_end_) {
            next_snapshot_ = std::numeric_limits<size_t>::max();
            return;
        }
        scheduleSnapshot();
        const size_t taken = snapshots_taken_++;
        StateSnapshot &snap = snapshots_[taken % kSnapshotSlots];
        summarize(snap.summary);
        snap.summary_hash = hashSummary(snap.summary);
        snap.encoded = false;
        snap.next_instr = next_instr_;
        snap.cycle = cycle_;
        snap.counters = counters_;
        const size_t older = std::min(taken, kSnapshotSlots - 1);
        for (size_t back = 1; back <= older; ++back) {
            const StateSnapshot &old =
                snapshots_[(taken - back) % kSnapshotSlots];
            if (old.summary_hash != snap.summary_hash ||
                old.summary != snap.summary)
                continue;
            if (!snap.encoded) {
                encodeState(snap.state);
                snap.encoded = true;
            }
            if (old.encoded && old.state == snap.state) {
                jump(old);
                return;
            }
        }
    }

    /**
     * The state repeats @p old shifted by one period: `period` stream
     * positions (whole body copies, equal phase) and `dt` cycles. The
     * same body instructions lie ahead of both, so the run from here
     * repeats the run from @p old shifted by one period, again and
     * again while body copies remain; jump over m such periods.
     */
    void
    jump(const StateSnapshot &old)
    {
        const auto period = static_cast<int64_t>(next_instr_ -
                                                 old.next_instr);
        const int64_t dt = cycle_ - old.cycle;
        const auto ni = static_cast<int64_t>(next_instr_);
        const auto rc = static_cast<int64_t>(retire_cursor_);
        // At least one full period and the epilogue stay to simulate.
        int64_t m = (static_cast<int64_t>(body_end_) - 1 - ni) / period - 1;
        // No marker may retire inside the skipped span.
        auto marker = std::lower_bound(marker_set_.begin(),
                                       marker_set_.end(), retire_cursor_);
        if (marker != marker_set_.end())
            m = std::min(m, (static_cast<int64_t>(*marker) - rc) / period);
        // The clock stays within the limits the plain run checks.
        int64_t limit = options_.max_cycles;
        if (options_.cycle_budget > 0)
            limit = std::min(limit, options_.cycle_budget);
        m = std::min(m, (limit - cycle_) / dt);
        if (m < 1)
            return;

        const int64_t shift = m * period;
        const int64_t later = m * dt;
        // Values still in flight for some consumer complete later;
        // values ready for all and values not yet produced stay.
        live_values_.assign(unit_value_.begin(), unit_value_.end());
        for (const auto &entry : mem_value_)
            live_values_.push_back(entry.second);
        live_values_.insert(live_values_.end(), temp_value_.begin(),
                            temp_value_.end());
        auto shiftUops = [&](std::vector<UopDyn> &uops, size_t head) {
            for (size_t i = head; i < uops.size(); ++i) {
                UopDyn &u = uops[i];
                if (u.spec != nullptr && !u.dispatched)
                    live_values_.insert(live_values_.end(),
                                        operands_.begin() + u.srcs,
                                        operands_.begin() + u.srcs +
                                            u.num_srcs);
                u.instr_idx += static_cast<int32_t>(shift);
                if (u.complete >= 0)
                    u.complete += later;
            }
        };
        shiftUops(pending_uops_, pending_head_);
        shiftUops(rob_, retire_head_);
        std::sort(live_values_.begin(), live_values_.end());
        live_values_.erase(
            std::unique(live_values_.begin(), live_values_.end()),
            live_values_.end());
        for (int32_t v : live_values_) {
            int64_t &ready = value_ready_[static_cast<size_t>(v)];
            if (ready < kNotReady && ready + info_.bypass_delay > cycle_)
                ready += later;
        }
        for (int64_t &busy : div_busy_)
            busy += later;

        // Instructions in flight move with the stream; the skipped ones
        // have retired.
        auto left = instr_uops_left_.begin();
        std::copy_backward(left + rc, left + ni, left + ni + shift);
        std::fill(left + rc, left + rc + shift, 0);
        if (serializer_in_flight_ >= 0)
            serializer_in_flight_ += static_cast<int32_t>(shift);
        next_instr_ += static_cast<size_t>(shift);
        retire_cursor_ += static_cast<size_t>(shift);

        // Move elimination only reads mov_elim_counter_ modulo its
        // period, which the snapshots matched, so it stays as it is.
        cycle_ += later;
        for (int p = 0; p < kMaxPorts; ++p) {
            auto i = static_cast<size_t>(p);
            counters_.port_uops[i] +=
                m * (counters_.port_uops[i] - old.counters.port_uops[i]);
        }
        counters_.uops_issued +=
            m * (counters_.uops_issued - old.counters.uops_issued);
        counters_.uops_eliminated +=
            m * (counters_.uops_eliminated - old.counters.uops_eliminated);
        counters_.instrs_retired +=
            m * (counters_.instrs_retired - old.counters.instrs_retired);
        skipped_copies_ += shift / static_cast<int64_t>(body_size_);
        scheduleSnapshot();
    }

    // ---- members -----------------------------------------------------
    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    const SimOptions &options_;
    const DecodedKernel &decoded_;
    const int body_reps_;
    const size_t total_; ///< virtual stream length
    const UopPlan *const plans_;
    const PlanRef *const refs_;

    int64_t cycle_ = 0;
    size_t next_instr_ = 0;
    int32_t serializer_in_flight_ = -1;
    bool dirty_upper_ = false;
    bool activity_ = false;
    uint64_t mov_elim_counter_ = 0;

    std::vector<size_t> &marker_set_;
    std::vector<int64_t> &value_ready_;
    std::vector<uint8_t> &value_domain_;
    std::vector<int32_t> &unit_value_;
    std::vector<std::pair<int, int32_t>> &mem_value_;
    std::vector<int32_t> &temp_value_;
    std::vector<int32_t> &operands_;

    std::vector<UopDyn> &pending_uops_;
    size_t pending_head_ = 0;
    std::vector<UopDyn> &rob_;
    size_t retire_head_ = 0;
    size_t retire_cursor_ = 0;
    int rs_count_ = 0;
    std::vector<std::vector<size_t>> &bound_;
    std::vector<size_t> &bound_head_;
    std::vector<int> &waiting_;
    std::vector<int64_t> &div_busy_;
    std::vector<int> &instr_uops_left_;

    const size_t body_begin_; ///< stream position of the first copy
    const size_t body_size_;
    const size_t body_end_; ///< stream position past the last copy
    std::vector<StateSnapshot> &snapshots_;
    std::vector<int32_t> &live_values_;
    /** Stream positions between snapshots (whole copies). */
    size_t snapshot_stride_ = 0;
    size_t next_snapshot_ = std::numeric_limits<size_t>::max();
    size_t snapshots_taken_ = 0;
    int64_t skipped_copies_ = 0;

    PerfCounters counters_;
    RunResult result_;
};

/**
 * Prefix-free serializer behind Pipeline::appendContextKey and
 * appendBodyKey: integers are zigzag LEB128 varints and every list
 * carries its length, so distinct programs never produce the same
 * bytes. µops are written as their rename plans, the very operands
 * the core renames from.
 */
class KeyWriter
{
  public:
    KeyWriter(const DecodedKernel &decoded, std::string &out)
        : decoded_(decoded), out_(out)
    {
    }

    void
    num(int64_t v)
    {
        appendVarint(out_, v);
    }

    /** A µop plan: the spec fields the core reads, then sources,
     *  merges and destinations. */
    void
    uop(const UopPlan &plan)
    {
        const UopSpec &spec = *plan.spec;
        num(spec.ports);
        num(spec.latency);
        num(spec.latency_slow);
        num(static_cast<int64_t>(spec.domain));
        num(spec.div_occupancy);
        num(spec.div_occupancy_slow);
        num(static_cast<int64_t>(spec.write_extra.size()));
        for (int extra : spec.write_extra)
            num(extra);
        num(plan.num_srcs);
        num(plan.num_merges);
        num(plan.num_dsts);
        const PlanRef *ref = decoded_.refs().data() + plan.first;
        for (int k = 0; k < plan.num_srcs + plan.num_merges + plan.num_dsts;
             ++k, ++ref) {
            num(static_cast<int64_t>(ref->kind));
            num(ref->value);
        }
    }

    /** A fused-pair plan index (-1: none). */
    void
    fused(int32_t plan)
    {
        num(plan >= 0 ? 1 : 0);
        if (plan >= 0)
            uop(decoded_.plans()[static_cast<size_t>(plan)]);
    }

    /** One decode entry; @p with_next false leaves out fused_next. */
    void
    entry(const DecodedInstr &d, bool with_next = true)
    {
        num((d.rename_direct ? 1 : 0) | (d.try_mov_elim ? 2 : 0) |
            (d.serializing ? 4 : 0) | (d.slow ? 8 : 0));
        num(static_cast<int64_t>(d.ymm_effect));
        num(d.elim_dst_unit);
        num(d.elim_src_unit);
        num(d.num_uops);
        for (uint32_t i = 0; i < d.num_uops; ++i)
            uop(decoded_.plans()[d.plan + i]);
        if (with_next)
            fused(d.fused_next);
        fused(d.fused_wrap);
    }

  private:
    const DecodedKernel &decoded_;
    std::string &out_;
};

} // namespace

Pipeline::Pipeline(const uarch::TimingDb &timing, SimOptions options)
    : timing_(timing), info_(uarchInfo(timing.arch())),
      options_(options), scratch_(std::make_unique<PipelineScratch>())
{
}

Pipeline::~Pipeline() = default;

RunResult
Pipeline::run(const isa::Kernel &kernel,
              const std::vector<size_t> &markers) const
{
    static const isa::Kernel kEmpty;
    DecodedKernel decoded(timing_, kEmpty, kernel, kEmpty);
    return run(decoded, 1, markers);
}

RunResult
Pipeline::run(const DecodedKernel &decoded, int body_reps,
              const std::vector<size_t> &markers) const
{
    panicIf(decoded.bodySize() > 0 && body_reps < 1,
            "Pipeline::run: body_reps must be >= 1");
    if (decoded.bodySize() == 0)
        body_reps = 0;
    Core core(timing_, info_, options_, decoded, body_reps, markers,
              *scratch_);
    RunResult result = core.run();
    g_copies_run.fetch_add(static_cast<uint64_t>(body_reps),
                           std::memory_order_relaxed);
    if (result.skipped_copies > 0)
        g_copies_skipped.fetch_add(
            static_cast<uint64_t>(result.skipped_copies),
            std::memory_order_relaxed);
    return result;
}

CopyTotals
copyTotals()
{
    return {g_copies_run.load(std::memory_order_relaxed),
            g_copies_skipped.load(std::memory_order_relaxed)};
}

void
Pipeline::appendContextKey(const DecodedKernel &decoded,
                           std::string &out) const
{
    KeyWriter key(decoded, out);
    // The machine model: every UArchInfo field Core reads (the rest
    // — fusion, zero-idiom elimination — is already folded into the
    // decode entries).
    key.num(info_.num_ports);
    key.num(info_.issue_width);
    key.num(info_.retire_width);
    key.num(info_.rob_size);
    key.num(info_.rs_size);
    key.num(info_.bypass_delay);
    key.num(info_.sse_avx_transition ? 1 : 0);
    // skip_idle is cycle-exact and stays out of the key.
    key.num(options_.mov_elim_period);
    key.num(options_.cycle_budget);
    key.num(options_.max_cycles);

    const std::vector<DecodedInstr> &pattern = decoded.pattern();
    const size_t prologue = decoded.prologueSize();
    key.num(static_cast<int64_t>(prologue));
    key.num(static_cast<int64_t>(decoded.epilogueSize()));
    for (size_t i = 0; i < prologue; ++i)
        key.entry(pattern[i], i + 1 < prologue);
    for (size_t i = prologue + decoded.bodySize(); i < pattern.size(); ++i)
        key.entry(pattern[i]);
}

void
Pipeline::appendBodyKey(const DecodedKernel &decoded, std::string &out)
{
    KeyWriter key(decoded, out);
    const std::vector<DecodedInstr> &pattern = decoded.pattern();
    const size_t prologue = decoded.prologueSize();
    key.num(static_cast<int64_t>(decoded.bodySize()));
    for (size_t i = prologue; i < prologue + decoded.bodySize(); ++i)
        key.entry(pattern[i]);
    if (prologue > 0)
        key.fused(pattern[prologue - 1].fused_next);
}

} // namespace uops::sim
