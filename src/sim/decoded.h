/**
 * @file
 * Decoded-µop kernel templates (the measurement hot path's front end).
 *
 * Algorithm 2 runs every benchmark body twice, with n = 10 and n = 110
 * copies; the old harness materialized a fresh ~120-instruction Kernel
 * per run and the simulator re-derived the per-instruction decode
 * (µop list selection, zero-idiom/move-elimination classification,
 * macro-fusion eligibility, serializing attribute, SSE/AVX transition
 * effect) once per unrolled copy. All of those decisions are a pure
 * function of the instruction *instance*, not of its position in the
 * unrolled stream, so a DecodedKernel computes them exactly once per
 * body instruction and the pipeline unrolls *logically*: the virtual
 * instruction stream
 *
 *     prologue · body × reps · epilogue
 *
 * is indexed arithmetically, never materialized.
 *
 * Macro-fusion is the only decision that looks across instruction
 * boundaries. Each pattern entry therefore carries up to two
 * precomputed fused-pair specs: one for its successor within the
 * stream (`fused_next`, e.g. body[i] -> body[i+1], or the last body
 * instruction into the epilogue on the final copy) and one for the
 * copy-wrapping pair (`fused_wrap`, last body instruction -> first
 * body instruction of the next copy). The pipeline picks the variant
 * matching the virtual position, reproducing the materialized
 * kernel's fusion decisions bit for bit.
 *
 * Rename plans: which architectural state a µop reads and writes is
 * also a pure function of the instance, so decoding resolves every
 * µop's operand references once, into a UopPlan over PlanRefs:
 *
 *  - sources: rename units (flag groups expanded to one unit each,
 *    the dependency-breaking idiom's register dropped), memory
 *    location tags (full width: the implicit stack tag is -1 and
 *    assembler displacements reach 2^20) and temporaries;
 *  - merges: the destination units whose old value a write must
 *    merge with, tagged narrow (partial GPR) or legacy SSE (only
 *    while the upper YMM state is dirty);
 *  - destinations: one per spec write, a unit, a flag-group set, a
 *    memory tag or a temporary.
 *
 * The pipeline renames from the plan without looking at operands
 * again, and Pipeline's program key serializes the same plan, so
 * there is exactly one resolver.
 *
 * Lifetime: a DecodedKernel borrows the three kernels; they must
 * outlive it. The fused-pair µop specs are owned by the template.
 */

#ifndef UOPS_SIM_DECODED_H
#define UOPS_SIM_DECODED_H

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/kernel.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

/** One operand reference of a µop, resolved at decode time. */
struct PlanRef
{
    enum class Kind : uint8_t {
        Unit,      ///< rename unit @c value (isa::ArchUnit)
        Flags,     ///< destination only: flag groups, bit 0 CF, 1 AF, 2 SPAZO
        Mem,       ///< memory location tag @c value
        Temp,      ///< intra-instruction temporary @c value
        Narrow,    ///< merge: partial GPR write of unit @c value
        LegacySse, ///< merge: legacy-SSE write of unit @c value
    };

    Kind kind = Kind::Unit;
    int32_t value = 0;
};

/** One µop of a rename plan: its spec and its resolved operands,
 *  num_srcs sources, then num_merges merges, then num_dsts
 *  destinations (parallel to spec->writes), stored contiguously from
 *  DecodedKernel::refs()[first]. */
struct UopPlan
{
    const uarch::UopSpec *spec = nullptr;
    uint32_t first = 0;
    uint8_t num_srcs = 0;
    uint8_t num_merges = 0;
    uint8_t num_dsts = 0;
};

/** Per-instance decode results reused across unrolled copies. */
struct DecodedInstr
{
    const isa::InstrInstance *inst = nullptr;

    /** Rename plan: UopPlans [plan, plan + num_uops) of
     *  DecodedKernel::plans(). */
    uint32_t plan = 0;
    uint32_t num_uops = 0;

    bool rename_direct = false; ///< no execution µops (NOP / zero idiom)
    bool try_mov_elim = false;  ///< move-elimination candidate
    bool serializing = false;   ///< drains the pipeline
    bool slow = false;          ///< divider slow-value class

    /** Precomputed rename units of an eliminated move's operands. */
    int elim_dst_unit = -1;
    int elim_src_unit = -1;

    /** SSE/AVX transition effect of a non-eliminated instruction. */
    enum class YmmEffect : uint8_t { None, ClearUpper, DirtyUpper };
    YmmEffect ymm_effect = YmmEffect::None;

    /** Index in DecodedKernel::plans() of the fused-pair µop when this
     *  instruction macro-fuses with its successor (-1: no fusion). See
     *  file comment. */
    int32_t fused_next = -1;
    int32_t fused_wrap = -1;
};

/**
 * A benchmark run template: decoded prologue, body and epilogue, with
 * the body logically repeatable any number of times.
 */
class DecodedKernel
{
  public:
    DecodedKernel(const uarch::TimingDb &timing,
                  const isa::Kernel &prologue, const isa::Kernel &body,
                  const isa::Kernel &epilogue);

    DecodedKernel(const DecodedKernel &) = delete;
    DecodedKernel &operator=(const DecodedKernel &) = delete;

    size_t prologueSize() const { return prologue_size_; }
    size_t bodySize() const { return body_size_; }
    size_t
    epilogueSize() const
    {
        return pattern_.size() - prologue_size_ - body_size_;
    }

    /** Decode entries of prologue · body · epilogue, in order. */
    const std::vector<DecodedInstr> &pattern() const { return pattern_; }

    /** µop plans of every decode entry and fused pair. */
    const std::vector<UopPlan> &plans() const { return plans_; }

    /** Operand references of every UopPlan. */
    const std::vector<PlanRef> &refs() const { return refs_; }

    /** One more than the largest temporary any plan names. */
    size_t numTemps() const { return num_temps_; }

    /** Virtual stream length for @p body_reps body copies. */
    size_t
    totalSize(int body_reps) const
    {
        return prologue_size_ + body_size_ * static_cast<size_t>(body_reps) +
               epilogueSize();
    }

    /** One virtual stream position. */
    struct Ref
    {
        const DecodedInstr *instr = nullptr;
        /** True for a body-final instruction followed by another body
         *  copy: fusion must use the wrapping variant. */
        bool wraps = false;
    };

    /** Decode entry at virtual index @p v of a @p body_reps-copy run. */
    Ref at(size_t v, int body_reps) const;

  private:
    DecodedInstr decodeOne(const isa::InstrInstance &inst);

    /** Macro-fusion eligibility (moved here from the pipeline; the
     *  decision is static per instance pair). */
    bool canFuse(const isa::InstrInstance &prod,
                 const isa::InstrInstance &branch) const;

    /** Build (and own) the fused-pair spec and plan it; the plan index,
     *  or -1 when not fusible. */
    int32_t fusedPlan(const DecodedInstr &prod,
                      const isa::InstrInstance &branch);

    /** Append the plan of @p spec as executed by @p inst. Merges are
     *  left out for a fused pair, which never merges. */
    void planUop(const isa::InstrInstance &inst,
                 const uarch::UopSpec &spec, int skip_unit,
                 bool merges);

    /** Resolve one reference of @p inst for the plan. */
    PlanRef resolve(const isa::InstrInstance &inst,
                    const uarch::OpRef &ref, bool write) const;

    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    std::vector<DecodedInstr> pattern_; ///< prologue · body · epilogue
    std::vector<UopPlan> plans_;
    std::vector<PlanRef> refs_;
    size_t num_temps_ = 0;
    std::vector<std::unique_ptr<uarch::UopSpec>> fused_specs_;
    size_t prologue_size_ = 0;
    size_t body_size_ = 0;
};

} // namespace uops::sim

#endif // UOPS_SIM_DECODED_H
