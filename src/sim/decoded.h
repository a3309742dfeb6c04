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
 * Lifetime: a DecodedKernel borrows the three kernels; they must
 * outlive it. The fused-pair µop specs are owned by the template.
 */

#ifndef UOPS_SIM_DECODED_H
#define UOPS_SIM_DECODED_H

#include <memory>
#include <vector>

#include "isa/kernel.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

/** Per-instance decode results reused across unrolled copies. */
struct DecodedInstr
{
    const isa::InstrInstance *inst = nullptr;
    const std::vector<uarch::UopSpec> *uops = nullptr;

    bool rename_direct = false; ///< no execution µops (NOP / zero idiom)
    bool try_mov_elim = false;  ///< move-elimination candidate
    bool serializing = false;   ///< drains the pipeline
    bool slow = false;          ///< divider slow-value class

    /** Dependency-breaking idiom: unit whose read is skipped (-1: none). */
    int skip_unit = -1;

    /** Precomputed rename units of an eliminated move's operands. */
    int elim_dst_unit = -1;
    int elim_src_unit = -1;

    /** SSE/AVX transition effect of a non-eliminated instruction. */
    enum class YmmEffect : uint8_t { None, ClearUpper, DirtyUpper };
    YmmEffect ymm_effect = YmmEffect::None;

    /** Fused-pair µop when this instruction macro-fuses with its
     *  successor (nullptr: no fusion). See file comment. */
    const uarch::UopSpec *fused_next = nullptr;
    const uarch::UopSpec *fused_wrap = nullptr;
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
    DecodedInstr decodeOne(const isa::InstrInstance &inst) const;

    /** Macro-fusion eligibility (moved here from the pipeline; the
     *  decision is static per instance pair). */
    bool canFuse(const isa::InstrInstance &prod,
                 const isa::InstrInstance &branch) const;

    /** Build (and own) the fused-pair spec, nullptr when not fusible. */
    const uarch::UopSpec *fusedSpec(const isa::InstrInstance &prod,
                                    const isa::InstrInstance &branch);

    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    std::vector<DecodedInstr> pattern_; ///< prologue · body · epilogue
    std::vector<std::unique_ptr<uarch::UopSpec>> fused_specs_;
    size_t prologue_size_ = 0;
    size_t body_size_ = 0;
};

} // namespace uops::sim

#endif // UOPS_SIM_DECODED_H
