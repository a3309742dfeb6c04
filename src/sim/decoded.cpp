#include "sim/decoded.h"

#include <algorithm>

#include "support/status.h"

namespace uops::sim {

using isa::InstrInstance;
using isa::Kernel;
using isa::OperandSpec;
using isa::OpKind;
using isa::RegClass;
using uarch::Domain;
using uarch::OpRef;
using uarch::UopSpec;

namespace {

/** Merge dependency a write acquires on its destination's old value
 *  (Unit: none): always for narrow GPR writes, and for legacy-SSE XMM
 *  writes while the upper YMM state is dirty on uarches with the
 *  SSE/AVX transition. */
PlanRef::Kind
mergeKind(const InstrInstance &inst, const OpRef &ref)
{
    if (ref.kind != OpRef::Kind::Operand)
        return PlanRef::Kind::Unit;
    const OperandSpec &op = inst.variant->operand(ref.index);
    if (op.kind != OpKind::Reg)
        return PlanRef::Kind::Unit;
    RegClass cls = op.reg_class;
    if (cls == RegClass::Gpr8 || cls == RegClass::Gpr8High ||
        cls == RegClass::Gpr16)
        return PlanRef::Kind::Narrow;
    if (cls == RegClass::Xmm && !inst.variant->attrs().is_avx)
        return PlanRef::Kind::LegacySse;
    return PlanRef::Kind::Unit;
}

/** PlanRef::Kind::Flags bits of a flag mask. */
int32_t
flagBits(const isa::FlagMask &mask)
{
    return (mask.cf ? 1 : 0) | (mask.af ? 2 : 0) | (mask.spazo ? 4 : 0);
}

} // namespace

DecodedKernel::DecodedKernel(const uarch::TimingDb &timing,
                             const Kernel &prologue, const Kernel &body,
                             const Kernel &epilogue)
    : timing_(timing), info_(uarch::uarchInfo(timing.arch())),
      prologue_size_(prologue.size()), body_size_(body.size())
{
    pattern_.reserve(prologue.size() + body.size() + epilogue.size());
    for (const InstrInstance &inst : prologue)
        pattern_.push_back(decodeOne(inst));
    for (const InstrInstance &inst : body)
        pattern_.push_back(decodeOne(inst));
    for (const InstrInstance &inst : epilogue)
        pattern_.push_back(decodeOne(inst));

    // Successor of each pattern position within one pass of the
    // stream: next element of the same segment, else the first
    // element of the following non-empty segment.
    auto successor = [&](size_t pos) -> const InstrInstance * {
        if (pos + 1 < pattern_.size())
            return pattern_[pos + 1].inst;
        return nullptr;
    };
    for (size_t pos = 0; pos < pattern_.size(); ++pos) {
        if (const InstrInstance *next = successor(pos))
            pattern_[pos].fused_next = fusedPlan(pattern_[pos], *next);
    }
    // Copy-wrapping pair: last body instruction -> first body
    // instruction of the next copy.
    if (body_size_ > 0) {
        DecodedInstr &last = pattern_[prologue_size_ + body_size_ - 1];
        last.fused_wrap =
            fusedPlan(last, *pattern_[prologue_size_].inst);
    }
}

DecodedKernel::Ref
DecodedKernel::at(size_t v, int body_reps) const
{
    if (v < prologue_size_)
        return {&pattern_[v], false};
    size_t rel = v - prologue_size_;
    size_t unrolled = body_size_ * static_cast<size_t>(body_reps);
    if (rel < unrolled) {
        size_t offset = rel % body_size_;
        bool last_copy =
            rel / body_size_ == static_cast<size_t>(body_reps) - 1;
        return {&pattern_[prologue_size_ + offset],
                offset == body_size_ - 1 && !last_copy};
    }
    return {&pattern_[prologue_size_ + body_size_ + (rel - unrolled)],
            false};
}

DecodedInstr
DecodedKernel::decodeOne(const InstrInstance &inst)
{
    DecodedInstr d;
    d.inst = &inst;
    const uarch::TimingInfo &timing = timing_.timing(*inst.variant);
    const std::vector<UopSpec> &uops = timing_.uopsFor(inst);
    bool same_reg = uarch::TimingDb::sameRegOperands(inst);
    bool idiom = same_reg && timing.dep_breaking_same_reg;
    bool zero_elim =
        same_reg && timing.zero_idiom && info_.zero_idiom_elim;
    d.rename_direct = uops.empty() || zero_elim;
    d.try_mov_elim = timing.mov_elim && uops.size() == 1;
    d.serializing = inst.variant->attrs().is_serializing;
    d.slow = inst.div_class == isa::DivValueClass::Slow;

    // Dependency-breaking idiom: the read of this unit is skipped.
    int skip_unit = -1;
    if (idiom) {
        const auto &expl = inst.variant->explicitOperands();
        skip_unit = isa::regUnit(inst.regOf(expl[0]));
    }
    d.plan = static_cast<uint32_t>(plans_.size());
    d.num_uops = static_cast<uint32_t>(uops.size());
    for (const UopSpec &spec : uops)
        planUop(inst, spec, skip_unit, true);
    if (d.try_mov_elim) {
        const auto &expl = inst.variant->explicitOperands();
        d.elim_dst_unit = isa::regUnit(inst.regOf(expl[0]));
        d.elim_src_unit = isa::regUnit(inst.regOf(expl[1]));
    }

    if (inst.variant->mnemonic() == "VZEROUPPER") {
        d.ymm_effect = DecodedInstr::YmmEffect::ClearUpper;
    } else if (inst.variant->attrs().is_avx) {
        for (size_t i = 0; i < inst.variant->numOperands(); ++i) {
            const OperandSpec &op = inst.variant->operand(i);
            if (op.kind == OpKind::Reg && op.written &&
                op.reg_class == RegClass::Ymm)
                d.ymm_effect = DecodedInstr::YmmEffect::DirtyUpper;
        }
    }
    return d;
}

bool
DecodedKernel::canFuse(const InstrInstance &prod,
                       const InstrInstance &branch) const
{
    if (!info_.fuses_cmp_jcc)
        return false;
    const isa::InstrVariant &pv = *prod.variant;
    const isa::InstrVariant &bv = *branch.variant;
    if (!bv.attrs().is_branch || bv.attrs().is_cf_reg)
        return false;
    int bf = bv.flagsOperand();
    if (bf < 0 ||
        !bv.operand(static_cast<size_t>(bf)).flags_read.any())
        return false;
    if (pv.memOperand() >= 0)
        return false;
    int pf = pv.flagsOperand();
    if (pf < 0)
        return false;
    const OperandSpec &flags = pv.operand(static_cast<size_t>(pf));
    if (!flags.flags_written.any() || flags.flags_read.any())
        return false;
    // Zero idioms are handled at rename, never fused.
    if (uarch::TimingDb::sameRegOperands(prod) &&
        timing_.timing(pv).dep_breaking_same_reg)
        return false;
    if (timing_.uopsFor(prod).size() != 1)
        return false;
    const std::string &m = pv.mnemonic();
    if (m == "CMP" || m == "TEST")
        return true;
    bool alu_like = m == "ADD" || m == "SUB" || m == "AND" ||
                    m == "INC" || m == "DEC";
    return alu_like && info_.fuses_alu_jcc;
}

int32_t
DecodedKernel::fusedPlan(const DecodedInstr &prod,
                         const InstrInstance &branch)
{
    if (!canFuse(*prod.inst, branch))
        return -1;
    const UopSpec &prod_uop = timing_.uopsFor(*prod.inst).front();
    const UopSpec &branch_uop = timing_.uopsFor(branch).front();

    auto spec = std::make_unique<UopSpec>(prod_uop);
    spec->ports = branch_uop.ports; // executes on the branch unit
    spec->latency = 1;
    spec->domain = Domain::Gpr;
    fused_specs_.push_back(std::move(spec));
    auto index = static_cast<int32_t>(plans_.size());
    planUop(*prod.inst, *fused_specs_.back(), -1, false);
    return index;
}

void
DecodedKernel::planUop(const InstrInstance &inst, const UopSpec &spec,
                       int skip_unit, bool merges)
{
    UopPlan plan;
    plan.spec = &spec;
    plan.first = static_cast<uint32_t>(refs_.size());
    for (const OpRef &r : spec.reads) {
        if (r.kind == OpRef::Kind::Operand) {
            const OperandSpec &op = inst.variant->operand(r.index);
            if (op.kind == OpKind::Flags) {
                for (isa::ArchUnit u : op.flags_read.units())
                    refs_.push_back({PlanRef::Kind::Unit, u});
                continue;
            }
        }
        PlanRef src = resolve(inst, r, false);
        if (r.kind == OpRef::Kind::Operand && src.value == skip_unit)
            continue; // dependency-breaking idiom
        refs_.push_back(src);
    }
    size_t srcs = refs_.size() - plan.first;
    // Partial-register / dirty-upper merges add a read of the written
    // register's previous value.
    for (const OpRef &w : spec.writes) {
        PlanRef::Kind kind = mergeKind(inst, w);
        if (!merges || kind == PlanRef::Kind::Unit)
            continue;
        isa::ArchUnit u = isa::regUnit(inst.regOf(w.index));
        if (u != skip_unit)
            refs_.push_back({kind, u});
    }
    size_t merged = refs_.size() - plan.first - srcs;
    for (const OpRef &w : spec.writes)
        refs_.push_back(resolve(inst, w, true));

    panicIf(srcs > UINT8_MAX || merged > UINT8_MAX ||
                spec.writes.size() > UINT8_MAX,
            "rename plan: too many operands in ", inst.variant->name());
    plan.num_srcs = static_cast<uint8_t>(srcs);
    plan.num_merges = static_cast<uint8_t>(merged);
    plan.num_dsts = static_cast<uint8_t>(spec.writes.size());
    for (size_t i = plan.first; i < refs_.size(); ++i)
        if (refs_[i].kind == PlanRef::Kind::Temp)
            num_temps_ = std::max(
                num_temps_, static_cast<size_t>(refs_[i].value) + 1);
    plans_.push_back(plan);
}

PlanRef
DecodedKernel::resolve(const InstrInstance &inst, const OpRef &ref,
                       bool write) const
{
    switch (ref.kind) {
      case OpRef::Kind::Operand: {
        const OperandSpec &op = inst.variant->operand(ref.index);
        if (op.kind == OpKind::Reg)
            return {PlanRef::Kind::Unit,
                    isa::regUnit(inst.regOf(ref.index))};
        panicIf(op.kind != OpKind::Flags || !write,
                "rename plan: unexpected operand kind for ",
                inst.variant->name());
        return {PlanRef::Kind::Flags, flagBits(op.flags_written)};
      }
      case OpRef::Kind::MemAddr:
        panicIf(write, "rename plan: write to an address in ",
                inst.variant->name());
        return {PlanRef::Kind::Unit,
                isa::regUnit(inst.ops[ref.index].mem.base)};
      case OpRef::Kind::MemData:
        return {PlanRef::Kind::Mem, inst.ops[ref.index].mem.tag};
      case OpRef::Kind::Temp:
        panicIf(ref.index < 0, "rename plan: negative temporary in ",
                inst.variant->name());
        return {PlanRef::Kind::Temp, ref.index};
    }
    panic("rename plan: unreachable");
}

} // namespace uops::sim
