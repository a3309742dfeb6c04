#include "block_predict.h"

#include "support/status.h"

namespace uops::sim {

BlockPredictor::BlockPredictor(const isa::InstrDb &instrs,
                               uarch::UArch arch,
                               BlockPredictOptions options)
    : timing_(instrs, arch),
      harness_(timing_, options.harness,
               SimOptions{.cycle_budget = options.cycle_budget})
{
}

Measurement
BlockPredictor::predict(const isa::Kernel &body) const
{
    fatalIf(body.empty(), "predict: empty kernel");
    const uarch::UArchInfo &gen = info();
    for (const isa::InstrInstance &inst : body) {
        fatalIf(!gen.supports(*inst.variant), "predict: ",
                inst.variant->name(), " is not available on ",
                gen.short_name);
    }
    return harness_.measure(body);
}

} // namespace uops::sim
