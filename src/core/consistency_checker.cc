#include "core/consistency_checker.hh"

namespace cwsp::core {

CheckResult
checkGlobals(const ir::Module &module,
             const interp::SparseMemory &expected,
             const interp::SparseMemory &actual)
{
    CheckResult result;
    for (const auto &g : module.globals()) {
        expected.diffRange(
            actual, g.base, g.base + g.sizeBytes,
            [&](Addr a, Word e, Word v) {
                result.consistent = false;
                ++result.totalDivergences;
                if (result.divergences.size() < 16) {
                    result.divergences.push_back(
                        Divergence{a, e, v, g.name});
                }
                return true;
            });
    }
    return result;
}

} // namespace cwsp::core
