/**
 * @file
 * Crash-consistency verification: compare the memory a crashed-and-
 * recovered run produced against a golden (uninterrupted) run over
 * all program-visible addresses.
 */

#ifndef CWSP_CORE_CONSISTENCY_CHECKER_HH
#define CWSP_CORE_CONSISTENCY_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "interp/machine_state.hh"
#include "ir/ir.hh"

namespace cwsp::core {

/** One divergent word. */
struct Divergence
{
    Addr addr = 0;
    Word expected = 0;
    Word actual = 0;
    std::string global; ///< enclosing global's name, if any
};

/** Result of one comparison. */
struct CheckResult
{
    bool consistent = true;
    std::vector<Divergence> divergences; ///< capped at 16 entries
    /**
     * Every divergent word, including the ones the sample above
     * dropped — a 16-word and a 4096-word divergence are different
     * failures and campaign reports must tell them apart.
     */
    std::uint64_t totalDivergences = 0;
};

/**
 * Compare @p actual to @p expected over every global of @p module
 * (the program-visible durable state). Stack, checkpoint slots, and
 * log areas are scratch and excluded. Compares page by page
 * (SparseMemory::diffRange) and never writes either image's page
 * cache, so one @p expected may serve concurrent checks.
 */
CheckResult checkGlobals(const ir::Module &module,
                         const interp::SparseMemory &expected,
                         const interp::SparseMemory &actual);

} // namespace cwsp::core

#endif // CWSP_CORE_CONSISTENCY_CHECKER_HH
