/**
 * @file
 * Compiled commit-stream replay (the simulator's fast path).
 *
 * A program's committed-instruction sequence is a pure function of
 * (module, entry, args): the persistence scheme and timing config
 * only account costs, they never change which instructions commit or
 * what they read and write. recordCommitStream() therefore runs the
 * functional interpreter once and compiles the commit sequence into a
 * flat, replayable stream. WholeSystemSim can then drive any scheme's
 * timing model straight from the stream — bit-identical results, no
 * interpretation — and crash sweeps can replay the pre-crash epoch
 * instead of re-interpreting it for every crash point.
 *
 * Two encodings keep replay cheap:
 *
 *  - Constant-cost batching. Alu and Branch commits cost exactly one
 *    cycle and a bare CallRet (a Ret, or a Call with no argument
 *    spills) exactly two, independent of scheme and config, and each
 *    is a whole single-commit interpreter step. Runs of such steps
 *    collapse into one batch op that advances the core's clock and
 *    instruction count arithmetically. Crash cuts inside a batch stay
 *    exact because every batched step has the same fixed cost.
 *
 *  - Flattened boundary snapshots. The control snapshot the crash
 *    path needs at each region boundary is stored as a flat Frame
 *    run, so a crash replay can rebuild the RecordingBundle's
 *    snapshot window without any live interpreter.
 *
 *  - Recorded cache outcomes. Cache tag state depends only on the
 *    access sequence and the tag geometry, never on timing, so the
 *    recording also walks one geometry's tags (mem::Hierarchy::walk)
 *    and keeps each Load, Store and Atomic op's outcome: one byte,
 *    plus the dirty victim lines the timing half needs. Replay under
 *    that geometry feeds them to mem::Hierarchy::apply and never
 *    touches a tag; under another geometry it walks tags live.
 *
 * Replay drives only the timing models: it keeps no memory image,
 * because nothing reads one after a replayed run or epoch.
 */

#ifndef CWSP_CORE_COMMIT_STREAM_HH
#define CWSP_CORE_COMMIT_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/interpreter.hh"
#include "ir/ir.hh"
#include "mem/hierarchy.hh"
#include "sim/types.hh"

namespace cwsp::core {

/** One compiled, replayable commit sequence for (module, entry, args). */
class CommitStream
{
  public:
    /** Op kinds beyond interp::CommitKind (stored in Op::kind). */
    static constexpr std::uint8_t kBatch1 = 250; ///< run of 1-cycle steps
    static constexpr std::uint8_t kBatch2 = 251; ///< run of 2-cycle steps

    /** Op::flags bits. */
    static constexpr std::uint8_t kFlagNewStep = 1; ///< starts a step
    static constexpr std::uint8_t kFlagCkpt = 2;    ///< checkpoint store

    /** One commit event, or one batch of constant-cost steps. */
    struct Op
    {
        Addr addr = 0;
        Word value = 0;
        std::uint32_t func = ir::kNoFunc;
        /** Boundary: static region id. Batch: step count. */
        std::uint32_t aux = 0;
        std::uint8_t kind = 0; ///< interp::CommitKind or kBatchN
        std::uint8_t flags = 0;
    };

    /** Span of `frames` holding one region-boundary snapshot. */
    struct SnapRef
    {
        std::uint32_t begin = 0;
        std::uint32_t count = 0;
    };

    std::vector<Op> ops;
    /** Flattened boundary snapshots; snapRefs[k] = k-th Boundary op. */
    std::vector<interp::Frame> frames;
    std::vector<SnapRef> snapRefs;

    /**
     * Tag outcomes of the Load, Store and Atomic ops, in op order,
     * walked on a hierarchy of tag geometry `geometry`
     * (mem::tagGeometryKey), and the victim lines they carry.
     */
    std::vector<mem::TagOutcome> outcomes;
    std::vector<Addr> victims;
    std::string geometry;

    /** Identity (replay refuses a stream for a different program). */
    const ir::Module *module = nullptr;
    std::string entry;
    std::vector<Word> args;

    /** Functional outcome of the recorded run. */
    Word returnValue = 0;
    std::uint64_t steps = 0;   ///< top-level interpreter steps
    std::uint64_t commits = 0; ///< commit events before batching

    /** True when this stream replays (module, entry, args) exactly. */
    bool
    matches(const ir::Module &m, const std::string &e,
            const std::vector<Word> &a) const
    {
        return module == &m && entry == e && args == a;
    }

    /** Approximate resident size (stream-cache budgeting). */
    std::size_t
    memoryBytes() const
    {
        return ops.capacity() * sizeof(Op) +
               frames.capacity() * sizeof(interp::Frame) +
               snapRefs.capacity() * sizeof(SnapRef) +
               outcomes.capacity() * sizeof(mem::TagOutcome) +
               victims.capacity() * sizeof(Addr) + sizeof(*this);
    }
};

/**
 * Run @p entry functionally once and compile its commit sequence,
 * with the cache outcomes of @p geometry's tag walk (only its tag
 * geometry matters). Fatal when the run exceeds @p max_instrs steps
 * (same budget semantics as WholeSystemSim::run). @p expected_instrs,
 * when nonzero, pre-sizes the recording slabs (use
 * workloads::estimatedInstrs for profile-derived hints).
 *
 * The recording run is a complete functional run, so it also yields
 * every golden fact of the program: the return value
 * (CommitStream::returnValue), the device output (its Io ops, see
 * core::collectIoStream(const CommitStream &)) and, when
 * @p final_memory is given, the final memory image, moved into it.
 */
CommitStream recordCommitStream(const ir::Module &module,
                                const std::string &entry,
                                const std::vector<Word> &args,
                                const mem::HierarchyConfig &geometry,
                                std::uint64_t max_instrs =
                                    2'000'000'000,
                                std::uint64_t expected_instrs = 0,
                                interp::SparseMemory *final_memory =
                                    nullptr);

/** recordCommitStream() with mem::defaultHierarchy()'s outcomes. */
CommitStream recordCommitStream(const ir::Module &module,
                                const std::string &entry,
                                const std::vector<Word> &args,
                                std::uint64_t max_instrs =
                                    2'000'000'000,
                                std::uint64_t expected_instrs = 0);

} // namespace cwsp::core

#endif // CWSP_CORE_COMMIT_STREAM_HH
