/**
 * @file
 * Power-failure modeling: given the persistence record of a run and a
 * crash instant, compute the durable NVM state (persisted prefix,
 * then undo-log reversal of speculative updates) and each core's
 * recovery point — the oldest unpersisted region (Section III-D).
 *
 * The extended entry point additionally seeds NVM media faults
 * (fault::FaultPlan) into the reconstructed undo-log area and runs
 * the hardened recovery scan, which validates every record's CRC and
 * degrades gracefully instead of replaying garbage:
 *
 *   1. torn tail dropped  — the area's globally newest record fails
 *      validation: log-before-accept means its guarded store never
 *      admitted, so the tail is skipped and recovery stays exact;
 *   2. region restart     — a corrupt record confined to a resume
 *      region's *data* log is skipped; the region re-executes and,
 *      being antidependence-free, rewrites the address before any
 *      read of it;
 *   3. full restart       — corruption anywhere else (checkpoint-slot
 *      records, non-resume regions) poisons state recovery cannot
 *      reconstruct: the durable image is discarded and every core
 *      restarts from program entry on pristine memory.
 */

#ifndef CWSP_CORE_CRASH_INJECTION_HH
#define CWSP_CORE_CRASH_INJECTION_HH

#include <map>
#include <span>
#include <vector>

#include "arch/scheme.hh"
#include "core/recording.hh"
#include "fault/fault_model.hh"
#include "interp/machine_state.hh"
#include "sim/types.hh"

namespace cwsp::core {

/** Per-core recovery point. */
struct ResumePoint
{
    bool hasWork = false;  ///< false: core fully persisted & finished
    bool restart = false;  ///< resume at program start (entry region)
    /**
     * The resume region's atomic already persisted: re-enter the
     * region but skip the atomic, reloading its destination register
     * from the post-atomic checkpoint slot (atomics are not
     * idempotent; see StoreRecord::isAtomic).
     */
    bool resumeAfterAtomic = false;
    RegionId region = 0;
    ir::FuncId func = ir::kNoFunc;
    ir::StaticRegionId staticRegion = ir::kNoStaticRegion;
};

/** One applied undo-replay write, in replay (newest-first) order. */
struct ReplayStep
{
    RegionId region = 0;
    Addr addr = 0;
    Word before = 0; ///< durable value the replay overwrote
    Word after = 0;  ///< the record's logged old value
};

/**
 * Last stamped write to one checkpoint slot: the MC stamps 16-byte
 * slot writes so recovery can tell a slot the media silently dropped
 * (memory still holds `prev`) from the durable value (`value`).
 */
struct SlotImageEntry
{
    Word value = 0;
    Word prev = 0;
};

/** Durable state after the failure plus recovery metadata. */
struct CrashState
{
    interp::SparseMemory nvm; ///< post-revert durable memory
    std::vector<ResumePoint> resume; ///< per core
    std::uint64_t persistedStores = 0;
    std::uint64_t revertedStores = 0;
    std::uint64_t liveLogRegions = 0;
    /**
     * Device operations released from the I/O redo buffers before the
     * failure (their region persisted, Section VIII); unreleased ones
     * are discarded and re-issued by the recovery re-execution.
     */
    std::vector<arch::IoRecord> releasedIo;
    /**
     * Degradation step 3: undetectably-reconstructable corruption was
     * found. `nvm` is pristine (zeroed) and every core's resume point
     * is a program restart — including cores that had already
     * finished, whose outputs lived in the discarded image.
     */
    bool fullRestart = false;
    /**
     * The undo-replay writes in applied order. Lets the caller
     * reconstruct the durable image mid-replay (a nested failure
     * landing inside the replay window) and re-verify that a second
     * full replay pass converges to the same image (idempotence).
     */
    std::vector<ReplayStep> replaySteps;
    /** Stamped checkpoint-slot writes persisted before the crash. */
    std::map<Addr, SlotImageEntry> ckptSlotImage;
};

/** Extended inputs for epoch-based / fault-seeded crash analysis. */
struct CrashComputeOptions
{
    /**
     * Durable memory at the start of the recorded run (empty =
     * pristine), moved into the crash state's image. Nested-crash
     * epochs move the previous epoch's recovered image in, so the
     * persisted prefix applies on top of it.
     */
    interp::SparseMemory baseNvm;
    /** Media faults to seed into the reconstructed log area. */
    const fault::FaultPlan *faults = nullptr;
    /** Ordinal of this failure within its schedule. */
    std::uint32_t crashIndex = 0;
    /** Detection/degradation counters to fill (may be nullptr). */
    fault::FaultStats *stats = nullptr;
    /**
     * Cores that finished in an earlier epoch and did not run in this
     * recording: they get no resume work (unless a full restart
     * discards their outputs along with the rest of the image).
     */
    std::vector<bool> coreDone;
    /**
     * Cores that entered this recording by *resuming* a region of an
     * earlier epoch. For such a core the recording's first dynamic
     * region is not the program's entry region: its live-in
     * checkpoint slots were spilled (and possibly already reclaimed)
     * inside this recording, so it resumes like any later region —
     * provided every pre-boundary store has been acknowledged.
     */
    std::vector<bool> coreResumed;
    sim::TraceBuffer *trace = nullptr;
};

/**
 * Compute the crash state at @p crash_tick from a recording's view
 * (core/recording.hh): a from-scratch epoch's whole log, or a
 * checkpoint's prefix of its capture pass's log.
 *
 * @param stores   persist records of the run (commit order).
 * @param regions  region-begin events of the run.
 * @param num_cores core count.
 * @param program_finished_at per-core completion cycle (kTickNever if
 *        the core was still running when recording stopped).
 * @param trace    optional sink for CrashInject/UndoRollback events.
 */
CrashState computeCrashState(
    Tick crash_tick, StoreLogView stores,
    std::span<const arch::RegionEvent> regions,
    std::uint32_t num_cores,
    const std::vector<Tick> &program_finished_at,
    std::span<const arch::IoRecord> io = {},
    sim::TraceBuffer *trace = nullptr);

/** Extended form: epoch base image, media faults, hardened scan. */
CrashState computeCrashState(
    Tick crash_tick, StoreLogView stores,
    std::span<const arch::RegionEvent> regions,
    std::uint32_t num_cores,
    const std::vector<Tick> &program_finished_at,
    std::span<const arch::IoRecord> io, CrashComputeOptions opts);

/**
 * Whether an undo replay re-entered after a nested failure converges:
 * the interrupted pass applied the first @p k of @p steps over the
 * image that @p durable is once every step is applied, so it left
 * @p durable with steps k.. rewound, newest first; a full second pass
 * must give @p durable back. Only replayed addresses can differ, so
 * only they are compared.
 */
bool undoReplayConverges(const interp::SparseMemory &durable,
                         const std::vector<ReplayStep> &steps,
                         std::size_t k);

} // namespace cwsp::core

#endif // CWSP_CORE_CRASH_INJECTION_HH
