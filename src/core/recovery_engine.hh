/**
 * @file
 * The power-failure recovery protocol (Section VII): after the crash
 * state is computed (undo logs already replayed), each core (1) jumps
 * to the resume region's recovery slice to rebuild its live-in
 * registers from checkpoint slots/immediates, then (2) resumes
 * execution from the beginning of that region.
 *
 * Hardened path: every LoadSlot is validated against the stamped
 * checkpoint-slot image (CrashState::ckptSlotImage) so a slot write
 * the media silently dropped is detected instead of resuming on stale
 * live-ins; the caller degrades such a failure to a full restart.
 */

#ifndef CWSP_CORE_RECOVERY_ENGINE_HH
#define CWSP_CORE_RECOVERY_ENGINE_HH

#include "core/crash_injection.hh"
#include "core/whole_system_sim.hh"
#include "interp/interpreter.hh"

namespace cwsp::core {

/** Outcome of preparing one core's resume. */
enum class ResumeStatus {
    Resumed,     ///< slice ran, core sits at the resume boundary
    NeedRestart, ///< restart-class resume point: caller runs start()
    SlotFault,   ///< a LoadSlot read a stale checkpoint slot
};

/**
 * Execute the recovery slice of @p slice on @p interp's top frame:
 * LoadSlot ops read the frame's checkpoint slots from @p nvm (which
 * is also the interpreter's memory after recovery), SetImm/Apply ops
 * rebuild derived values. When @p slot_image is given, every LoadSlot
 * is validated against the stamped slot image; a mismatch aborts the
 * slice and returns false (stale checkpoint slot detected).
 */
bool runRecoverySlice(
    interp::Interpreter &interp, const ir::RecoverySlice &slice,
    const std::map<Addr, SlotImageEntry> *slot_image = nullptr);

/**
 * Prepare @p interp (already bound to the recovered memory) to resume
 * at @p rp using @p recording's control snapshots, then run the
 * recovery slice. For restart points the caller must call start()
 * instead.
 *
 * @param trace optional sink for RecoverySlice/RecoveryResume events,
 *        stamped at @p when (the crash instant; recovery itself is
 *        untimed).
 * @param boundary_sink commit sink for the step over the region
 *        boundary on the resumeAfterAtomic path. Timed nested-crash
 *        epochs pass their recording sink so the re-entered region is
 *        opened in the scheme; the default (nullptr) steps silently,
 *        which is what the untimed completion phase wants.
 * @param slot_image stamped checkpoint-slot image for stale-slot
 *        detection (nullptr skips validation).
 */
ResumeStatus prepareResume(
    interp::Interpreter &interp, const ResumePoint &rp,
    const RecordingView &recording, const ir::Module &module,
    sim::TraceBuffer *trace = nullptr, Tick when = 0,
    interp::CommitSink *boundary_sink = nullptr,
    const std::map<Addr, SlotImageEntry> *slot_image = nullptr);

} // namespace cwsp::core

#endif // CWSP_CORE_RECOVERY_ENGINE_HH
