/**
 * @file
 * Trace-driven crash-point enumeration. Random crash ticks (the
 * pre-campaign test strategy) mostly land in the middle of plain
 * execution; the states that actually stress the recovery protocol
 * cluster around persistence-protocol transitions. This layer times
 * a program once, replayed from its commit stream where it has one
 * and interpreted otherwise, with a collector fed by a region- and
 * MC-only trace ring, and turns the event stream into a deduplicated
 * set of *semantically interesting* crash points:
 *
 *  - just after a region opens (RegionBegin: minimal persisted
 *    prefix, resume must fall back to an older region or restart),
 *  - just after a region's own stores fully persist (RegionPersist:
 *    the resume-point frontier moves),
 *  - halfway through a scheme drain stall (MidDrain: the persist
 *    path is saturated, many stores in flight),
 *  - just after an undo-log append (UndoAppend: log-before-accept
 *    edge — the record is durable, the guarded store may not be),
 *  - inside a recovery window (MidRecovery: produced by the campaign
 *    when it builds nested schedules, never by enumeration).
 */

#ifndef CWSP_FAULT_CRASH_POINTS_HH
#define CWSP_FAULT_CRASH_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "sim/trace.hh"

namespace cwsp::fault {

/** Why a crash tick is interesting. */
enum class CrashPointKind : std::uint8_t {
    RegionBegin,   ///< right after a region boundary commits
    RegionPersist, ///< right after a region's stores persist
    MidDrain,      ///< midway through a scheme drain stall
    UndoAppend,    ///< right after an undo record lands
    MidRecovery,   ///< inside a recovery window (nested schedules)
    AtomicCommit,  ///< right after an atomic RMW commits (the
                   ///< concurrent campaign's interleaving boundaries)
};

inline constexpr std::size_t kNumCrashPointKinds = 6;

/** Stable name ("region_begin", "mid_drain", ...). */
const char *crashPointKindName(CrashPointKind kind);

/** Parse a stable name back; false when unknown. */
bool parseCrashPointKind(const std::string &name, CrashPointKind &out);

/** One candidate crash instant. */
struct CrashPoint
{
    Tick tick = 0;
    CrashPointKind kind = CrashPointKind::RegionBegin;
    std::uint64_t arg = 0; ///< region id / word addr of the trigger
};

/**
 * Trace sink that harvests crash points from a live event stream.
 * Attach to a no-crash run (the sink of a trace ring accepting at
 * least kMask, or WholeSystemSim::attachTraceSink), then call
 * points(). Sinks see the full stream before the ring, so harvesting
 * is immune to ring overwrite.
 */
class CrashPointCollector : public sim::TraceSink
{
  public:
    /** The trace categories onTraceEvent() harvests from. */
    static constexpr std::uint32_t kMask =
        sim::kTraceRegion | sim::kTraceMc;

    void onTraceEvent(const sim::TraceEvent &event) override;

    /**
     * Deduplicated points, sorted by tick: of the points harvested
     * at one tick, the earliest harvested wins. @p max_per_kind > 0
     * evenly subsamples each kind down to that many points (keeping
     * first and last), so campaign cost scales with the knob rather
     * than with program length. @p max_tick > 0 drops points at or
     * past that cycle *before* subsampling — the MC drains past the
     * last core cycle, so tail events can sit outside the crashable
     * run.
     */
    std::vector<CrashPoint> points(std::size_t max_per_kind = 0,
                                   Tick max_tick = 0) const;

    std::size_t rawCount() const { return raw_.size(); }
    void clear() { raw_.clear(); }

  private:
    std::vector<CrashPoint> raw_;
};

/** Result of enumerating one (module, config, threads) combination. */
struct CrashPointSet
{
    std::vector<CrashPoint> points; ///< sorted by tick, in-run only
    Tick runCycles = 0;             ///< full-run cycle count
    /** Committed instructions of the run, summed over cores. */
    std::uint64_t runInstrs = 0;
    /** What drove the run: a commit-stream replay or the interpreter. */
    core::ExecSource source = core::ExecSource::Interpret;
};

/**
 * Time @p module under @p config once, with a collector fed by a
 * CrashPointCollector::kMask trace ring, and return the harvested
 * points (ticks clamped to the run: a crash at or past the final
 * cycle never fires). The run is a plain timed run (the collector
 * only observes), so runCycles and runInstrs are the fault-free
 * golden run's: the campaign takes them from here instead of timing
 * the program again. @p stream, the commit stream of threads[0],
 * drives the run where WholeSystemSim::run's source choice allows it
 * (bit-identical points and counts, without interpretation); the run
 * stops at @p max_instrs steps. Schemes that form no regions
 * (baseline, psp) yield no points.
 */
CrashPointSet enumerateCrashPoints(
    const ir::Module &module, const core::SystemConfig &config,
    const std::vector<core::ThreadSpec> &threads,
    std::size_t max_per_kind = 8,
    std::uint64_t max_instrs = 2'000'000'000,
    const core::CommitStream *stream = nullptr);

} // namespace cwsp::fault

#endif // CWSP_FAULT_CRASH_POINTS_HH
