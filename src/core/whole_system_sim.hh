/**
 * @file
 * WholeSystemSim: the library's main entry point. Wires a compiled
 * module, the functional interpreter(s), the memory hierarchy, and a
 * persistence scheme together; runs programs with cycle accounting;
 * optionally records persistence events, injects a power failure, and
 * drives the recovery protocol.
 */

#ifndef CWSP_CORE_WHOLE_SYSTEM_SIM_HH
#define CWSP_CORE_WHOLE_SYSTEM_SIM_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/scheme.hh"
#include "core/commit_stream.hh"
#include "core/config.hh"
#include "core/recording.hh"
#include "fault/fault_model.hh"
#include "interp/interpreter.hh"
#include "ir/ir.hh"
#include "sim/arena.hh"
#include "sim/trace.hh"

namespace cwsp::core {

/**
 * Recovery is a timed phase (unlike execution it is not simulated
 * instruction-by-instruction): a nested power failure can land inside
 * it. The window of one recovery pass is
 *   boot + replayedRecords * perRecord + sliceOps * perOp
 * cycles; a failure before the window closes re-enters recovery from
 * scratch (Section VII's protocol is idempotent).
 */
namespace recovery_timing {
/** Power-restore and log-scan overhead before the replay starts. */
constexpr Tick kBootCycles = 64;
/** Undo-record replay: one log read plus one data write. */
constexpr Tick kCyclesPerReplayRecord = 4;
/** One recovery-slice op (slot load or ALU apply). */
constexpr Tick kCyclesPerSliceOp = 2;
} // namespace recovery_timing

/**
 * Phases of one recovery pass, in order. Their durations tile the
 * recovery window exactly (same discipline as the span builder's
 * execute/drain/order-wait tiling): detect + scan + undo replay +
 * slice re-execution == the window, with resume a zero-duration end
 * marker. Battery-backed schemes only detect and scan (their window
 * is the boot constant); undo/slice phases are zero there.
 */
enum class RecoveryPhase : std::uint8_t
{
    Detect = 0,     ///< power-restore + failure detection
    Scan = 1,       ///< log scan + record classification
    UndoReplay = 2, ///< undo-record replay (revert speculation)
    SliceReexec = 3, ///< recovery-slice re-execution
    Resume = 4,     ///< end marker (zero duration)
};

constexpr std::size_t kNumRecoveryPhases = 5;

const char *recoveryPhaseName(RecoveryPhase p);

/** Phase decomposition of one recovery window. */
struct RecoveryBreakdown
{
    Tick window = 0;   ///< == sum of phase durations
    Tick phase[kNumRecoveryPhases] = {0, 0, 0, 0, 0};
    std::uint64_t replayRecords = 0; ///< undo records replayed
    std::uint64_t sliceOps = 0;      ///< recovery-slice operations
};

/** What one core should execute. */
struct ThreadSpec
{
    std::string entry = "main";
    std::vector<Word> args;

    bool operator==(const ThreadSpec &) const = default;
};

/** Aggregate outcome of one simulated run. */
struct RunResult
{
    Tick cycles = 0; ///< max over cores
    std::uint64_t instructions = 0;
    std::vector<Word> returnValues; ///< per core
    double meanRegionInstrs = 0.0;
    double meanWbOccupancy = 0.0;
    std::uint64_t wpqHits = 0;
    std::uint64_t nvmReads = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t dramCacheHits = 0;
    std::uint64_t dramCacheMisses = 0;
    std::uint64_t pbFullStalls = 0;
    std::uint64_t rbtFullStalls = 0;
    std::uint64_t wbPersistDelays = 0;

    /** WPQ hits per million instructions (Fig. 8). */
    double
    wpqHitsPerMi() const
    {
        return instructions == 0
                   ? 0.0
                   : 1e6 * static_cast<double>(wpqHits) /
                         static_cast<double>(instructions);
    }
};

/** What drives a run segment to its stop tick. */
enum class ExecSource : std::uint8_t
{
    Interpret, ///< the functional interpreter, one per core
    Stream,    ///< a recorded commit stream (core/commit_stream.hh)
    Fork,      ///< a restored SimCheckpoint (core/sim_checkpoint.hh)
};

/** Why a faster source offered for a run was not used. */
enum class SourceRefusal : std::uint8_t
{
    None,            ///< the fastest offered source ran (or none offered)
    Module,          ///< checkpoint or stream of another module
    Config,          ///< checkpoint captured under another SystemConfig
    Threads,         ///< another thread set, entry or arguments
    Tick,            ///< checkpoint captured for another crash tick
    TraceSink,       ///< an external sink must see the skipped prefix
    TraceGeometry,   ///< attached trace ring differs from the captured
    SamplerGeometry, ///< attached sampler differs from the captured
    Multicore,       ///< a stream drives one core only
};

/** SourceRefusal values (Multicore is the last). */
constexpr std::size_t kNumSourceRefusals =
    static_cast<std::size_t>(SourceRefusal::Multicore) + 1;

/** Snake-case name of @p r ("none", "trace_sink", ...). */
const char *sourceRefusalName(SourceRefusal r);

/**
 * The nonzero (name, n) pairs @p counts visits through its forEach,
 * in that order: "42 missing, 3 config"; "none" if there are none.
 */
template <typename Counts>
std::string
describeCounts(const Counts &counts)
{
    std::string out;
    counts.forEach([&](const char *name, std::uint64_t n) {
        if (n != 0)
            out += (out.empty() ? "" : ", ") + std::to_string(n) + " " +
                   name;
    });
    return out.empty() ? "none" : out;
}

/** One count per SourceRefusal reason. */
struct RefusalCounts
{
    std::array<std::uint64_t, kNumSourceRefusals> n{};

    void note(SourceRefusal r) { ++n[static_cast<std::size_t>(r)]; }

    /** Visit (sourceRefusalName(r), n) for every reason r but None:
     *  a fixed order and key set. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t r = 1; r < kNumSourceRefusals; ++r)
            f(sourceRefusalName(static_cast<SourceRefusal>(r)), n[r]);
    }

    /** The nonzero counts, "3 config, 1 tick"; "none" if none. */
    std::string describe() const { return describeCounts(*this); }
};

/** Outcome of a crash-and-recover run. */
struct CrashRunResult
{
    RunResult result;          ///< post-recovery completion
    bool crashed = false;      ///< false: program finished before X
    Tick crashTick = 0;
    std::uint64_t persistedStores = 0;
    std::uint64_t revertedStores = 0;   ///< undo-log records replayed
    std::uint64_t reexecutedInstrs = 0; ///< recovery re-execution work
    /**
     * Instructions whose work the failure destroyed: committed after
     * the resume points but before the crash (the paper's Section
     * IX-E recovery-cost argument — typically tens per core, bounded
     * by RBT depth x region length).
     */
    std::uint64_t lostWork = 0;
    std::vector<RegionId> resumeRegions; ///< per core (0 = restart)
    /** What drove the first epoch to the first failure, and why the
     *  fastest source offered to runWithCrashes() was refused. */
    ExecSource source = ExecSource::Interpret;
    SourceRefusal refusal = SourceRefusal::None;
    /**
     * The complete device-output stream across the failure: the
     * operations the I/O redo buffers released before the crash
     * followed by those the recovery re-execution re-issued. For a
     * correct run this equals the uninterrupted stream exactly once,
     * in order (verified by test_io_persistence).
     */
    std::vector<arch::IoRecord> ioStream;
    /**
     * Fault-campaign accounting: crashes injected (nested ones
     * included), media faults detected, and how far down the
     * degradation ladder recovery had to go.
     */
    fault::FaultStats faults;
    /**
     * Cycles each recovery pass occupied (one entry per crash that
     * led to a recovery phase, re-entries folded into their crash).
     * Lets callers aim a nested failure inside a specific window.
     */
    std::vector<Tick> recoveryWindows;
    /**
     * Phase tiling of each window, parallel to recoveryWindows
     * (breakdown[i].window == recoveryWindows[i] and its phases sum
     * to it exactly).
     */
    std::vector<RecoveryBreakdown> recoveryBreakdowns;
    /**
     * First-failure forensics for the durable-linearizability checker
     * (populated only when setCaptureFirstCrash(true)): the NVM image
     * recovery reconstructed at the first failure — captured before
     * any fault-plan mutation — plus the pre-crash store log and
     * whether recovery degraded to a full restart (image empty then).
     */
    bool hasFirstCrash = false;
    bool firstFullRestart = false;
    interp::SparseMemory firstDurableImage;
    std::vector<arch::StoreRecord> firstStores;
};

/**
 * Collect the device-output stream of an uninterrupted functional run
 * (golden reference for exactly-once I/O checks).
 */
std::vector<arch::IoRecord>
collectIoStream(const ir::Module &module, const std::string &entry,
                const std::vector<Word> &args);

/**
 * The device-output stream of the run @p stream recorded, read off
 * its Io ops: the records collectIoStream() interprets the program
 * for, without interpreting it.
 */
std::vector<arch::IoRecord> collectIoStream(const CommitStream &stream);

/**
 * Why no commit stream can drive a run of @p threads threads:
 * Multicore (a stream drives core 0 only), or None. Every scheme
 * replays a single-core run, battery-backed ones included: their
 * crash continues the stream. The stream half of WholeSystemSim's
 * source choice; a caller asks it before recording a stream at all.
 */
SourceRefusal streamRefusal(std::size_t threads);

/**
 * Config-derived default sampling cadence: a few persist-path round
 * trips, so consecutive samples of the occupancy gauges can actually
 * differ without drowning the run in samples.
 */
Tick defaultSamplePeriod(const SystemConfig &config);

struct ExecPosition; // core/sim_checkpoint.hh
struct SimCheckpoint;

/** Outcome of a checkpoint-capture run. */
struct CheckpointRun
{
    /** One checkpoint per requested tick, in tick order. */
    std::vector<std::shared_ptr<const SimCheckpoint>> checkpoints;
    /** The run always completes, so it doubles as the golden run. */
    RunResult result;
};

/** The assembled system. */
class WholeSystemSim
{
  public:
    /**
     * @param module  program already compiled with config.compiler
     *                (use compileForWsp / the workload builders).
     * @param config  design point; numCores bounds ThreadSpec count.
     * @param arena   optional externally owned allocation arena for
     *                the hierarchy/scheme state. Each reset() rewinds
     *                (never frees) it, so a caller running many
     *                simulations back-to-back — one live sim per
     *                arena at a time — reuses warm chunks instead of
     *                hitting the heap per construction. Null: the sim
     *                owns a private arena with the same lifecycle.
     *                Panics when @p arena already holds a live sim.
     */
    WholeSystemSim(const ir::Module &module, const SystemConfig &config,
                   sim::SimArena *arena = nullptr);
    ~WholeSystemSim();

    /**
     * Run @p threads (one per core) to completion with timing.
     * @p stream, the commit stream of threads[0], drives the run
     * instead of the interpreter where the source choice allows it
     * (one thread, the same program): its RunResult, component
     * statistics and trace are bit-identical to the interpreted run's.
     * @p source, if given, receives which of the two ran.
     */
    RunResult run(const std::vector<ThreadSpec> &threads,
                  std::uint64_t max_instrs = 2'000'000'000,
                  const CommitStream *stream = nullptr,
                  ExecSource *source = nullptr);

    /** Single-core convenience. */
    RunResult run(const std::string &entry, std::vector<Word> args = {},
                  std::uint64_t max_instrs = 2'000'000'000);

    /**
     * Timed run driven from a compiled commit stream instead of the
     * interpreter: the scheme and hierarchy see the identical commit
     * sequence, so the RunResult, component statistics, and trace
     * output are bit-identical to run() with the stream's (entry,
     * args) — at a fraction of the cost (no interpretation; runs of
     * constant-cost commits retire arithmetically; under the stream's
     * tag geometry the recorded cache outcomes replace the tag walk).
     * Single-threaded programs only (the stream pins core 0): it is
     * run() of the stream's (entry, args), given the stream.
     */
    RunResult runReplay(const CommitStream &stream,
                        std::uint64_t max_instrs = 2'000'000'000);

    /**
     * Run with persistence recording, inject a power failure at
     * @p crash_tick, execute the recovery protocol (Section VII), and
     * complete the program on the recovered state.
     */
    CrashRunResult runWithCrash(const std::vector<ThreadSpec> &threads,
                                Tick crash_tick,
                                std::uint64_t max_instrs = 200'000'000);

    /**
     * Generalized crash run: inject every power failure of
     * @p schedule (ticks[0] absolute, later entries relative to the
     * previous failure — they may land inside the timed recovery
     * window, re-entering recovery mid-undo-replay or mid-slice),
     * seed @p faults into the reconstructed undo logs, run the
     * hardened recovery protocol after each failure, and complete the
     * program functionally after the last one. runWithCrash() is the
     * single-entry special case.
     *
     * Two optional sources skip work without changing a result,
     * statistic, or trace byte (CrashRunResult::source and ::refusal
     * report which one ran):
     *  - @p fork, a checkpoint captured at ticks[0] by
     *    captureCheckpoints() for the same module, SystemConfig and
     *    threads, replaces the pre-crash prefix of the first epoch:
     *    O(tail) instead of O(prefix + tail). Refused on any identity
     *    or tick mismatch, with an external trace sink attached, or
     *    when an attached trace buffer's or sampler's geometry
     *    differs from the captured one.
     *  - @p replay, the compiled commit stream of (entry, args),
     *    drives every epoch that starts from a pristine image (the
     *    first unless forked, and full-restart retries), and applies
     *    the resumed tail of a single fault-free failure. A
     *    battery-backed failure continues execution exactly, so after
     *    one the stream drives every later epoch too, from the crash
     *    instant's cursor with a live tag walk (the crash emptied
     *    every cache), and the final tail is the stream's suffix from
     *    that cursor. Refused for multi-core runs or a stream of
     *    another (module, entry, args). A battery-backed checkpoint
     *    captured from a stream forks only with a stream of its
     *    program.
     * Recovery, and epochs that resume an undo-logged region, always
     * interpret.
     */
    CrashRunResult runWithCrashes(
        const std::vector<ThreadSpec> &threads,
        const fault::CrashSchedule &schedule,
        const fault::FaultPlan &faults = {},
        std::uint64_t max_instrs = 200'000'000,
        const CommitStream *replay = nullptr,
        const SimCheckpoint *fork = nullptr);

    /**
     * Run @p threads to completion with crash recording enabled,
     * capturing a full-fidelity SimCheckpoint at each tick of the
     * sorted @p ticks — each at exactly the instant runWithCrashes()
     * would stop its first epoch for a failure at that tick (the
     * crash-epoch schedule is a prefix of the free-run schedule, so
     * one pass serves every crash point). Ticks at or past program
     * completion capture the final state. The returned RunResult is
     * identical to run()'s, so the capture pass doubles as the golden
     * run of a crash sweep.
     *
     * The pass records one log, and every checkpoint it returns
     * shares it, each reading the prefix its capture instant saw.
     * Recording stops at the last tick.
     *
     * @param replay optional commit stream of (threads[0].entry,
     * args): single-core capture runs are then driven from the stream
     * (same rules as runWithCrashes' replay). Their checkpoints hold
     * no cache tags and carry the stream cursor; interpreted ones
     * carry each running core's exact control state under
     * battery-backed schemes.
     */
    CheckpointRun captureCheckpoints(
        const std::vector<ThreadSpec> &threads,
        const std::vector<Tick> &ticks,
        std::uint64_t max_instrs = 200'000'000,
        const CommitStream *replay = nullptr);

    /**
     * Hint the expected committed-instruction count of upcoming runs,
     * summed over cores: workloads::estimatedInstrs, or the golden
     * run's exact count for a fault-campaign case (GoldenRef::instrs).
     * Only tightens reserve() sizing of the crash-recording logs, to
     * twice the hint; without it they are sized from the replay
     * stream's length, else from the instruction *budget*, a far
     * looser bound (a 200 M budget reserves 1 M store records for a
     * concurrent kernel of ~1,000 instructions). Never affects
     * budgets or results; 0 clears the hint.
     */
    void setExpectedInstrs(std::uint64_t n) { expectedInstrs_ = n; }

    /**
     * Ask the next runWithCrashes() to keep the first failure's
     * durable image and pre-crash store log in the result (see
     * CrashRunResult::hasFirstCrash). Off by default: the image copy
     * is pure overhead for sweeps that don't check linearizability.
     */
    void setCaptureFirstCrash(bool on) { captureFirstCrash_ = on; }

    mem::Hierarchy &hierarchy() { return *hierarchy_; }
    arch::Scheme &scheme() { return *scheme_; }
    const SystemConfig &config() const { return config_; }

    /**
     * Final architectural memory of the last run. Empty after a
     * stream-driven run (runReplay(), or run() given a stream):
     * replay drives only the timing models and keeps no memory image.
     */
    const interp::SparseMemory &memory() const { return *memory_; }

    /**
     * Dump the last run's component statistics (cache hits/misses,
     * WB/PB/RBT stalls, MC admissions, persist traffic) as
     * gem5-style "name value" lines.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Fill @p reg with the last run's component statistics (the same
     * set dumpStats() prints, plus the scheme's histograms), prefixed
     * with @p prefix. Lets callers aggregate many runs into one
     * registry before exporting.
     */
    void fillStats(StatsRegistry &reg,
                   const std::string &prefix = "") const;

    /** Export the last run's statistics as hierarchical JSON. */
    void exportStatsJson(std::ostream &os) const;

    /**
     * Attach an externally-owned trace buffer. The attachment
     * survives the per-run reset (each run() re-propagates it to the
     * freshly built scheme and hierarchy); pass nullptr to detach.
     */
    void attachTrace(sim::TraceBuffer *trace);
    sim::TraceBuffer *trace() const { return trace_; }

    /**
     * Attach an online trace observer (e.g. obs::InvariantMonitor);
     * pass nullptr to detach. The sink sees every event the
     * simulation emits, ring drops included. If no trace buffer is
     * attached yet, a minimal all-category internal buffer is created
     * to drive the sink; an externally attached buffer keeps the sink
     * across attachTrace() calls and per-run resets.
     */
    void attachTraceSink(sim::TraceSink *sink);
    sim::TraceSink *traceSink() const { return sink_; }

    /**
     * Attach an externally-owned counter sampler. Like attachTrace,
     * the attachment survives per-run resets: each reset re-registers
     * the gauge tracks (fixed names and order) and re-binds their
     * probes against the freshly built scheme and hierarchy, keeping
     * accumulated samples. Pass nullptr to detach. Callers wanting a
     * fresh series per run call sampler->clearSamples() themselves.
     */
    void attachSampler(sim::CounterSampler *sampler);
    sim::CounterSampler *sampler() const { return sampler_; }

  private:
    const ir::Module *module_;
    SystemConfig config_;
    /** Private arena used when the caller does not supply one. */
    std::unique_ptr<sim::SimArena> ownArena_;
    sim::SimArena *arena_;
    std::unique_ptr<interp::SparseMemory> memory_;
    std::unique_ptr<mem::Hierarchy> hierarchy_;
    std::unique_ptr<arch::Scheme> scheme_;
    sim::TraceBuffer *trace_ = nullptr;
    sim::TraceSink *sink_ = nullptr;
    /** Internal buffer driving a sink when none is attached. */
    std::unique_ptr<sim::TraceBuffer> ownTrace_;
    sim::CounterSampler *sampler_ = nullptr;
    std::uint64_t expectedInstrs_ = 0;
    bool captureFirstCrash_ = false;

    /** Rebuild hierarchy/scheme state for a fresh run. */
    void reset();

    /** (Re-)register sampler tracks and bind probes to components. */
    void wireSampler();

    RunResult collectStats(const std::vector<Word> &return_values);

    /**
     * The one eligibility check: @p fork (captured for a failure at
     * @p tick) if it describes exactly this run, else @p stream if it
     * can drive @p threads, else interpretation. @p refusal, if given,
     * receives why the fastest offered source was refused.
     */
    ExecSource chooseSource(const std::vector<ThreadSpec> &threads,
                            const CommitStream *stream,
                            const SimCheckpoint *fork, Tick tick,
                            SourceRefusal *refusal = nullptr) const;

    /** Enable crash recording into @p log, reserved for the hint,
     *  else @p stream's exact count, else @p max_instrs. */
    void startRecording(RecordingLog &log, std::uint64_t max_instrs,
                        const CommitStream *stream);

    /**
     * The current state as a checkpoint for a failure at @p tick: the
     * prefix of @p log recorded so far, which it shares, and its own
     * copy of the snapshot window @p snapshots.
     */
    std::shared_ptr<SimCheckpoint>
    checkpointAt(Tick tick, const std::vector<ThreadSpec> &threads,
                 const std::shared_ptr<const RecordingLog> &log,
                 const SnapshotMap &snapshots, ExecPosition position);

    /** Restore @p ckpt's state onto the freshly reset components. */
    void restoreCheckpoint(const SimCheckpoint &ckpt);
};

} // namespace cwsp::core

#endif // CWSP_CORE_WHOLE_SYSTEM_SIM_HH
