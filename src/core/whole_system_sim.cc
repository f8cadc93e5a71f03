#include "core/whole_system_sim.hh"

#include <algorithm>
#include <sstream>

#include "core/config_serial.hh"
#include "core/crash_injection.hh"
#include "core/recovery_engine.hh"
#include "core/sim_checkpoint.hh"
#include "sim/state_capture.hh"
#include "sim/stats.hh"
#include "sim/logging.hh"

namespace cwsp::core {

namespace {

using Cores = std::vector<std::unique_ptr<interp::Interpreter>>;

/** Sink that collects Io commits. */
class IoCollectingSink final : public interp::CommitSink
{
  public:
    explicit IoCollectingSink(std::vector<arch::IoRecord> &out)
        : out_(out)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        if (info.kind == interp::CommitKind::Io) {
            out_.push_back(arch::IoRecord{info.addr, info.storeValue,
                                          0, info.core});
        }
    }

  private:
    std::vector<arch::IoRecord> &out_;
};

/**
 * The execution driver of every run mode: interpreted cores under the
 * min-clock scheduler, or the commit-stream cursor, advanced from stop
 * tick to stop tick. A recording driver (capture passes and crash
 * epochs) is also the cores' commit sink: it forwards every commit to
 * the scheme and keeps the boundary-snapshot window, the control
 * snapshots of each core's last 4 x RBT-capacity + 16 regions, fed
 * from live interpreters and stream frames alike.
 */
class Driver final : public interp::CommitSink
{
  public:
    /** @param snapshots the recording's snapshot window; null for a
     *         plain run.
     *  @param max_instrs step budget of the run, all cores together. */
    Driver(arch::Scheme &scheme, interp::SparseMemory &memory,
           SnapshotMap *snapshots, std::size_t n,
           std::uint64_t max_instrs)
        : scheme_(scheme), memory_(memory), snapshots_(snapshots),
          keep_(4 * scheme.config().rbtCapacity + 16),
          maxInstrs_(max_instrs), finishedAt_(n, kTickNever)
    {
    }
    // Interpreters commit to this object by address.
    Driver(const Driver &) = delete;
    Driver &operator=(const Driver &) = delete;

    /** Interpreted cores; null for a core done before this segment. */
    Cores cores;

    /** Where interpreted cores commit: this driver when recording,
     *  else straight to the scheme. */
    interp::CommitSink &
    sink()
    {
        if (snapshots_)
            return *this;
        return scheme_;
    }

    /** Record nothing more: the scheme's logs and the snapshot window
     *  stay as they are now. */
    void
    stopRecording()
    {
        scheme_.enableRecording(nullptr, nullptr);
        snapshots_ = nullptr;
    }

    /** Start one interpreted core per thread at its entry. */
    void
    startFresh(const ir::Module &module,
               const std::vector<ThreadSpec> &threads)
    {
        for (std::size_t c = 0; c < threads.size(); ++c) {
            cores.push_back(std::make_unique<interp::Interpreter>(
                module, memory_, static_cast<CoreId>(c)));
            cores[c]->start(threads[c].entry, threads[c].args, sink());
        }
    }

    /**
     * Drive core 0 from @p stream instead of interpreting. Its cache
     * outcomes replace the tag walk when they were recorded for this
     * hierarchy's tag geometry; under any other the tags walk live.
     */
    void
    replay(const CommitStream &stream)
    {
        stream_ = &stream;
        mem::Hierarchy &h = scheme_.hierarchy();
        if (stream.geometry == mem::tagGeometryKey(h.config()))
            h.replayOutcomes(stream.outcomes, stream.victims);
    }

    /** Run until no unfinished core's next step starts by @p stop. */
    void
    advance(Tick stop)
    {
        if (stream_)
            runStream(stop);
        else
            runCores(stop);
    }

    /** Where the run stands; @p exact also keeps each running core's
     *  exact control state (battery-backed schemes). */
    ExecPosition position(bool exact) const;

    void
    onCommit(const interp::CommitInfo &info) override
    {
        scheme_.onCommit(info);
        if (info.kind == interp::CommitKind::Boundary)
            openRegion(info.core) = cores[info.core]->snapshot();
    }

  private:
    void runCores(Tick stop);
    void runStream(Tick stop);

    [[noreturn]] void
    overBudget() const
    {
        cwsp_fatal("instruction budget exceeded (", maxInstrs_, ")");
    }

    /** The snapshot slot of the region @p core just opened. */
    interp::ControlSnapshot &
    openRegion(CoreId core)
    {
        const RegionId id = scheme_.currentRegion(core);
        if (window_.size() <= core)
            window_.resize(core + 1);
        auto &ring = window_[core];
        ring.push_back(id);
        if (ring.size() > keep_) {
            snapshots_->erase(ring.front());
            ring.erase(ring.begin());
        }
        return (*snapshots_)[id];
    }

    arch::Scheme &scheme_;
    interp::SparseMemory &memory_;
    SnapshotMap *snapshots_;
    std::size_t keep_;
    std::uint64_t maxInstrs_;
    std::vector<std::vector<RegionId>> window_; ///< per core, FIFO
    const CommitStream *stream_ = nullptr;
    std::size_t nextOp_ = 0;     ///< cursor: next stream op to apply
    std::uint64_t retired_ = 0;  ///< steps of a split batch retired
    std::size_t boundaries_ = 0; ///< Boundary ops applied
    std::vector<Tick> finishedAt_;
    std::uint64_t steps_ = 0;
};

/**
 * The min-clock scheduler: step the unfinished core with the smallest
 * clock (the lowest index on a tie) while that clock is at or before
 * @p stop — kTickNever runs every core to the end, a crash epoch
 * stops at its failure tick. A run stopped at a tick is a prefix of
 * the free run, so successive calls with ascending stops reproduce
 * the free run's schedule exactly. Null cores are skipped; each
 * core's finish tick is recorded.
 */
void
Driver::runCores(Tick stop)
{
    interp::CommitSink &to = sink();
    auto step = [&](interp::Interpreter &core) {
        core.step(to);
        if (++steps_ > maxInstrs_)
            overBudget();
    };
    if (cores.size() == 1 && cores[0]) {
        // Single-core fast path: the min-clock scan below always
        // selects the only core, so skip it (it is measurable at this
        // loop's trip count).
        interp::Interpreter &core = *cores[0];
        while (!core.finished() && scheme_.cycles(0) <= stop)
            step(core);
        if (core.finished() && finishedAt_[0] == kTickNever)
            finishedAt_[0] = scheme_.cycles(0);
        return;
    }
    while (true) {
        // Run the core with the smallest clock next (deterministic
        // interleaving for shared-memory workloads).
        interp::Interpreter *next = nullptr;
        Tick best = kTickNever;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            if (!cores[c])
                continue;
            const Tick t = scheme_.cycles(static_cast<CoreId>(c));
            if (cores[c]->finished()) {
                if (finishedAt_[c] == kTickNever)
                    finishedAt_[c] = t;
            } else if (t <= stop && t < best) {
                best = t;
                next = cores[c].get();
            }
        }
        if (!next)
            return;
        step(*next);
    }
}

/**
 * The commit-stream cursor: drive the scheme and its hierarchy from
 * the stream on core 0, resuming where the last stop left off, and
 * record core 0's finish once the stream is exhausted. It writes no
 * memory image: after a replayed run or epoch nothing reads one (crash
 * handling rebuilds durable state from the recording, and only battery-
 * backed schemes, which never replay, checkpoint memory). It cuts like
 * the scheduler: a step runs iff its start cycle is at or before
 * @p stop. Every batched step costs `per` cycles, so a batch splits
 * after (stop - c) / per + 1 steps, and because retireBatch is purely
 * additive, the rest of a split batch lands every later step on the
 * cycles one uncut retirement would.
 */
void
Driver::runStream(Tick stop)
{
    constexpr CoreId core = 0;
    const bool cut = stop != kTickNever;
    // Loop state lives in locals: the scheme calls below are opaque,
    // and members would round-trip through memory on every op.
    const CommitStream::Op *const first = stream_->ops.data();
    const CommitStream::Op *const last = first + stream_->ops.size();
    const CommitStream::Op *op = first + nextOp_;
    std::uint64_t steps = steps_;
    for (; op != last; ++op) {
        if (op->kind == CommitStream::kBatch1 ||
            op->kind == CommitStream::kBatch2) {
            const Tick per = op->kind == CommitStream::kBatch1 ? 1 : 2;
            std::uint64_t run = op->aux - retired_;
            if (cut) {
                const Tick c = scheme_.cycles(core);
                if (c > stop)
                    break;
                if (c + (run - 1) * per > stop) // the stop splits it
                    run = (stop - c) / per + 1;
            }
            steps += run;
            if (steps > maxInstrs_)
                overBudget();
            scheme_.retireBatch(core, run, static_cast<Tick>(run) * per);
            retired_ += run;
            if (retired_ < op->aux)
                break;
            retired_ = 0;
            continue;
        }

        if (op->flags & CommitStream::kFlagNewStep) {
            if (cut && scheme_.cycles(core) > stop)
                break;
            if (++steps > maxInstrs_)
                overBudget();
        }

        interp::CommitInfo info;
        info.kind = static_cast<interp::CommitKind>(op->kind);
        info.core = core;
        info.addr = op->addr;
        info.storeValue = op->value;
        info.isCheckpoint = (op->flags & CommitStream::kFlagCkpt) != 0;
        info.func = op->func;
        if (info.kind == interp::CommitKind::Boundary)
            info.staticRegion = op->aux;
        scheme_.onCommit(info);
        if (info.kind == interp::CommitKind::Boundary) {
            if (snapshots_) {
                // The stream's flattened frames stand in for the
                // interpreter's snapshot.
                const CommitStream::SnapRef &ref =
                    stream_->snapRefs[boundaries_];
                const auto from = stream_->frames.begin() + ref.begin;
                openRegion(core).frames.assign(from, from + ref.count);
            }
            ++boundaries_;
        }
    }
    nextOp_ = static_cast<std::size_t>(op - first);
    steps_ = steps;
    if (op == last) {
        finishedAt_[core] = scheme_.cycles(core);
        cwsp_assert(scheme_.hierarchy().outcomesLeft() == 0,
                    "stream ended with tag outcomes left over");
    }
}

ExecPosition
Driver::position(bool exact) const
{
    const std::size_t n = finishedAt_.size();
    ExecPosition pos;
    pos.steps = steps_;
    pos.finishedAt = finishedAt_;
    pos.coreReturns.assign(n, 0);
    pos.coreFinished.assign(n, 0);
    if (exact)
        pos.exactSnaps.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        if (!stream_ && !cores[c])
            pos.finishedAt[c] = 0; // done before this segment
        const bool done = pos.finishedAt[c] != kTickNever;
        pos.coreFinished[c] = done;
        if (stream_) {
            if (done)
                pos.coreReturns[c] = stream_->returnValue;
        } else if (cores[c]) {
            pos.coreReturns[c] = cores[c]->returnValue();
            if (exact && !done)
                pos.exactSnaps[c] = cores[c]->exactSnapshot();
        }
    }
    return pos;
}

} // namespace

const char *
sourceRefusalName(SourceRefusal r)
{
    switch (r) {
      case SourceRefusal::None: return "none";
      case SourceRefusal::Module: return "module";
      case SourceRefusal::Config: return "config";
      case SourceRefusal::Threads: return "threads";
      case SourceRefusal::Tick: return "tick";
      case SourceRefusal::TraceSink: return "trace_sink";
      case SourceRefusal::TraceGeometry: return "trace_geometry";
      case SourceRefusal::SamplerGeometry: return "sampler_geometry";
      case SourceRefusal::Multicore: return "multicore";
      case SourceRefusal::BatteryBacked: return "battery_backed";
    }
    return "?";
}

const char *
recoveryPhaseName(RecoveryPhase p)
{
    switch (p) {
      case RecoveryPhase::Detect: return "detect";
      case RecoveryPhase::Scan: return "scan";
      case RecoveryPhase::UndoReplay: return "undo_replay";
      case RecoveryPhase::SliceReexec: return "slice_reexec";
      case RecoveryPhase::Resume: return "resume";
    }
    return "?";
}

namespace {

/** Detect portion of the boot constant; the rest is the log scan. */
constexpr Tick kDetectCycles = 16;
static_assert(kDetectCycles < recovery_timing::kBootCycles,
              "detect phase must leave room for the scan phase");

/**
 * Tile one recovery window into its phases. The phase durations sum
 * to @p window exactly: boot splits into detect + scan, then the
 * undo-replay and slice terms reproduce the window formula
 * (boot + records * perRecord + ops * perOp). Battery-backed windows
 * are boot-only, so zero records/ops degenerate correctly.
 */
RecoveryBreakdown
tileRecoveryWindow(Tick window, std::uint64_t replay_records,
                   std::uint64_t slice_ops)
{
    RecoveryBreakdown b;
    b.window = window;
    b.replayRecords = replay_records;
    b.sliceOps = slice_ops;
    Tick undo = replay_records * recovery_timing::kCyclesPerReplayRecord;
    Tick slice = slice_ops * recovery_timing::kCyclesPerSliceOp;
    b.phase[static_cast<std::size_t>(RecoveryPhase::Detect)] =
        std::min<Tick>(kDetectCycles, window);
    Tick rest =
        window -
        b.phase[static_cast<std::size_t>(RecoveryPhase::Detect)];
    // Scan absorbs whatever the undo/slice terms don't account for,
    // so truncated windows (a nested crash cutting recovery short)
    // still tile exactly.
    Tick scan = 0;
    if (undo + slice > rest) {
        // Window shorter than the work terms (re-entered recovery):
        // charge in phase order until the window runs out.
        undo = std::min(undo, rest);
        slice = rest - undo;
    } else {
        scan = rest - undo - slice;
    }
    b.phase[static_cast<std::size_t>(RecoveryPhase::Scan)] = scan;
    b.phase[static_cast<std::size_t>(RecoveryPhase::UndoReplay)] =
        undo;
    b.phase[static_cast<std::size_t>(RecoveryPhase::SliceReexec)] =
        slice;
    b.phase[static_cast<std::size_t>(RecoveryPhase::Resume)] = 0;
    return b;
}

} // namespace

Tick
defaultSamplePeriod(const SystemConfig &config)
{
    // A few persist round trips per sample: fine enough to watch
    // occupancy evolve, coarse enough that a multi-million-cycle run
    // stays in the low thousands of samples.
    const auto &p = config.scheme.path;
    Tick round_trip =
        2 * (Tick{p.oneWayLatency} + Tick{p.numaExtraCycles});
    Tick period = 32 * round_trip;
    return period ? period : 1024;
}

std::vector<arch::IoRecord>
collectIoStream(const ir::Module &module, const std::string &entry,
                const std::vector<Word> &args)
{
    std::vector<arch::IoRecord> io;
    interp::SparseMemory memory;
    runGolden(module, entry, args, memory, io, 200'000'000);
    return io;
}

std::vector<arch::IoRecord>
collectIoStream(const CommitStream &stream)
{
    // Io commits never batch, and a stream pins core 0.
    std::vector<arch::IoRecord> io;
    for (const CommitStream::Op &op : stream.ops) {
        if (op.kind == static_cast<std::uint8_t>(interp::CommitKind::Io))
            io.push_back(arch::IoRecord{op.addr, op.value, 0, 0});
    }
    return io;
}

Word
runGolden(const ir::Module &module, const std::string &entry,
          const std::vector<Word> &args, interp::SparseMemory &memory,
          std::vector<arch::IoRecord> &io, std::uint64_t max_instrs)
{
    IoCollectingSink sink(io);
    return interp::runToCompletion(module, memory, entry, args,
                                   max_instrs, &sink);
}

SourceRefusal
streamRefusal(const SystemConfig &config, std::size_t threads)
{
    if (threads != 1)
        return SourceRefusal::Multicore;
    if (config.scheme.batteryBacked)
        return SourceRefusal::BatteryBacked;
    return SourceRefusal::None;
}

WholeSystemSim::WholeSystemSim(const ir::Module &module,
                               const SystemConfig &config,
                               sim::SimArena *arena)
    : module_(&module), config_(config)
{
    cwsp_assert(module.laidOut(), "module must be laid out");
    if (arena) {
        arena_ = arena;
    } else {
        ownArena_ = std::make_unique<sim::SimArena>();
        arena_ = ownArena_.get();
    }
    // A second live sim would have its storage rewound under it by
    // this one's reset() (and vice versa), corrupting both silently.
    if (arena_->liveSims() != 0)
        cwsp_panic("arena already holds a live simulator; give each "
                   "simulator its own arena or destroy the first");
    reset();
    arena_->attachSim();
}

WholeSystemSim::~WholeSystemSim()
{
    // Arena-backed containers inside the scheme/hierarchy abandon
    // their storage to the arena; drop the objects before the arena
    // (or its chunks, for an external arena the caller rewinds) goes.
    scheme_.reset();
    hierarchy_.reset();
    arena_->detachSim();
}

void
WholeSystemSim::reset()
{
    // Rewind, don't free: the per-run hot state (cache tag arrays,
    // ring buffers, flat maps) is bump-allocated, so consecutive runs
    // — in particular batch workers sweeping many design points —
    // reuse warm chunks. Destruction order matters: the old scheme
    // and hierarchy must drop their arena-backed containers before
    // the storage is rewound. The functional memory stays heap-backed
    // (durable images outlive resets in crash runs).
    scheme_.reset();
    hierarchy_.reset();
    arena_->reset();
    memory_ = std::make_unique<interp::SparseMemory>();
    {
        sim::ArenaScope scope(arena_);
        hierarchy_ = std::make_unique<mem::Hierarchy>(
            config_.hierarchy, config_.numCores);
        scheme_ = arch::makeScheme(config_.scheme, *hierarchy_,
                                   config_.numCores);
    }
    hierarchy_->setTrace(trace_);
    scheme_->setTrace(trace_);
    wireSampler();
}

void
WholeSystemSim::attachSampler(sim::CounterSampler *sampler)
{
    sampler_ = sampler;
    wireSampler();
}

void
WholeSystemSim::wireSampler()
{
    scheme_->setSampler(sampler_);
    if (!sampler_)
        return;
    // Fixed registration order (cores, then MCs) keeps track indices
    // and capture geometry stable across resets and design points of
    // the same shape. Probes bind against the *current* components;
    // every reset re-binds them here.
    arch::Scheme *s = scheme_.get();
    mem::Hierarchy *h = hierarchy_.get();
    auto track = [&](const std::string &name, std::uint16_t lane,
                     sim::CounterSampler::Probe probe) {
        sampler_->bindProbe(sampler_->ensureTrack(name, lane),
                            std::move(probe));
    };
    for (CoreId c = 0; c < config_.numCores; ++c) {
        std::string p = "core" + std::to_string(c) + ".";
        std::uint16_t lane = sim::coreLane(c);
        track(p + "pb_occupancy", lane, [s, c](Tick at) {
            return std::uint64_t{s->pb(c).occupancyAt(at)};
        });
        track(p + "rbt_entries", lane, [s, c](Tick) {
            return std::uint64_t{s->rbt(c).liveEntries()};
        });
        track(p + "open_region", lane, [s, c](Tick) {
            return std::uint64_t{s->rbt(c).hasOpenRegion() ? 1u : 0u};
        });
        track(p + "wb_occupancy", lane, [h, c](Tick at) {
            return std::uint64_t{h->writeBuffer(c).occupancyAt(at)};
        });
        track(p + "path_queue_delay", lane, [s, c](Tick) {
            return std::uint64_t{s->path(c).lastQueueDelay()};
        });
        track(p + "path_bytes", lane, [s, c](Tick) {
            return s->path(c).bytesSent();
        });
        track(p + "stall_events", lane, [s, c](Tick) {
            return s->pb(c).fullStalls() + s->rbt(c).fullStalls();
        });
    }
    for (McId m = 0; m < hierarchy_->numMcs(); ++m) {
        std::string p = "mc" + std::to_string(m) + ".";
        std::uint16_t lane = sim::mcLane(m);
        track(p + "wpq_depth", lane, [h, m](Tick at) {
            return std::uint64_t{h->mc(m).wpqDepthAt(at)};
        });
        track(p + "undo_log_bytes", lane, [h, m](Tick) {
            // One undo record = 8B address + 8B old value.
            return h->mc(m).loggedStores() * 16;
        });
        track(p + "wpq_full_stalls", lane, [h, m](Tick) {
            return h->mc(m).fullStalls();
        });
    }
}

void
WholeSystemSim::attachTrace(sim::TraceBuffer *trace)
{
    if (ownTrace_ && trace != ownTrace_.get())
        ownTrace_.reset();
    trace_ = trace;
    if (!trace_ && sink_) {
        // Detaching the buffer must not silently detach the
        // observer: keep it fed through an internal buffer.
        ownTrace_ = std::make_unique<sim::TraceBuffer>(
            2, sim::kTraceAll);
        trace_ = ownTrace_.get();
    }
    if (trace_)
        trace_->setSink(sink_);
    hierarchy_->setTrace(trace_);
    scheme_->setTrace(trace_);
}

void
WholeSystemSim::attachTraceSink(sim::TraceSink *sink)
{
    sink_ = sink;
    if (sink_ && !trace_) {
        // The sink observes the full stream regardless of ring
        // capacity, so the internal buffer stays minimal.
        ownTrace_ = std::make_unique<sim::TraceBuffer>(
            2, sim::kTraceAll);
        trace_ = ownTrace_.get();
        hierarchy_->setTrace(trace_);
        scheme_->setTrace(trace_);
    }
    if (!sink_ && ownTrace_) {
        ownTrace_.reset();
        trace_ = nullptr;
        hierarchy_->setTrace(nullptr);
        scheme_->setTrace(nullptr);
        return;
    }
    if (trace_)
        trace_->setSink(sink_);
}

RunResult
WholeSystemSim::collectStats(const std::vector<Word> &return_values)
{
    RunResult r;
    for (std::size_t c = 0; c < return_values.size(); ++c) {
        r.cycles = std::max(r.cycles,
                            scheme_->cycles(static_cast<CoreId>(c)));
        r.instructions += scheme_->instrs(static_cast<CoreId>(c));
        r.returnValues.push_back(return_values[c]);
    }
    r.meanRegionInstrs = scheme_->meanRegionInstrs();
    r.meanWbOccupancy = hierarchy_->meanWbOccupancy();
    r.wpqHits = hierarchy_->wpqHits();
    r.nvmReads = hierarchy_->nvmReads();
    r.l1Accesses = hierarchy_->l1Accesses();
    r.l1Misses = hierarchy_->l1Misses();
    r.dramCacheHits = hierarchy_->dramCacheHits();
    r.dramCacheMisses = hierarchy_->dramCacheMisses();
    r.pbFullStalls = scheme_->pbFullStalls();
    r.rbtFullStalls = scheme_->rbtFullStalls();
    std::uint64_t wbd = 0;
    for (std::uint32_t c = 0; c < config_.numCores; ++c)
        wbd += hierarchy_->writeBuffer(c).persistDelays();
    r.wbPersistDelays = wbd;
    return r;
}

RunResult
WholeSystemSim::run(const std::vector<ThreadSpec> &threads,
                    std::uint64_t max_instrs, const CommitStream *stream,
                    ExecSource *source)
{
    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    const ExecSource from = chooseSource(threads, stream, nullptr, 0);
    if (source)
        *source = from;
    if (from == ExecSource::Stream)
        return runReplay(*stream, max_instrs);
    reset();
    Driver driver(*scheme_, *memory_, nullptr, threads.size(), max_instrs);
    driver.startFresh(*module_, threads);
    driver.advance(kTickNever);
    return collectStats(driver.position(false).coreReturns);
}

RunResult
WholeSystemSim::runReplay(const CommitStream &stream,
                          std::uint64_t max_instrs)
{
    cwsp_assert(stream.module == module_,
                "commit stream recorded for a different module");
    reset();
    Driver driver(*scheme_, *memory_, nullptr, 1, max_instrs);
    driver.replay(stream);
    driver.advance(kTickNever);
    const ExecPosition pos = driver.position(false);
    cwsp_assert(pos.coreFinished[0], "uncut replay must reach stream end");
    return collectStats(pos.coreReturns);
}

ExecSource
WholeSystemSim::chooseSource(const std::vector<ThreadSpec> &threads,
                             const CommitStream *stream,
                             const SimCheckpoint *fork, Tick tick,
                             SourceRefusal *refusal) const
{
    using R = SourceRefusal;
    R unused;
    R &why = refusal ? *refusal : unused;
    why = R::None;
    // A fork is only sound when the checkpoint describes exactly this
    // run: same program, configuration, thread set, and first crash
    // tick. An external trace sink must observe the prefix events
    // (which a fork skips), and an attached trace ring or sampler must
    // match the captured geometry.
    if (fork) {
        if (fork->module != module_)
            why = R::Module;
        else if (fork->configKey != systemConfigKey(config_))
            why = R::Config;
        else if (fork->threads != threads)
            why = R::Threads;
        else if (fork->crashTick != tick)
            why = R::Tick;
        else if (sink_)
            why = R::TraceSink;
        else if (trace_ && (!fork->hasTrace ||
                            fork->traceCapacity != trace_->capacity() ||
                            fork->traceMask != trace_->mask()))
            why = R::TraceGeometry;
        else if (sampler_ &&
                 (!fork->hasSampler ||
                  fork->samplerPeriod != sampler_->period() ||
                  fork->samplerTracks != sampler_->trackCount()))
            why = R::SamplerGeometry;
        else
            return ExecSource::Fork;
    }
    if (!stream)
        return ExecSource::Interpret;
    // A stream may drive this config and thread count, and it must be
    // the recording of this very program.
    R streamWhy = streamRefusal(config_, threads.size());
    if (streamWhy == R::None &&
        !stream->matches(*module_, threads[0].entry, threads[0].args))
        streamWhy = stream->module != module_ ? R::Module : R::Threads;
    if (streamWhy == R::None)
        return ExecSource::Stream;
    if (why == R::None)
        why = streamWhy;
    return ExecSource::Interpret;
}

void
WholeSystemSim::startRecording(RecordingLog &log,
                               std::uint64_t max_instrs,
                               const CommitStream *stream)
{
    std::uint64_t expected = expectedInstrs_;
    if (expected == 0 && stream)
        expected = stream->steps;
    scheme_->enableRecording(
        &log.stores, &log.regions, &log.io,
        expected != 0 ? std::min(max_instrs, 2 * expected)
                      : max_instrs);
}

std::shared_ptr<SimCheckpoint>
WholeSystemSim::checkpointAt(Tick tick,
                             const std::vector<ThreadSpec> &threads,
                             const std::shared_ptr<const RecordingLog> &log,
                             const SnapshotMap &snapshots,
                             ExecPosition position)
{
    auto ck = std::make_shared<SimCheckpoint>();
    ck->module = module_;
    ck->configKey = systemConfigKey(config_);
    ck->threads = threads;
    ck->crashTick = tick;
    ck->position = std::move(position);
    // The log keeps growing, and records the scheme may still change
    // (ReplayCache's unstamped stores) must read as they are now: the
    // checkpoint shares the settled prefix and copies the rest.
    ck->log = log;
    ck->sharedStores = scheme_->settledStores();
    ck->storeTail.assign(log->stores.begin() + ck->sharedStores,
                         log->stores.end());
    ck->regions = log->regions.size();
    ck->io = log->io.size();
    ck->snapshots = snapshots;
    sim::StateWriter w(ck->componentBytes);
    scheme_->captureState(w);
    hierarchy_->captureState(w);
    if (trace_) {
        ck->hasTrace = true;
        ck->traceCapacity = trace_->capacity();
        ck->traceMask = trace_->mask();
        sim::StateWriter tw(ck->traceBytes);
        trace_->captureState(tw);
    }
    if (sampler_) {
        ck->hasSampler = true;
        ck->samplerPeriod = sampler_->period();
        ck->samplerTracks = sampler_->trackCount();
        sim::StateWriter sw(ck->samplerBytes);
        sampler_->captureState(sw);
    }
    // The battery crash handler reads the live memory.
    if (config_.scheme.batteryBacked)
        ck->memory = std::make_unique<interp::SparseMemory>(*memory_);
    return ck;
}

void
WholeSystemSim::restoreCheckpoint(const SimCheckpoint &ckpt)
{
    // Battery-backed schemes also need the exact capture-instant
    // memory image (the non-battery crash path reconstructs durable
    // state from the recording alone).
    if (ckpt.memory)
        memory_ = std::make_unique<interp::SparseMemory>(*ckpt.memory);
    // reset() rebuilt the component tree with identical
    // configuration, so the positional protocol lines up.
    sim::StateReader r(ckpt.componentBytes);
    scheme_->restoreState(r);
    hierarchy_->restoreState(r);
    cwsp_assert(r.exhausted(), "checkpoint component bytes mismatch");
    if (trace_ && ckpt.hasTrace) {
        sim::StateReader tr(ckpt.traceBytes);
        bool ok = trace_->restoreState(tr);
        cwsp_assert(ok, "trace geometry was gated before fork");
    }
    if (sampler_ && ckpt.hasSampler) {
        sim::StateReader sr(ckpt.samplerBytes);
        bool ok = sampler_->restoreState(sr);
        cwsp_assert(ok, "sampler geometry was gated before fork");
    }
}

void
WholeSystemSim::fillStats(StatsRegistry &reg,
                          const std::string &prefix) const
{
    // Trace-ring health rides with the component stats so batch
    // aggregates and stats-JSON diffs surface truncation
    // (cwsp_analyze warns on a nonzero trace_drops).
    if (trace_) {
        reg.counter(prefix + "trace.recorded")
            .inc(trace_->recorded());
        reg.counter(prefix + "trace.trace_drops")
            .inc(trace_->dropped());
    }
    for (std::uint32_t c = 0; c < config_.numCores; ++c) {
        std::string p = prefix + "core" + std::to_string(c) + ".";
        reg.counter(p + "instrs").inc(scheme_->instrs(c));
        reg.counter(p + "cycles").inc(scheme_->cycles(c));
        const auto &wb = hierarchy_->writeBuffer(c);
        reg.counter(p + "wb.inserts").inc(wb.inserts());
        reg.counter(p + "wb.fullStalls").inc(wb.fullStalls());
        reg.counter(p + "wb.persistDelays").inc(wb.persistDelays());
    }
    reg.counter(prefix + "scheme.pbFullStalls")
        .inc(scheme_->pbFullStalls());
    reg.counter(prefix + "scheme.rbtFullStalls")
        .inc(scheme_->rbtFullStalls());
    reg.average(prefix + "scheme.regionInstrs")
        .sample(scheme_->meanRegionInstrs());
    const auto &rih = scheme_->regionInstrHistogram();
    reg.histogram(prefix + "scheme.regionInstrHist",
                  rih.bucketWidth(), rih.buckets().size())
        .mergeFrom(rih);
    const auto &pbh = scheme_->pbStallHistogram();
    reg.histogram(prefix + "scheme.pbStallHist", pbh.bucketWidth(),
                  pbh.buckets().size())
        .mergeFrom(pbh);
    reg.counter(prefix + "mem.l1.accesses")
        .inc(hierarchy_->l1Accesses());
    reg.counter(prefix + "mem.l1.misses").inc(hierarchy_->l1Misses());
    reg.counter(prefix + "mem.dram$.hits")
        .inc(hierarchy_->dramCacheHits());
    reg.counter(prefix + "mem.dram$.misses")
        .inc(hierarchy_->dramCacheMisses());
    reg.counter(prefix + "mem.nvm.reads").inc(hierarchy_->nvmReads());
    reg.counter(prefix + "mem.wpq.loadHits")
        .inc(hierarchy_->wpqHits());
    for (McId m = 0; m < hierarchy_->numMcs(); ++m) {
        std::string p = prefix + "mc" + std::to_string(m) + ".";
        const auto &mc = hierarchy_->mc(m);
        reg.counter(p + "wpq.admissions").inc(mc.admissions());
        reg.counter(p + "wpq.fullStalls").inc(mc.fullStalls());
        reg.counter(p + "loggedStores").inc(mc.loggedStores());
        reg.counter(p + "evictionWrites").inc(mc.evictionWrites());
    }
}

void
WholeSystemSim::dumpStats(std::ostream &os) const
{
    StatsRegistry reg;
    fillStats(reg);
    reg.dump(os);
}

void
WholeSystemSim::exportStatsJson(std::ostream &os) const
{
    StatsRegistry reg;
    fillStats(reg);
    if (!sampler_) {
        reg.exportJson(os);
        os << "\n";
        return;
    }
    // Splice the sampled series in as a `time_series` section: the
    // registry's export is a single JSON object, so drop its closing
    // brace and append the extra member.
    std::ostringstream body;
    reg.exportJson(body);
    std::string text = body.str();
    std::size_t close = text.find_last_of('}');
    cwsp_assert(close != std::string::npos,
                "stats export is not a JSON object");
    os << text.substr(0, close);
    os << (close > 1 ? ", " : "") << "\"time_series\": ";
    sampler_->exportJson(os);
    os << "}\n";
}

RunResult
WholeSystemSim::run(const std::string &entry, std::vector<Word> args,
                    std::uint64_t max_instrs)
{
    return run({ThreadSpec{entry, std::move(args)}}, max_instrs);
}

CrashRunResult
WholeSystemSim::runWithCrash(const std::vector<ThreadSpec> &threads,
                             Tick crash_tick, std::uint64_t max_instrs)
{
    return runWithCrashes(threads, fault::CrashSchedule{crash_tick},
                          fault::FaultPlan{}, max_instrs);
}

namespace {

/** What one core does when a nested-crash epoch begins. */
struct EpochEntry
{
    enum class Kind { Fresh, Resume, Continue, Done } kind =
        Kind::Fresh;
    ResumePoint rp{};
    /** The recording rp was found in (Resume only): its control
     *  snapshot and region begin are read through this view. */
    RecordingView recording;
    /** The epoch's own bundle the view reads, kept alive; null when
     *  it reads the forked checkpoint, which outlives the run. */
    std::shared_ptr<const RecordingBundle> owner;
    /** Exact crash-instant control state (Continue only): battery-
     *  backed schemes persist the execution context on failure. */
    interp::ControlSnapshot exact;
    Word returnValue = 0; ///< Done only
};

/**
 * What recovery carries from one failure into the next epoch: the
 * durable NVM image, the stamped checkpoint-slot image of the latest
 * failure, and each core's entry action.
 */
struct Recovered
{
    explicit Recovered(std::size_t n) : entries(n) {}

    /** Degrade to a full restart: pristine memory, every core Fresh. */
    void
    restartAll()
    {
        durable.clear();
        pristine = true;
        slotImage.clear();
        for (auto &e : entries)
            e = EpochEntry{};
    }

    interp::SparseMemory durable;
    /** Empty durable image and every core Fresh: the program start,
     *  or a full restart. */
    bool pristine = true;
    std::map<Addr, SlotImageEntry> slotImage;
    std::vector<EpochEntry> entries;
};

/** Committed instructions when @p region began (0: not recorded). */
std::uint64_t
instrsAtBegin(const RecordingView &recording, RegionId region)
{
    for (const auto &ev : recording.regions) {
        if (ev.region == region)
            return ev.instrsAtBegin;
    }
    return 0;
}

/** Trace a core's post-crash start: from its entry (@p fresh), or
 *  continuing its exact crash-instant state. */
void
traceResume(sim::TraceBuffer *trace, CoreId core, Tick when, bool fresh)
{
    if (trace) {
        trace->record(sim::TraceEventKind::RecoveryResume,
                      sim::coreLane(core), when, 0, 0, fresh ? 1 : 0);
    }
}

/**
 * The epoch-entry core start: a Fresh core begins at its thread's
 * entry, a Continue core at its exact crash-instant state, a Resume
 * core runs its recovery slice (an atomic resume steps over the
 * boundary into @p boundary_sink); a Done core gets no interpreter.
 * @p trace (null before the first failure) records the resumes at
 * @p when. False when a slice caught a checkpoint slot the media
 * dropped: the caller degrades to a full restart.
 */
bool
startCores(Cores &cores, const std::vector<ThreadSpec> &threads,
           const Recovered &rec, const ir::Module &module,
           interp::SparseMemory &memory, interp::CommitSink &sink,
           interp::CommitSink *boundary_sink, sim::TraceBuffer *trace,
           Tick when, fault::FaultStats &faults)
{
    cores.clear();
    for (std::size_t c = 0; c < threads.size(); ++c) {
        const EpochEntry &e = rec.entries[c];
        const auto cid = static_cast<CoreId>(c);
        if (e.kind == EpochEntry::Kind::Done) {
            cores.push_back(nullptr);
            continue;
        }
        cores.push_back(
            std::make_unique<interp::Interpreter>(module, memory, cid));
        interp::Interpreter &core = *cores.back();
        if (e.kind == EpochEntry::Kind::Fresh) {
            traceResume(trace, cid, when, true);
            core.start(threads[c].entry, threads[c].args, sink);
        } else if (e.kind == EpochEntry::Kind::Continue) {
            core.restoreExact(e.exact);
            traceResume(trace, cid, when, false);
        } else {
            ResumeStatus st = prepareResume(
                core, e.rp, e.recording, module, trace, when,
                boundary_sink,
                rec.slotImage.empty() ? nullptr : &rec.slotImage);
            if (st == ResumeStatus::SlotFault) {
                ++faults.staleSlotsDetected;
                ++faults.fullRestarts;
                return false;
            }
            cwsp_assert(st == ResumeStatus::Resumed,
                        "resume entry cannot need a restart");
            if (e.rp.resumeAfterAtomic)
                ++faults.atomicResumes;
        }
    }
    return true;
}

} // namespace

CrashRunResult
WholeSystemSim::runWithCrashes(const std::vector<ThreadSpec> &threads,
                               const fault::CrashSchedule &schedule,
                               const fault::FaultPlan &faults,
                               std::uint64_t max_instrs,
                               const CommitStream *replay,
                               const SimCheckpoint *fork)
{
    using recovery_timing::kBootCycles;
    using recovery_timing::kCyclesPerReplayRecord;
    using recovery_timing::kCyclesPerSliceOp;

    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    cwsp_assert(!schedule.empty(),
                "crash schedule must hold at least one failure");
    const std::size_t n = threads.size();
    CrashRunResult out;
    out.crashTick = schedule.ticks[0];
    out.source = chooseSource(threads, replay, fork, schedule.ticks[0],
                              &out.refusal);
    // Whether a pristine epoch after the first (a full-restart retry)
    // and the final tail may use the stream.
    const bool streamOk =
        chooseSource(threads, replay, nullptr, 0) == ExecSource::Stream;

    Recovered rec(n);
    std::size_t scheduleIdx = 0;
    bool havePending = true;
    Tick pendingDt = schedule.ticks[0];
    bool firstEpoch = true;

    while (havePending) {
        // ---- Timed execution epoch, failure at epoch tick
        // pendingDt. Each epoch runs on fresh hardware state (power
        // loss empties every volatile structure) over the recovered
        // durable image.
        reset();
        ExecPosition pos;
        // What this epoch recorded up to the failure, and the epoch's
        // own bundle it reads (null when forked).
        RecordingView recorded;
        std::shared_ptr<const RecordingBundle> owner;
        if (firstEpoch && out.source == ExecSource::Fork) {
            // The first epoch of a forked sweep restores the checkpoint
            // instead of executing the pre-crash prefix; the
            // checkpoint's prefix of its capture pass's log stands in
            // for this epoch's recording. Later epochs (nested
            // crashes) always execute.
            restoreCheckpoint(*fork);
            recorded = fork->recording();
            pos = fork->position;
        } else {
            memory_ = std::make_unique<interp::SparseMemory>(rec.durable);
            auto recording = std::make_shared<RecordingBundle>();
            startRecording(*recording, max_instrs, replay);
            Driver driver(*scheme_, *memory_, &recording->snapshots, n,
                          max_instrs);
            sim::TraceBuffer *resumeTrace = firstEpoch ? nullptr : trace_;
            if (streamOk && rec.pristine) {
                // A pristine-start epoch (the first epoch, and every
                // full-restart retry) commits exactly the recorded
                // stream until the crash, so the timing models are
                // driven from the stream directly — identical commit
                // sequence, bundle, stats and trace — with no
                // interpretation.
                traceResume(resumeTrace, 0, 0, true);
                driver.replay(*replay);
            } else if (!startCores(driver.cores, threads, rec, *module_,
                                   *memory_, driver, &driver,
                                   resumeTrace, 0, out.faults)) {
                // Retry this epoch from a full restart.
                rec.restartAll();
                continue;
            }
            driver.advance(pendingDt);
            pos = driver.position(config_.scheme.batteryBacked);
            if (!firstEpoch)
                out.reexecutedInstrs += pos.steps;
            recorded = RecordingView::of(*recording);
            owner = std::move(recording);
        }

        // The durable state at this failure. A battery flush (Section
        // II-C) spends the residual energy draining the redo buffer
        // and persisting the execution context, so every committed
        // store, buffered device op, and live register survives the
        // failure: recovery is an exact continuation after reboot — no
        // undo replay, no region re-execution, no lost work.
        // Undo-logged schemes reconstruct it from the recording,
        // seeding any media faults bound to this failure.
        const bool battery = config_.scheme.batteryBacked;
        CrashState cs;
        if (battery) {
            if (trace_) {
                trace_->record(sim::TraceEventKind::CrashInject, 0,
                               pendingDt);
            }
            cs.nvm = *memory_;
            cs.resume.resize(n);
            for (std::size_t c = 0; c < n; ++c) {
                cs.resume[c].hasWork = !pos.coreFinished[c];
                cs.resume[c].region =
                    scheme_->currentRegion(static_cast<CoreId>(c));
            }
            cs.persistedStores = recorded.stores.size();
            cs.releasedIo.assign(recorded.io.begin(), recorded.io.end());
        } else {
            CrashComputeOptions copts;
            copts.baseNvm = &rec.durable;
            copts.faults = &faults;
            copts.crashIndex = static_cast<std::uint32_t>(scheduleIdx);
            copts.stats = &out.faults;
            copts.coreDone.resize(n);
            copts.coreResumed.resize(n);
            for (std::size_t c = 0; c < n; ++c) {
                copts.coreDone[c] =
                    rec.entries[c].kind == EpochEntry::Kind::Done;
                copts.coreResumed[c] =
                    rec.entries[c].kind == EpochEntry::Kind::Resume;
            }
            copts.trace = trace_;
            cs = computeCrashState(pendingDt, recorded.stores,
                                   recorded.regions,
                                   static_cast<std::uint32_t>(n),
                                   pos.finishedAt, recorded.io, copts);
        }
        ++out.faults.crashesInjected;
        if (!firstEpoch)
            ++out.faults.nestedCrashes;

        if (firstEpoch) {
            // Lost work: instructions committed past each core's
            // resume point.
            for (std::size_t c = 0; c < n; ++c) {
                const ResumePoint &rp = cs.resume[c];
                const bool resumes = rp.hasWork && !rp.restart;
                out.crashed |= rp.hasWork;
                out.resumeRegions.push_back(resumes ? rp.region : 0);
                if (rp.hasWork && !battery) {
                    out.lostWork +=
                        scheme_->instrs(static_cast<CoreId>(c)) -
                        (resumes ? instrsAtBegin(recorded, rp.region)
                                 : 0);
                }
            }
            // pos mirrors each core at the crash instant (restored
            // from the checkpoint on a forked epoch), so this equals
            // collectStats(cores).
            out.result = collectStats(pos.coreReturns);
            if (captureFirstCrash_) {
                // Snapshot before the fault plan mutates cs.nvm
                // (stale-slot injection below): the checker wants the
                // image recovery actually reconstructed.
                out.hasFirstCrash = true;
                out.firstFullRestart = cs.fullRestart;
                if (!cs.fullRestart)
                    out.firstDurableImage = cs.nvm;
                out.firstStores = recorded.stores.copy();
            }
        }

        out.persistedStores += cs.persistedStores;
        out.revertedStores += cs.revertedStores;
        for (const auto &op : cs.releasedIo)
            out.ioStream.push_back(op);

        // Stale-checkpoint-slot injection: drop the newest stamped
        // write to a slot the resume slice will actually load, so the
        // validation path is genuinely exercised.
        if (!battery && !cs.fullRestart) {
            for (const auto &f : faults.faultsFor(
                     static_cast<std::uint32_t>(scheduleIdx))) {
                if (f.kind != fault::FaultKind::StaleCheckpointSlot)
                    continue;
                ++out.faults.faultsRequested;
                bool applied = false;
                for (std::size_t c = 0; c < n && !applied; ++c) {
                    const ResumePoint &rp = cs.resume[c];
                    if (!rp.hasWork || rp.restart)
                        continue;
                    auto snap = recorded.snapshots->find(rp.region);
                    if (snap == recorded.snapshots->end())
                        continue;
                    std::size_t depth =
                        snap->second.frames.size() - 1;
                    const ir::Function &fn =
                        module_->function(rp.func);
                    if (rp.staticRegion >=
                        fn.recoverySlices().size()) {
                        continue;
                    }
                    const auto &ops =
                        fn.recoverySlices()[rp.staticRegion].ops;
                    for (const auto &op : ops) {
                        if (op.kind != ir::RsOp::Kind::LoadSlot)
                            continue;
                        Addr slot = interp::ckptSlotAddr(
                            static_cast<CoreId>(c), depth, op.slot);
                        auto img = cs.ckptSlotImage.find(slot);
                        if (img == cs.ckptSlotImage.end() ||
                            img->second.value == img->second.prev) {
                            continue;
                        }
                        cs.nvm.write(slot, img->second.prev);
                        applied = true;
                        break;
                    }
                }
                if (applied)
                    ++out.faults.faultsApplied;
            }
        }

        // Carry the recovered image and each core's next entry.
        if (cs.fullRestart) {
            rec.restartAll();
        } else {
            rec.durable = std::move(cs.nvm);
            rec.pristine = false;
            rec.slotImage = std::move(cs.ckptSlotImage);
            std::vector<EpochEntry> nextEntries(n);
            for (std::size_t c = 0; c < n; ++c) {
                const ResumePoint &rp = cs.resume[c];
                EpochEntry &e = nextEntries[c];
                if (!rp.hasWork) {
                    e.kind = EpochEntry::Kind::Done;
                    e.returnValue =
                        rec.entries[c].kind == EpochEntry::Kind::Done
                            ? rec.entries[c].returnValue
                            : pos.coreReturns[c];
                } else if (battery) {
                    e.kind = EpochEntry::Kind::Continue;
                    e.exact = std::move(pos.exactSnaps[c]);
                } else if (rp.restart &&
                           rec.entries[c].kind ==
                               EpochEntry::Kind::Resume) {
                    // No boundary committed in this epoch: re-resume
                    // at the previous epoch's point, with its
                    // recording.
                    e = rec.entries[c];
                } else if (rp.restart) {
                    e.kind = EpochEntry::Kind::Fresh;
                } else {
                    e.kind = EpochEntry::Kind::Resume;
                    e.rp = rp;
                    e.recording = recorded;
                    e.owner = owner;
                }
            }
            rec.entries = std::move(nextEntries);
        }

        // ---- Recovery: a timed window of boot + undo replay + slice
        // re-execution, for battery-backed schemes boot alone. Nested
        // failures landing inside it re-enter recovery from scratch.
        // For an undo replay, reconstruct the durable image exactly as
        // the interrupted pass left it, run a full second pass over it,
        // and verify it converges to the same image (the protocol's
        // idempotence obligation); anywhere else the re-entry is a pure
        // reboot. The window is then tiled into its phases, traced as
        // one RecoveryPhase span per non-empty phase.
        std::uint64_t replayRecords = 0;
        std::uint64_t sliceOpsTotal = 0;
        if (!cs.fullRestart) {
            replayRecords = cs.replaySteps.size();
            for (std::size_t c = 0; c < n; ++c) {
                if (rec.entries[c].kind != EpochEntry::Kind::Resume)
                    continue;
                const ir::Function &fn =
                    module_->function(rec.entries[c].rp.func);
                sliceOpsTotal +=
                    fn.recoverySlices()[rec.entries[c].rp.staticRegion]
                        .ops.size();
            }
        }
        const Tick window = kBootCycles +
                            replayRecords * kCyclesPerReplayRecord +
                            sliceOpsTotal * kCyclesPerSliceOp;
        if (replayRecords != 0)
            ++out.faults.undoReplayPasses;
        const auto &ticks = schedule.ticks;
        for (++scheduleIdx;
             scheduleIdx < ticks.size() && ticks[scheduleIdx] < window;
             ++scheduleIdx) {
            const Tick nested = ticks[scheduleIdx];
            ++out.faults.crashesInjected;
            ++out.faults.nestedCrashes;
            ++out.faults.recoveryCrashes;
            std::size_t k = 0;
            if (replayRecords != 0 && nested > kBootCycles) {
                k = std::min(cs.replaySteps.size(),
                             static_cast<std::size_t>(
                                 (nested - kBootCycles) /
                                 kCyclesPerReplayRecord));
            }
            out.faults.partialReplayRecords += k;
            if (trace_) {
                trace_->record(sim::TraceEventKind::RecoveryReentry,
                               0, nested, 0, scheduleIdx, k);
            }
            if (replayRecords != 0) {
                interp::SparseMemory partial = rec.durable;
                for (std::size_t i = cs.replaySteps.size(); i-- > k;) {
                    partial.write(cs.replaySteps[i].addr,
                                  cs.replaySteps[i].before);
                }
                for (const auto &st : cs.replaySteps)
                    partial.write(st.addr, st.after);
                cwsp_assert(partial.equals(rec.durable),
                            "undo replay is not idempotent across a "
                            "nested failure");
                ++out.faults.undoReplayPasses;
            }
        }
        out.recoveryWindows.push_back(window);
        const RecoveryBreakdown rb =
            tileRecoveryWindow(window, replayRecords, sliceOpsTotal);
        out.recoveryBreakdowns.push_back(rb);
        Tick at = pendingDt;
        for (std::size_t p = 0; trace_ && p < kNumRecoveryPhases; ++p) {
            std::uint64_t items = 0;
            if (p == static_cast<std::size_t>(RecoveryPhase::UndoReplay))
                items = rb.replayRecords;
            else if (p ==
                     static_cast<std::size_t>(RecoveryPhase::SliceReexec))
                items = rb.sliceOps;
            if (rb.phase[p] == 0 &&
                p != static_cast<std::size_t>(RecoveryPhase::Resume))
                continue;
            trace_->record(sim::TraceEventKind::RecoveryPhase,
                           sim::coreLane(0), at, rb.phase[p], p, items);
            at += rb.phase[p];
        }
        havePending = scheduleIdx < ticks.size();
        if (havePending) // epoch-relative crash instant
            pendingDt = ticks[scheduleIdx] - window;
        firstEpoch = false;
    }

    // ---- Final epoch: recovery + functional completion on the last
    // recovered image (no further failures scheduled).
    memory_ =
        std::make_unique<interp::SparseMemory>(std::move(rec.durable));
    IoCollectingSink ioSink(out.ioStream);
    Cores post;
    while (!startCores(post, threads, rec, *module_, *memory_, ioSink,
                       nullptr, trace_, out.crashTick, out.faults)) {
        rec.restartAll();
        memory_ = std::make_unique<interp::SparseMemory>();
    }

    // Stream-driven completion: after a single healthy (fault-free)
    // failure on one core, the resumed region re-executes over
    // exactly the memory it saw in the recorded run — every earlier
    // region is fully persisted, and the undo replay reverted every
    // speculative store — so the re-execution's commit sequence is
    // precisely the recorded stream from the resume region's begin.
    // Apply that suffix directly (stores, device ops, step count)
    // instead of re-interpreting it. startCores above already ran
    // the recovery slices, so the timed recovery accounting and trace
    // events are identical to the interpreted path.
    const EpochEntry &resumed = rec.entries[0];
    if (streamOk && schedule.ticks.size() == 1 &&
        faults.faults.empty() &&
        resumed.kind == EpochEntry::Kind::Resume &&
        !resumed.rp.restart && !resumed.rp.resumeAfterAtomic) {
        // Commit-unit index of the resume region's begin.
        // instrsAtBegin includes the boundary commit itself, and the
        // restored control snapshot sits AT the boundary, which
        // therefore re-executes as the first resumed step: the replay
        // cut starts one commit earlier.
        const std::uint64_t at_resume =
            instrsAtBegin(resumed.recording, resumed.rp.region);
        cwsp_assert(at_resume > 0,
                    "resume region has no recorded begin");
        const std::uint64_t cut = at_resume - 1;
        std::uint64_t commits = 0;
        std::uint64_t tailSteps = 0;
        for (const CommitStream::Op &op : replay->ops) {
            if (op.kind == CommitStream::kBatch1 ||
                op.kind == CommitStream::kBatch2) {
                // Each batched step is exactly one counted commit.
                if (commits + op.aux > cut) {
                    tailSteps += commits >= cut
                                     ? op.aux
                                     : commits + op.aux - cut;
                }
                commits += op.aux;
                continue;
            }
            auto kind = static_cast<interp::CommitKind>(op.kind);
            if (commits >= cut) {
                if (op.flags & CommitStream::kFlagNewStep)
                    ++tailSteps;
                if (kind == interp::CommitKind::Store ||
                    kind == interp::CommitKind::Atomic) {
                    memory_->write(op.addr, op.value);
                } else if (kind == interp::CommitKind::Io) {
                    out.ioStream.push_back(
                        arch::IoRecord{op.addr, op.value, 0, 0});
                }
            }
            if (kind != interp::CommitKind::AtomicPrepare)
                ++commits;
        }
        out.reexecutedInstrs += tailSteps;
        out.result.returnValues[0] = replay->returnValue;
        return out;
    }

    std::uint64_t re_instrs = 0;
    while (true) {
        interp::Interpreter *next = nullptr;
        // Round-robin on instruction counts for fairness.
        std::uint64_t best = ~std::uint64_t{0};
        for (std::size_t c = 0; c < n; ++c) {
            if (!post[c] || post[c]->finished())
                continue;
            if (post[c]->committed() < best) {
                best = post[c]->committed();
                next = post[c].get();
            }
        }
        if (!next)
            break;
        next->step(ioSink);
        if (++re_instrs > max_instrs)
            cwsp_fatal("instruction budget exceeded during recovery");
    }
    out.reexecutedInstrs += re_instrs;

    // Result assembly: timing from the original (first) epoch, return
    // values from wherever each core finally finished.
    for (std::size_t c = 0; c < n; ++c) {
        out.result.returnValues[c] =
            rec.entries[c].kind == EpochEntry::Kind::Done
                ? rec.entries[c].returnValue
                : post[c]->returnValue();
    }
    return out;
}

CheckpointRun
WholeSystemSim::captureCheckpoints(
    const std::vector<ThreadSpec> &threads,
    const std::vector<Tick> &ticks, std::uint64_t max_instrs,
    const CommitStream *replay)
{
    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    cwsp_assert(std::is_sorted(ticks.begin(), ticks.end()),
                "crash ticks must be sorted ascending");
    reset();
    // Recorded like a crash epoch, so each captured prefix is
    // byte-for-byte what the first epoch would have recorded. The
    // pass records one log, which its checkpoints share.
    auto log = std::make_shared<RecordingLog>();
    SnapshotMap window;
    startRecording(*log, max_instrs, replay);
    Driver driver(*scheme_, *memory_, &window, threads.size(),
                  max_instrs);
    if (chooseSource(threads, replay, nullptr, 0) == ExecSource::Stream)
        driver.replay(*replay);
    else
        driver.startFresh(*module_, threads);

    // The crash-epoch schedule is a prefix of the free-run schedule:
    // stopping at each tick in turn leaves exactly the state a crash
    // epoch stops in for a failure at that tick. Ticks at or past
    // program completion capture the final state.
    CheckpointRun out;
    out.checkpoints.reserve(ticks.size());
    for (Tick tick : ticks) {
        driver.advance(tick);
        out.checkpoints.push_back(checkpointAt(
            tick, threads, log, window,
            driver.position(config_.scheme.batteryBacked)));
    }
    // No checkpoint reads past the last capture, so record nothing
    // more. Shared prefixes only grow, and the last checkpoint holds
    // its tail itself: trim the log to its prefix, and shrink it.
    driver.stopRecording();
    if (!out.checkpoints.empty())
        log->stores.resize(out.checkpoints.back()->sharedStores);
    log->stores.shrink_to_fit();
    log->regions.shrink_to_fit();
    log->io.shrink_to_fit();
    driver.advance(kTickNever);
    out.result = collectStats(driver.position(false).coreReturns);
    return out;
}

} // namespace cwsp::core
