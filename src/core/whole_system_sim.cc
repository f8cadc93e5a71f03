#include "core/whole_system_sim.hh"

#include <algorithm>
#include <sstream>

#include "core/crash_injection.hh"
#include "core/recovery_engine.hh"
#include "core/sim_checkpoint.hh"
#include "sim/state_capture.hh"
#include "sim/stats.hh"
#include "sim/logging.hh"

namespace cwsp::core {

namespace {

/**
 * Sink that forwards commits to the scheme and snapshots the
 * committing interpreter's control state at each region boundary,
 * pruning snapshots of long-persisted regions.
 */
class RecordingSink final : public interp::CommitSink
{
  public:
    RecordingSink(arch::Scheme &scheme, RecordingBundle &bundle,
                  std::vector<std::unique_ptr<interp::Interpreter>>
                      &cores,
                  std::size_t keep_per_core)
        : scheme_(scheme), bundle_(bundle), cores_(cores),
          keep_(keep_per_core)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        scheme_.onCommit(info);
        if (info.kind != interp::CommitKind::Boundary)
            return;
        RegionId id = scheme_.currentRegion(info.core);
        bundle_.snapshots[id] = cores_[info.core]->snapshot();
        if (ring_.size() <= info.core)
            ring_.resize(info.core + 1);
        auto &r = ring_[info.core];
        r.push_back(id);
        if (r.size() > keep_) {
            bundle_.snapshots.erase(r.front());
            r.erase(r.begin());
        }
    }

  private:
    arch::Scheme &scheme_;
    RecordingBundle &bundle_;
    std::vector<std::unique_ptr<interp::Interpreter>> &cores_;
    std::size_t keep_;
    std::vector<std::vector<RegionId>> ring_;
};

/** Sink that forwards to an inner sink and collects Io commits. */
class IoCollectingSink final : public interp::CommitSink
{
  public:
    explicit IoCollectingSink(std::vector<arch::IoRecord> &out,
                              interp::CommitSink *inner = nullptr)
        : out_(out), inner_(inner)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        if (inner_)
            inner_->onCommit(info);
        if (info.kind == interp::CommitKind::Io) {
            out_.push_back(arch::IoRecord{info.addr, info.storeValue,
                                          0, info.core});
        }
    }

  private:
    std::vector<arch::IoRecord> &out_;
    interp::CommitSink *inner_;
};

} // namespace

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

/** Emit one RecoveryPhase span per non-empty phase, tiling
 *  [crash_at, crash_at + window) in phase order. */
void
traceRecoveryPhases(sim::TraceBuffer *trace, Tick crash_at,
                    const RecoveryBreakdown &b)
{
    if (!trace)
        return;
    Tick at = crash_at;
    for (std::size_t p = 0; p < kNumRecoveryPhases; ++p) {
        std::uint64_t items = 0;
        if (p == static_cast<std::size_t>(RecoveryPhase::UndoReplay))
            items = b.replayRecords;
        else if (p ==
                 static_cast<std::size_t>(RecoveryPhase::SliceReexec))
            items = b.sliceOps;
        if (b.phase[p] == 0 &&
            p != static_cast<std::size_t>(RecoveryPhase::Resume))
            continue;
        trace->record(sim::TraceEventKind::RecoveryPhase,
                      sim::coreLane(0), at, b.phase[p], p, items);
        at += b.phase[p];
    }
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
    std::vector<arch::IoRecord> stream;
    interp::SparseMemory memory;
    IoCollectingSink sink(stream);
    interp::Interpreter interp(module, memory, 0);
    interp.start(entry, args, sink);
    std::uint64_t budget = 200'000'000;
    while (!interp.finished()) {
        if (interp.committed() >= budget)
            cwsp_fatal("instruction budget exceeded in ", entry);
        interp.step(sink);
    }
    return stream;
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
WholeSystemSim::collectStats(
    const std::vector<std::unique_ptr<interp::Interpreter>> &cores)
{
    std::vector<Word> rvs;
    rvs.reserve(cores.size());
    for (const auto &core : cores)
        rvs.push_back(core->returnValue());
    return collectStats(rvs);
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
    lastCycles_ = r.cycles;
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
                    std::uint64_t max_instrs)
{
    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    reset();

    std::vector<std::unique_ptr<interp::Interpreter>> cores;
    for (std::size_t c = 0; c < threads.size(); ++c) {
        cores.push_back(std::make_unique<interp::Interpreter>(
            *module_, *memory_, static_cast<CoreId>(c)));
        cores[c]->start(threads[c].entry, threads[c].args, *scheme_);
    }

    std::uint64_t total = 0;
    if (cores.size() == 1) {
        // Single-core fast path: the min-clock scan below always
        // selects the only core, so skip it (it is measurable at this
        // loop's trip count).
        interp::Interpreter &core = *cores[0];
        while (!core.finished()) {
            core.step(*scheme_);
            if (++total > max_instrs)
                cwsp_fatal("instruction budget exceeded (", max_instrs,
                           ")");
        }
        return collectStats(cores);
    }
    while (true) {
        // Run the core with the smallest clock next (deterministic
        // interleaving for shared-memory workloads).
        interp::Interpreter *next = nullptr;
        Tick best = kTickNever;
        CoreId best_core = 0;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            if (cores[c]->finished())
                continue;
            Tick t = scheme_->cycles(static_cast<CoreId>(c));
            if (t < best) {
                best = t;
                next = cores[c].get();
                best_core = static_cast<CoreId>(c);
            }
        }
        (void)best_core;
        if (!next)
            break;
        next->step(*scheme_);
        if (++total > max_instrs)
            cwsp_fatal("instruction budget exceeded (", max_instrs,
                       ")");
    }
    return collectStats(cores);
}

RunResult
WholeSystemSim::runReplay(const CommitStream &stream,
                          std::uint64_t max_instrs)
{
    cwsp_assert(stream.module == module_,
                "commit stream recorded for a different module");
    reset();
    ReplayOutcome ro =
        replaySegment(stream, kTickNever, nullptr, 0, max_instrs);
    cwsp_assert(ro.finished, "uncut replay must reach stream end");
    return collectStats(std::vector<Word>{stream.returnValue});
}

WholeSystemSim::ReplayOutcome
WholeSystemSim::replaySegment(const CommitStream &stream, Tick crash_dt,
                              RecordingBundle *bundle, std::size_t keep,
                              std::uint64_t max_instrs)
{
    const bool cut = crash_dt != kTickNever;
    arch::Scheme &sch = *scheme_;
    constexpr CoreId core = 0;
    ReplayOutcome ro;
    std::size_t boundary_idx = 0;
    std::vector<RegionId> ring; // snapshot prune window (FIFO)

    for (const CommitStream::Op &op : stream.ops) {
        if (op.kind == CommitStream::kBatch1 ||
            op.kind == CommitStream::kBatch2) {
            const Tick per =
                op.kind == CommitStream::kBatch1 ? 1 : 2;
            std::uint64_t run = op.aux;
            if (cut) {
                // Same cut rule as the interpreted epoch loop: a step
                // executes iff its start cycle has not passed the
                // crash instant; every batched step costs `per`.
                Tick c = sch.cycles(core);
                run = c > crash_dt
                          ? 0
                          : std::min<std::uint64_t>(
                                op.aux, (crash_dt - c) / per + 1);
            }
            ro.steps += run;
            if (ro.steps > max_instrs)
                cwsp_fatal("instruction budget exceeded (",
                           max_instrs, ")");
            sch.retireBatch(core, run, static_cast<Tick>(run) * per);
            if (run < op.aux)
                return ro; // crash inside the batch
            continue;
        }

        if (op.flags & CommitStream::kFlagNewStep) {
            if (cut && sch.cycles(core) > crash_dt)
                return ro;
            if (++ro.steps > max_instrs)
                cwsp_fatal("instruction budget exceeded (",
                           max_instrs, ")");
        }

        interp::CommitInfo info;
        info.kind = static_cast<interp::CommitKind>(op.kind);
        info.core = core;
        info.addr = op.addr;
        info.storeValue = op.value;
        info.isCheckpoint = (op.flags & CommitStream::kFlagCkpt) != 0;
        info.func = op.func;
        if (info.kind == interp::CommitKind::Boundary)
            info.staticRegion = op.aux;
        // The interpreter writes memory before the sink callback.
        if (info.kind == interp::CommitKind::Store ||
            info.kind == interp::CommitKind::Atomic) {
            memory_->write(op.addr, op.value);
        }
        sch.onCommit(info);
        if (info.kind == interp::CommitKind::Boundary) {
            if (bundle) {
                // Mirror RecordingSink's snapshot window from the
                // stream's flattened frames.
                RegionId id = sch.currentRegion(core);
                const CommitStream::SnapRef &ref =
                    stream.snapRefs[boundary_idx];
                auto &snap = bundle->snapshots[id];
                snap.frames.assign(
                    stream.frames.begin() + ref.begin,
                    stream.frames.begin() + ref.begin + ref.count);
                ring.push_back(id);
                if (ring.size() > keep) {
                    bundle->snapshots.erase(ring.front());
                    ring.erase(ring.begin());
                }
            }
            ++boundary_idx;
        }
    }
    ro.finished = true;
    ro.finishedAt = sch.cycles(core);
    return ro;
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
    /** Bundle owning rp's control snapshot (Resume only). It may be
     *  a checkpoint's immutable prefix copy, hence const. */
    std::shared_ptr<const RecordingBundle> bundle;
    /** Exact crash-instant control state (Continue only): battery-
     *  backed schemes persist the execution context on failure. */
    interp::ControlSnapshot exact;
    Word returnValue = 0; ///< Done only
};

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

    // A fork is only sound when the checkpoint describes exactly this
    // run: same program, scheme, thread set, and first crash tick. An
    // external trace sink must observe the prefix events (which a
    // fork skips), and an attached trace ring must match the captured
    // geometry; any mismatch falls back to from-scratch execution.
    if (fork) {
        bool usable = fork->module == module_ &&
                      fork->schemeName == config_.scheme.name &&
                      fork->threads.size() == n &&
                      fork->crashTick == schedule.ticks[0] && !sink_;
        for (std::size_t c = 0; usable && c < n; ++c) {
            usable = fork->threads[c].entry == threads[c].entry &&
                     fork->threads[c].args == threads[c].args;
        }
        if (trace_ &&
            (!fork->hasTrace ||
             fork->traceCapacity != trace_->capacity() ||
             fork->traceMask != trace_->mask())) {
            usable = false;
        }
        if (sampler_ &&
            (!fork->hasSampler ||
             fork->samplerPeriod != sampler_->period() ||
             fork->samplerTracks != sampler_->trackCount())) {
            usable = false;
        }
        if (!usable)
            fork = nullptr;
    }

    CrashRunResult out;
    out.crashTick = schedule.ticks[0];

    // Epoch state: the durable NVM image, the stamped checkpoint-slot
    // image of the latest failure, and each core's entry action.
    interp::SparseMemory durable;
    bool durableEmpty = true;
    std::map<Addr, SlotImageEntry> slotImage;
    std::vector<EpochEntry> entries(n);
    std::size_t scheduleIdx = 0;
    bool havePending = true;
    Tick pendingDt = schedule.ticks[0];
    bool firstEpoch = true;
    std::size_t keep = 4 * config_.scheme.rbtCapacity + 16;

    while (havePending) {
        // ---- Timed execution epoch, failure at epoch tick
        // pendingDt. Each epoch runs on fresh hardware state (power
        // loss empties every volatile structure) over the recovered
        // durable image.
        reset();
        // The first epoch of a forked sweep restores the checkpoint
        // instead of executing the pre-crash prefix. Later epochs
        // (nested crashes) always execute normally.
        const bool forkEpoch = fork != nullptr && firstEpoch;
        std::shared_ptr<RecordingBundle> rec; // mutable; !forkEpoch
        std::shared_ptr<const RecordingBundle> bundle;
        if (forkEpoch) {
            // The checkpoint's bundle copy stands in for this epoch's
            // recording; battery-backed schemes also need the exact
            // capture-instant memory image (the non-battery crash
            // path reconstructs durable state from the bundle alone).
            bundle = fork->bundle;
            memory_ = fork->memory
                          ? std::make_unique<interp::SparseMemory>(
                                *fork->memory)
                          : std::make_unique<interp::SparseMemory>();
        } else {
            memory_ = std::make_unique<interp::SparseMemory>(durable);
            rec = std::make_shared<RecordingBundle>();
            bundle = rec;
            // Tightest available instruction estimate for log
            // reserves: caller hint, else the stream's exact count,
            // else the budget.
            std::uint64_t expected = expectedInstrs_;
            if (expected == 0 && replay)
                expected = replay->steps;
            scheme_->enableRecording(
                &rec->stores, &rec->regions, &rec->io,
                expected != 0 ? std::min(max_instrs, 2 * expected)
                              : max_instrs);
        }

        // A pristine-start epoch on one core (the first epoch, and
        // every full-restart retry) commits exactly the recorded
        // stream until the crash, so the timing models can be driven
        // from the stream directly — identical commit sequence,
        // identical bundle/stats/trace — with no interpretation.
        // Battery-backed schemes are excluded: their crash handling
        // snapshots live interpreter state.
        const bool replayEpoch =
            !forkEpoch && replay && n == 1 &&
            !config_.scheme.batteryBacked &&
            entries[0].kind == EpochEntry::Kind::Fresh &&
            durableEmpty && slotImage.empty() &&
            replay->matches(*module_, threads[0].entry,
                            threads[0].args);

        std::vector<std::unique_ptr<interp::Interpreter>> cores;
        cores.reserve(n);
        std::vector<Tick> finished_at(n, kTickNever);
        std::vector<Word> coreReturns(n, 0);
        std::uint64_t total = 0;

        if (forkEpoch) {
            // Restore the capture-instant component state onto the
            // freshly reset tree (reset() rebuilt it with identical
            // configuration, so the positional protocol lines up).
            sim::StateReader r(fork->componentBytes);
            scheme_->restoreState(r);
            hierarchy_->restoreState(r);
            cwsp_assert(r.exhausted(),
                        "checkpoint component bytes mismatch");
            if (trace_ && fork->hasTrace) {
                sim::StateReader tr(fork->traceBytes);
                bool ok = trace_->restoreState(tr);
                cwsp_assert(ok,
                            "trace geometry was gated before fork");
                (void)ok;
            }
            if (sampler_ && fork->hasSampler) {
                sim::StateReader sr(fork->samplerBytes);
                bool ok = sampler_->restoreState(sr);
                cwsp_assert(ok,
                            "sampler geometry was gated before fork");
                (void)ok;
            }
            finished_at = fork->finishedAt;
            coreReturns = fork->coreReturns;
            total = fork->steps;
        } else if (replayEpoch) {
            if (!firstEpoch && trace_) {
                trace_->record(sim::TraceEventKind::RecoveryResume,
                               sim::coreLane(0), 0, 0, 0, 1);
            }
            ReplayOutcome ro = replaySegment(*replay, pendingDt,
                                             rec.get(), keep,
                                             max_instrs);
            total = ro.steps;
            if (ro.finished) {
                finished_at[0] = ro.finishedAt;
                coreReturns[0] = replay->returnValue;
            }
            if (!firstEpoch)
                out.reexecutedInstrs += total;
        } else {
        RecordingSink sink(*scheme_, *rec, cores, keep);
        bool slotFault = false;
        for (std::size_t c = 0; c < n; ++c) {
            if (entries[c].kind == EpochEntry::Kind::Done) {
                cores.push_back(nullptr);
                continue;
            }
            cores.push_back(std::make_unique<interp::Interpreter>(
                *module_, *memory_, static_cast<CoreId>(c)));
            if (entries[c].kind == EpochEntry::Kind::Fresh) {
                if (!firstEpoch && trace_) {
                    trace_->record(
                        sim::TraceEventKind::RecoveryResume,
                        sim::coreLane(static_cast<CoreId>(c)), 0, 0,
                        0, 1);
                }
                cores[c]->start(threads[c].entry, threads[c].args,
                                sink);
                continue;
            }
            if (entries[c].kind == EpochEntry::Kind::Continue) {
                cores[c]->restoreExact(entries[c].exact);
                if (trace_) {
                    trace_->record(
                        sim::TraceEventKind::RecoveryResume,
                        sim::coreLane(static_cast<CoreId>(c)), 0, 0,
                        0, 0);
                }
                continue;
            }
            ResumeStatus st = prepareResume(
                *cores[c], entries[c].rp, *entries[c].bundle,
                *module_, trace_, 0, &sink,
                slotImage.empty() ? nullptr : &slotImage);
            if (st == ResumeStatus::SlotFault) {
                slotFault = true;
                break;
            }
            cwsp_assert(st == ResumeStatus::Resumed,
                        "resume entry cannot need a restart");
            if (entries[c].rp.resumeAfterAtomic)
                ++out.faults.atomicResumes;
        }
        if (slotFault) {
            // A checkpoint slot the media dropped: the recovery slice
            // caught the stale value. Degrade to a full restart on
            // pristine memory and retry this epoch.
            ++out.faults.staleSlotsDetected;
            ++out.faults.fullRestarts;
            durable.clear();
            durableEmpty = true;
            slotImage.clear();
            for (auto &e : entries)
                e = EpochEntry{};
            continue;
        }

        for (std::size_t c = 0; c < n; ++c) {
            if (entries[c].kind == EpochEntry::Kind::Done)
                finished_at[c] = 0;
        }
        while (true) {
            interp::Interpreter *next = nullptr;
            Tick best = kTickNever;
            for (std::size_t c = 0; c < n; ++c) {
                if (!cores[c])
                    continue;
                auto cid = static_cast<CoreId>(c);
                if (cores[c]->finished()) {
                    if (finished_at[c] == kTickNever)
                        finished_at[c] = scheme_->cycles(cid);
                    continue;
                }
                Tick t = scheme_->cycles(cid);
                if (t > pendingDt)
                    continue; // this core has reached the crash
                if (t < best) {
                    best = t;
                    next = cores[c].get();
                }
            }
            if (!next)
                break;
            next->step(sink);
            if (++total > max_instrs)
                cwsp_fatal("instruction budget exceeded before crash");
        }
        for (std::size_t c = 0; c < n; ++c) {
            if (cores[c] && cores[c]->finished() &&
                finished_at[c] == kTickNever) {
                finished_at[c] =
                    scheme_->cycles(static_cast<CoreId>(c));
            }
            if (cores[c])
                coreReturns[c] = cores[c]->returnValue();
        }
        if (!firstEpoch)
            out.reexecutedInstrs += total;
        } // interpreted epoch

        if (config_.scheme.batteryBacked) {
            // Battery flush (Section II-C): the residual energy
            // drains the redo buffer and persists the execution
            // context, so every committed store, buffered device op,
            // and live register survives the failure. Recovery is an
            // exact continuation after reboot — no undo replay, no
            // region re-execution, no lost work.
            ++out.faults.crashesInjected;
            if (!firstEpoch)
                ++out.faults.nestedCrashes;
            if (trace_) {
                trace_->record(sim::TraceEventKind::CrashInject, 0,
                               pendingDt);
            }
            durable = *memory_;
            durableEmpty = false;
            if (firstEpoch && captureFirstCrash_) {
                out.hasFirstCrash = true;
                out.firstFullRestart = false;
                out.firstDurableImage = durable;
                out.firstStores = bundle->stores;
            }
            out.persistedStores += bundle->stores.size();
            for (const auto &op : bundle->io)
                out.ioStream.push_back(op);
            if (firstEpoch) {
                bool any_work = false;
                for (std::size_t c = 0; c < n; ++c) {
                    bool running =
                        forkEpoch
                            ? fork->coreFinished[c] == 0
                            : (cores[c] && !cores[c]->finished());
                    any_work |= running;
                    out.resumeRegions.push_back(
                        running ? scheme_->currentRegion(
                                      static_cast<CoreId>(c))
                                : 0);
                }
                out.crashed = any_work;
                // coreReturns mirrors each core's returnValue() at
                // the crash instant (restored from the checkpoint on
                // a forked epoch), so this equals collectStats(cores).
                out.result = collectStats(coreReturns);
            }
            for (std::size_t c = 0; c < n; ++c) {
                EpochEntry &e = entries[c];
                if (e.kind == EpochEntry::Kind::Done)
                    continue;
                bool fin = forkEpoch ? fork->coreFinished[c] != 0
                                     : cores[c]->finished();
                if (fin) {
                    Word rv = forkEpoch ? fork->coreReturns[c]
                                        : cores[c]->returnValue();
                    e = EpochEntry{};
                    e.kind = EpochEntry::Kind::Done;
                    e.returnValue = rv;
                } else {
                    auto snap = forkEpoch
                                    ? fork->exactSnaps[c]
                                    : cores[c]->exactSnapshot();
                    e = EpochEntry{};
                    e.kind = EpochEntry::Kind::Continue;
                    e.exact = std::move(snap);
                }
            }
            const Tick crashAt = pendingDt;
            ++scheduleIdx;
            havePending = scheduleIdx < schedule.ticks.size();
            pendingDt = havePending ? schedule.ticks[scheduleIdx] : 0;
            Tick window = kBootCycles;
            while (havePending && pendingDt < window) {
                // A nested failure inside the boot window: nothing
                // volatile has been rebuilt yet, so the re-entry is a
                // pure reboot.
                ++out.faults.crashesInjected;
                ++out.faults.nestedCrashes;
                ++out.faults.recoveryCrashes;
                if (trace_) {
                    trace_->record(
                        sim::TraceEventKind::RecoveryReentry, 0,
                        pendingDt, 0, scheduleIdx, 0);
                }
                ++scheduleIdx;
                havePending = scheduleIdx < schedule.ticks.size();
                pendingDt =
                    havePending ? schedule.ticks[scheduleIdx] : 0;
            }
            out.recoveryWindows.push_back(window);
            {
                RecoveryBreakdown rb =
                    tileRecoveryWindow(window, 0, 0);
                traceRecoveryPhases(trace_, crashAt, rb);
                out.recoveryBreakdowns.push_back(rb);
            }
            if (havePending)
                pendingDt -= window;
            firstEpoch = false;
            continue;
        }

        // Compute the durable state at this failure, seeding any
        // media faults bound to it.
        CrashComputeOptions copts;
        copts.baseNvm = &durable;
        copts.faults = &faults;
        copts.crashIndex = static_cast<std::uint32_t>(scheduleIdx);
        copts.stats = &out.faults;
        copts.coreDone.resize(n);
        copts.coreResumed.resize(n);
        for (std::size_t c = 0; c < n; ++c) {
            copts.coreDone[c] =
                entries[c].kind == EpochEntry::Kind::Done;
            copts.coreResumed[c] =
                entries[c].kind == EpochEntry::Kind::Resume;
        }
        copts.trace = trace_;
        CrashState cs = computeCrashState(
            pendingDt, bundle->stores, bundle->regions,
            static_cast<std::uint32_t>(n), finished_at, bundle->io,
            copts);
        ++out.faults.crashesInjected;
        if (!firstEpoch)
            ++out.faults.nestedCrashes;

        if (firstEpoch) {
            bool any_work = false;
            for (const auto &rp : cs.resume)
                any_work |= rp.hasWork;
            out.crashed = any_work;
            // Lost work: instructions committed past each core's
            // resume point.
            for (std::size_t c = 0; c < n; ++c) {
                const ResumePoint &rp = cs.resume[c];
                if (!rp.hasWork) {
                    out.resumeRegions.push_back(0);
                    continue;
                }
                out.resumeRegions.push_back(rp.restart ? 0
                                                       : rp.region);
                std::uint64_t committed =
                    scheme_->instrs(static_cast<CoreId>(c));
                std::uint64_t at_resume = 0;
                if (!rp.restart) {
                    for (const auto &ev : bundle->regions) {
                        if (ev.region == rp.region) {
                            at_resume = ev.instrsAtBegin;
                            break;
                        }
                    }
                }
                out.lostWork += committed - at_resume;
            }
            out.result = collectStats(coreReturns);
            if (captureFirstCrash_) {
                // Snapshot before the fault plan mutates cs.nvm
                // (stale-slot injection below): the checker wants the
                // image recovery actually reconstructed.
                out.hasFirstCrash = true;
                out.firstFullRestart = cs.fullRestart;
                if (!cs.fullRestart)
                    out.firstDurableImage = cs.nvm;
                out.firstStores = bundle->stores;
            }
        }

        out.persistedStores += cs.persistedStores;
        out.revertedStores += cs.revertedStores;
        for (const auto &op : cs.releasedIo)
            out.ioStream.push_back(op);

        // Stale-checkpoint-slot injection: drop the newest stamped
        // write to a slot the resume slice will actually load, so the
        // validation path is genuinely exercised.
        if (!cs.fullRestart) {
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
                    auto snap = bundle->snapshots.find(rp.region);
                    if (snap == bundle->snapshots.end())
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
            durable.clear();
            durableEmpty = true;
            slotImage.clear();
            for (auto &e : entries)
                e = EpochEntry{};
        } else {
            durable = std::move(cs.nvm);
            durableEmpty = false;
            slotImage = std::move(cs.ckptSlotImage);
            std::vector<EpochEntry> nextEntries(n);
            for (std::size_t c = 0; c < n; ++c) {
                const ResumePoint &rp = cs.resume[c];
                EpochEntry &e = nextEntries[c];
                if (!rp.hasWork) {
                    e.kind = EpochEntry::Kind::Done;
                    e.returnValue =
                        entries[c].kind == EpochEntry::Kind::Done
                            ? entries[c].returnValue
                            : coreReturns[c];
                } else if (rp.restart &&
                           entries[c].kind ==
                               EpochEntry::Kind::Resume) {
                    // No boundary committed in this epoch: re-resume
                    // at the previous epoch's point, with its bundle.
                    e = entries[c];
                } else if (rp.restart) {
                    e.kind = EpochEntry::Kind::Fresh;
                } else {
                    e.kind = EpochEntry::Kind::Resume;
                    e.rp = rp;
                    e.bundle = bundle;
                }
            }
            entries = std::move(nextEntries);
        }

        // Recovery is a timed window: boot + undo replay + slices.
        Tick window = kBootCycles;
        std::uint64_t replayRecords = 0;
        std::uint64_t sliceOpsTotal = 0;
        if (!cs.fullRestart) {
            replayRecords = cs.replaySteps.size();
            window += static_cast<Tick>(replayRecords) *
                      kCyclesPerReplayRecord;
            for (std::size_t c = 0; c < n; ++c) {
                if (entries[c].kind != EpochEntry::Kind::Resume)
                    continue;
                const ir::Function &fn =
                    module_->function(entries[c].rp.func);
                std::uint64_t ops =
                    fn.recoverySlices()[entries[c].rp.staticRegion]
                        .ops.size();
                sliceOpsTotal += ops;
                window += static_cast<Tick>(ops) * kCyclesPerSliceOp;
            }
        }

        const Tick crashAt = pendingDt;
        ++scheduleIdx;
        havePending = scheduleIdx < schedule.ticks.size();
        pendingDt = havePending ? schedule.ticks[scheduleIdx] : 0;

        bool replayRan =
            !cs.fullRestart && !cs.replaySteps.empty();
        if (replayRan)
            ++out.faults.undoReplayPasses;

        // Nested failures landing inside the recovery window:
        // recovery re-enters from scratch. Reconstruct the durable
        // image exactly as the interrupted replay pass left it, run a
        // full second pass over it, and verify it converges to the
        // same image (the protocol's idempotence obligation).
        while (havePending && pendingDt < window) {
            ++out.faults.crashesInjected;
            ++out.faults.nestedCrashes;
            ++out.faults.recoveryCrashes;
            std::size_t k = 0;
            if (replayRan && pendingDt > kBootCycles) {
                k = std::min(
                    cs.replaySteps.size(),
                    static_cast<std::size_t>(
                        (pendingDt - kBootCycles) /
                        kCyclesPerReplayRecord));
            }
            out.faults.partialReplayRecords += k;
            if (trace_) {
                trace_->record(sim::TraceEventKind::RecoveryReentry,
                               0, pendingDt, 0, scheduleIdx, k);
            }
            if (replayRan) {
                interp::SparseMemory partial = durable;
                for (std::size_t i = cs.replaySteps.size();
                     i-- > k;) {
                    partial.write(cs.replaySteps[i].addr,
                                  cs.replaySteps[i].before);
                }
                for (const auto &st : cs.replaySteps)
                    partial.write(st.addr, st.after);
                cwsp_assert(partial.equals(durable),
                            "undo replay is not idempotent across a "
                            "nested failure");
                ++out.faults.undoReplayPasses;
            }
            ++scheduleIdx;
            havePending = scheduleIdx < schedule.ticks.size();
            pendingDt =
                havePending ? schedule.ticks[scheduleIdx] : 0;
        }
        out.recoveryWindows.push_back(window);
        {
            RecoveryBreakdown rb = tileRecoveryWindow(
                window, replayRecords, sliceOpsTotal);
            traceRecoveryPhases(trace_, crashAt, rb);
            out.recoveryBreakdowns.push_back(rb);
        }
        if (havePending)
            pendingDt -= window; // epoch-relative crash instant
        firstEpoch = false;
    }

    // ---- Final epoch: recovery + functional completion on the last
    // recovered image (no further failures scheduled).
    auto recovered =
        std::make_unique<interp::SparseMemory>(std::move(durable));
    IoCollectingSink null_sink(out.ioStream);
    std::vector<std::unique_ptr<interp::Interpreter>> post(n);
    bool retry = true;
    while (retry) {
        retry = false;
        for (std::size_t c = 0; c < n; ++c) {
            if (entries[c].kind == EpochEntry::Kind::Done) {
                post[c].reset();
                continue;
            }
            post[c] = std::make_unique<interp::Interpreter>(
                *module_, *recovered, static_cast<CoreId>(c));
            if (entries[c].kind == EpochEntry::Kind::Fresh) {
                if (trace_) {
                    trace_->record(
                        sim::TraceEventKind::RecoveryResume,
                        sim::coreLane(static_cast<CoreId>(c)),
                        out.crashTick, 0, 0, 1);
                }
                post[c]->start(threads[c].entry, threads[c].args,
                               null_sink);
                continue;
            }
            if (entries[c].kind == EpochEntry::Kind::Continue) {
                post[c]->restoreExact(entries[c].exact);
                if (trace_) {
                    trace_->record(
                        sim::TraceEventKind::RecoveryResume,
                        sim::coreLane(static_cast<CoreId>(c)),
                        out.crashTick, 0, 0, 0);
                }
                continue;
            }
            ResumeStatus st = prepareResume(
                *post[c], entries[c].rp, *entries[c].bundle,
                *module_, trace_, out.crashTick, nullptr,
                slotImage.empty() ? nullptr : &slotImage);
            if (st == ResumeStatus::SlotFault) {
                ++out.faults.staleSlotsDetected;
                ++out.faults.fullRestarts;
                recovered =
                    std::make_unique<interp::SparseMemory>();
                slotImage.clear();
                for (auto &e : entries)
                    e = EpochEntry{};
                retry = true;
                break;
            }
            cwsp_assert(st == ResumeStatus::Resumed,
                        "resume entry cannot need a restart");
            if (entries[c].rp.resumeAfterAtomic)
                ++out.faults.atomicResumes;
        }
    }

    // Stream-driven completion: after a single healthy (fault-free)
    // failure on one core, the resumed region re-executes over
    // exactly the memory it saw in the recorded run — every earlier
    // region is fully persisted, and the undo replay reverted every
    // speculative store — so the re-execution's commit sequence is
    // precisely the recorded stream from the resume region's begin.
    // Apply that suffix directly (stores, device ops, step count)
    // instead of re-interpreting it. prepareResume above already ran
    // the recovery slices, so the timed recovery accounting and trace
    // events are identical to the interpreted path.
    const bool fastTail =
        replay && n == 1 && schedule.ticks.size() == 1 &&
        faults.faults.empty() && !config_.scheme.batteryBacked &&
        replay->matches(*module_, threads[0].entry,
                        threads[0].args) &&
        entries[0].kind == EpochEntry::Kind::Resume &&
        !entries[0].rp.restart && !entries[0].rp.resumeAfterAtomic;
    if (fastTail) {
        // Commit-unit index of the resume region's begin.
        // instrsAtBegin includes the boundary commit itself, and the
        // restored control snapshot sits AT the boundary, which
        // therefore re-executes as the first resumed step: the replay
        // cut starts one commit earlier.
        std::uint64_t at_resume = 0;
        for (const auto &ev : entries[0].bundle->regions) {
            if (ev.region == entries[0].rp.region) {
                at_resume = ev.instrsAtBegin;
                break;
            }
        }
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
                    recovered->write(op.addr, op.value);
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
        memory_ = std::move(recovered);
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
        next->step(null_sink);
        if (++re_instrs > max_instrs)
            cwsp_fatal("instruction budget exceeded during recovery");
    }
    out.reexecutedInstrs += re_instrs;

    // Result assembly: timing from the original (first) epoch, return
    // values from wherever each core finally finished.
    for (std::size_t c = 0; c < n; ++c) {
        out.result.returnValues[c] =
            entries[c].kind == EpochEntry::Kind::Done
                ? entries[c].returnValue
                : post[c]->returnValue();
    }
    memory_ = std::move(recovered);
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
    const std::size_t n = threads.size();
    const std::size_t keep = 4 * config_.scheme.rbtCapacity + 16;
    CheckpointRun out;
    out.checkpoints.reserve(ticks.size());

    reset();
    RecordingBundle bundle;
    // Same reserve sizing as a crash epoch, so the recorded prefix is
    // identical byte-for-byte to what epoch 1 would have recorded.
    std::uint64_t expected = expectedInstrs_;
    if (expected == 0 && replay)
        expected = replay->steps;
    scheme_->enableRecording(
        &bundle.stores, &bundle.regions, &bundle.io,
        expected != 0 ? std::min(max_instrs, 2 * expected)
                      : max_instrs);

    // Identity + bundle + component/trace state shared by both
    // capture modes; per-core execution position is filled by the
    // mode-specific capture closures.
    auto baseCheckpoint = [&](Tick tick, std::uint64_t steps) {
        auto ck = std::make_shared<SimCheckpoint>();
        ck->module = module_;
        ck->schemeName = config_.scheme.name;
        ck->threads = threads;
        ck->crashTick = tick;
        ck->steps = steps;
        ck->bundle = std::make_shared<RecordingBundle>(bundle);
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
        ck->finishedAt.assign(n, kTickNever);
        ck->coreReturns.assign(n, 0);
        ck->coreFinished.assign(n, 0);
        return ck;
    };

    const bool replayRun =
        replay && n == 1 && !config_.scheme.batteryBacked &&
        replay->matches(*module_, threads[0].entry, threads[0].args);

    if (replayRun) {
        // Stream-driven capture: replaySegment's cut rule, applied
        // incrementally at every tick. Batches split exactly because
        // retireBatch is purely additive: retiring (t-c)/per+1 steps,
        // capturing, and retiring the rest lands every later tick on
        // the same cycles as one uncut retirement.
        arch::Scheme &sch = *scheme_;
        constexpr CoreId core = 0;
        std::size_t tickIdx = 0;
        std::uint64_t total = 0;
        std::size_t boundary_idx = 0;
        std::vector<RegionId> ring;

        auto capture = [&](Tick tick, bool finished) {
            auto ck = baseCheckpoint(tick, total);
            if (finished) {
                ck->coreFinished[0] = 1;
                ck->finishedAt[0] = sch.cycles(core);
                ck->coreReturns[0] = replay->returnValue;
            }
            out.checkpoints.push_back(std::move(ck));
        };

        for (const CommitStream::Op &op : replay->ops) {
            if (op.kind == CommitStream::kBatch1 ||
                op.kind == CommitStream::kBatch2) {
                const Tick per =
                    op.kind == CommitStream::kBatch1 ? 1 : 2;
                std::uint64_t done = 0;
                while (done < op.aux) {
                    std::uint64_t run = op.aux - done;
                    while (tickIdx < ticks.size()) {
                        Tick c = sch.cycles(core);
                        if (c > ticks[tickIdx]) {
                            // The cut rule stops exactly here for
                            // this tick.
                            capture(ticks[tickIdx], false);
                            ++tickIdx;
                            continue;
                        }
                        // Retire only the steps the cut rule admits
                        // for the nearest tick, then capture.
                        std::uint64_t fit =
                            (ticks[tickIdx] - c) / per + 1;
                        if (fit < run)
                            run = fit;
                        break;
                    }
                    total += run;
                    if (total > max_instrs)
                        cwsp_fatal("instruction budget exceeded (",
                                   max_instrs, ")");
                    sch.retireBatch(core, run,
                                    static_cast<Tick>(run) * per);
                    done += run;
                }
                continue;
            }

            if (op.flags & CommitStream::kFlagNewStep) {
                while (tickIdx < ticks.size() &&
                       sch.cycles(core) > ticks[tickIdx]) {
                    capture(ticks[tickIdx], false);
                    ++tickIdx;
                }
                if (++total > max_instrs)
                    cwsp_fatal("instruction budget exceeded (",
                               max_instrs, ")");
            }

            interp::CommitInfo info;
            info.kind = static_cast<interp::CommitKind>(op.kind);
            info.core = core;
            info.addr = op.addr;
            info.storeValue = op.value;
            info.isCheckpoint =
                (op.flags & CommitStream::kFlagCkpt) != 0;
            info.func = op.func;
            if (info.kind == interp::CommitKind::Boundary)
                info.staticRegion = op.aux;
            if (info.kind == interp::CommitKind::Store ||
                info.kind == interp::CommitKind::Atomic) {
                memory_->write(op.addr, op.value);
            }
            sch.onCommit(info);
            if (info.kind == interp::CommitKind::Boundary) {
                RegionId id = sch.currentRegion(core);
                const CommitStream::SnapRef &ref =
                    replay->snapRefs[boundary_idx];
                auto &snap = bundle.snapshots[id];
                snap.frames.assign(
                    replay->frames.begin() + ref.begin,
                    replay->frames.begin() + ref.begin + ref.count);
                ring.push_back(id);
                if (ring.size() > keep) {
                    bundle.snapshots.erase(ring.front());
                    ring.erase(ring.begin());
                }
                ++boundary_idx;
            }
        }
        // Ticks at or past completion: a crash there finds the
        // finished state.
        while (tickIdx < ticks.size()) {
            capture(ticks[tickIdx], true);
            ++tickIdx;
        }
        out.result =
            collectStats(std::vector<Word>{replay->returnValue});
        return out;
    }

    // Interpreted capture (any scheme, any core count).
    std::vector<std::unique_ptr<interp::Interpreter>> cores;
    cores.reserve(n);
    RecordingSink sink(*scheme_, bundle, cores, keep);
    for (std::size_t c = 0; c < n; ++c) {
        cores.push_back(std::make_unique<interp::Interpreter>(
            *module_, *memory_, static_cast<CoreId>(c)));
        cores[c]->start(threads[c].entry, threads[c].args, sink);
    }
    std::vector<Tick> finished_at(n, kTickNever);
    std::uint64_t total = 0;
    std::size_t tickIdx = 0;

    auto capture = [&](Tick tick) {
        auto ck = baseCheckpoint(tick, total);
        ck->finishedAt = finished_at;
        for (std::size_t c = 0; c < n; ++c) {
            bool fin = cores[c]->finished();
            ck->coreFinished[c] = fin ? 1 : 0;
            if (fin && ck->finishedAt[c] == kTickNever) {
                ck->finishedAt[c] =
                    scheme_->cycles(static_cast<CoreId>(c));
            }
            ck->coreReturns[c] = cores[c]->returnValue();
        }
        if (config_.scheme.batteryBacked) {
            // The battery crash handler reads the live memory and
            // snapshots the execution context of running cores.
            ck->memory =
                std::make_unique<interp::SparseMemory>(*memory_);
            ck->exactSnaps.resize(n);
            for (std::size_t c = 0; c < n; ++c)
                if (!cores[c]->finished())
                    ck->exactSnaps[c] = cores[c]->exactSnapshot();
        }
        out.checkpoints.push_back(std::move(ck));
    };

    while (true) {
        interp::Interpreter *next = nullptr;
        Tick best = kTickNever;
        for (std::size_t c = 0; c < n; ++c) {
            auto cid = static_cast<CoreId>(c);
            if (cores[c]->finished()) {
                if (finished_at[c] == kTickNever)
                    finished_at[c] = scheme_->cycles(cid);
                continue;
            }
            Tick t = scheme_->cycles(cid);
            if (t < best) {
                best = t;
                next = cores[c].get();
            }
        }
        // The crash-epoch schedule (skip cores past the crash tick)
        // is a prefix of this free-run schedule: the moment the
        // minimum clock passes a tick — or every core finishes — the
        // state equals the crash epoch's stopped state at that tick.
        while (tickIdx < ticks.size() &&
               (!next || best > ticks[tickIdx])) {
            capture(ticks[tickIdx]);
            ++tickIdx;
        }
        if (!next)
            break;
        next->step(sink);
        if (++total > max_instrs)
            cwsp_fatal("instruction budget exceeded (", max_instrs,
                       ")");
    }
    out.result = collectStats(cores);
    return out;
}

} // namespace cwsp::core
