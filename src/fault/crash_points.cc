#include "fault/crash_points.hh"

#include <algorithm>
#include <array>

#include "ir/ir.hh"
#include "sim/logging.hh"

namespace cwsp::fault {

const char *
crashPointKindName(CrashPointKind kind)
{
    switch (kind) {
      case CrashPointKind::RegionBegin: return "region_begin";
      case CrashPointKind::RegionPersist: return "region_persist";
      case CrashPointKind::MidDrain: return "mid_drain";
      case CrashPointKind::UndoAppend: return "undo_append";
      case CrashPointKind::MidRecovery: return "mid_recovery";
      case CrashPointKind::AtomicCommit: return "atomic_commit";
    }
    return "?";
}

bool
parseCrashPointKind(const std::string &name, CrashPointKind &out)
{
    static constexpr std::array<CrashPointKind, kNumCrashPointKinds>
        kinds = {CrashPointKind::RegionBegin,
                 CrashPointKind::RegionPersist,
                 CrashPointKind::MidDrain,
                 CrashPointKind::UndoAppend,
                 CrashPointKind::MidRecovery,
                 CrashPointKind::AtomicCommit};
    for (CrashPointKind k : kinds) {
        if (name == crashPointKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

void
CrashPointCollector::onTraceEvent(const sim::TraceEvent &event)
{
    switch (event.kind) {
      case sim::TraceEventKind::RegionBegin:
        // One tick after the boundary commits: the region is open in
        // the RBT but (typically) nothing of it has persisted.
        raw_.push_back({event.tick + 1, CrashPointKind::RegionBegin,
                        event.arg0});
        break;
      case sim::TraceEventKind::RegionPersist:
        raw_.push_back({event.tick + 1, CrashPointKind::RegionPersist,
                        event.arg0});
        break;
      case sim::TraceEventKind::SchemeDrain:
        // Halfway through the stall: the persist path is saturated.
        if (event.duration > 1)
            raw_.push_back({event.tick + event.duration / 2,
                            CrashPointKind::MidDrain, event.arg0});
        break;
      case sim::TraceEventKind::UndoAppend:
        // One tick after the append: the record is durable, the
        // guarded store is (at best) just admitted.
        raw_.push_back({event.tick + 1, CrashPointKind::UndoAppend,
                        event.arg0});
        break;
      case sim::TraceEventKind::AtomicCommit:
        // One tick after an atomic RMW commits: the interleaving
        // boundary where a cross-core winner just became visible —
        // the durable-linearizability checker's prime suspects.
        raw_.push_back({event.tick + 1, CrashPointKind::AtomicCommit,
                        event.arg0});
        break;
      default:
        break;
    }
}

std::vector<CrashPoint>
CrashPointCollector::points(std::size_t max_per_kind,
                            Tick max_tick) const
{
    // In-run points in tick order. The sort is stable, so among the
    // points of one tick the earliest harvested comes first and is
    // the one unique() keeps: one crash instant is one state,
    // whatever triggered our interest in it.
    std::vector<CrashPoint> pts;
    pts.reserve(raw_.size());
    for (const auto &p : raw_)
        if (p.tick != 0 && (max_tick == 0 || p.tick < max_tick))
            pts.push_back(p);
    std::stable_sort(pts.begin(), pts.end(),
                     [](const CrashPoint &a, const CrashPoint &b) {
                         return a.tick < b.tick;
                     });
    pts.erase(std::unique(pts.begin(), pts.end(),
                          [](const CrashPoint &a, const CrashPoint &b) {
                              return a.tick == b.tick;
                          }),
              pts.end());

    // Subsample each kind in place, keeping tick order. A kind of n
    // points over the cap keeps its middle point (cap 1), else an
    // even subsample with the extremes: pick i of m is its point of
    // rank floor(i * (n-1) / (m-1)).
    if (max_per_kind != 0) {
        std::array<std::size_t, kNumCrashPointKinds> count{}, rank{},
            pick{};
        for (const auto &p : pts)
            ++count[static_cast<std::size_t>(p.kind)];
        auto kept = [&](std::size_t k) {
            const std::size_t n = count[k];
            const std::size_t r = rank[k]++;
            if (n <= max_per_kind)
                return true;
            if (max_per_kind == 1)
                return r == n / 2;
            if (pick[k] < max_per_kind &&
                r == pick[k] * (n - 1) / (max_per_kind - 1)) {
                ++pick[k];
                return true;
            }
            return false;
        };
        std::size_t w = 0;
        for (const auto &p : pts)
            if (kept(static_cast<std::size_t>(p.kind)))
                pts[w++] = p;
        pts.resize(w);
    }
    // pts was sized for every harvested point, and a campaign keeps
    // each context's few survivors for the whole sweep.
    pts.shrink_to_fit();
    return pts;
}

CrashPointSet
enumerateCrashPoints(const ir::Module &module,
                     const core::SystemConfig &config,
                     const std::vector<core::ThreadSpec> &threads,
                     std::size_t max_per_kind, std::uint64_t max_instrs,
                     const core::CommitStream *stream)
{
    // A minimal ring of the harvested categories only: the sink sees
    // every accepted event whatever the capacity, and events of the
    // other categories stop at the ring's mask check.
    CrashPointCollector collector;
    sim::TraceBuffer ring(2, CrashPointCollector::kMask);
    core::WholeSystemSim sim(module, config);
    sim.attachTrace(&ring);
    sim.attachTraceSink(&collector);
    CrashPointSet set;
    const core::RunResult run =
        sim.run(threads, max_instrs, stream, &set.source);
    set.runCycles = run.cycles;
    set.runInstrs = run.instructions;

    // Bound to the run: a crash at tick >= runCycles never fires
    // (the program has finished).
    set.points = collector.points(max_per_kind, set.runCycles);
    return set;
}

} // namespace cwsp::fault
