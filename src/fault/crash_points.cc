#include "fault/crash_points.hh"

#include <algorithm>
#include <array>
#include <set>

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
    // Dedup by tick across kinds (earliest-harvested wins: one crash
    // instant is one state, whatever triggered our interest in it).
    std::set<Tick> seen;
    std::array<std::vector<CrashPoint>, kNumCrashPointKinds> byKind;
    for (const auto &p : raw_) {
        if (p.tick == 0 || (max_tick != 0 && p.tick >= max_tick))
            continue;
        if (!seen.insert(p.tick).second)
            continue;
        byKind[static_cast<std::size_t>(p.kind)].push_back(p);
    }

    std::vector<CrashPoint> out;
    for (auto &vec : byKind) {
        std::sort(vec.begin(), vec.end(),
                  [](const CrashPoint &a, const CrashPoint &b) {
                      return a.tick < b.tick;
                  });
        if (max_per_kind == 0 || vec.size() <= max_per_kind) {
            out.insert(out.end(), vec.begin(), vec.end());
            continue;
        }
        // Even subsample keeping the extremes: index i of n picks
        // floor(i * (size-1) / (n-1)).
        if (max_per_kind == 1) {
            out.push_back(vec[vec.size() / 2]);
            continue;
        }
        for (std::size_t i = 0; i < max_per_kind; ++i) {
            std::size_t j =
                i * (vec.size() - 1) / (max_per_kind - 1);
            out.push_back(vec[j]);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const CrashPoint &a, const CrashPoint &b) {
                  return a.tick < b.tick;
              });
    return out;
}

CrashPointSet
enumerateCrashPoints(const ir::Module &module,
                     const core::SystemConfig &config,
                     const std::vector<core::ThreadSpec> &threads,
                     std::size_t max_per_kind)
{
    CrashPointCollector collector;
    core::WholeSystemSim sim(module, config);
    sim.attachTraceSink(&collector);
    const core::RunResult run = sim.run(threads);
    sim.attachTraceSink(nullptr);
    CrashPointSet set;
    set.runCycles = run.cycles;
    set.runInstrs = run.instructions;

    // Bound to the run: a crash at tick >= runCycles never fires
    // (the program has finished).
    set.points = collector.points(max_per_kind, set.runCycles);
    return set;
}

} // namespace cwsp::fault
