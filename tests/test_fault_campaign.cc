/**
 * @file
 * Fault-injection campaign tests: nested crash schedules (including
 * failures inside the recovery window), media-fault detection and the
 * degradation ladder, battery-backed continuation, atomic-resume
 * recovery, trace-driven crash-point enumeration, and a bounded
 * end-to-end campaign smoke over the engine itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "compiler/compiler.hh"
#include "core/consistency_checker.hh"
#include "core/interleave.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "fault/campaign.hh"
#include "fault/crash_points.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "sim/stats.hh"
#include "workloads/concurrent.hh"
#include "workloads/kernels.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

using core::recovery_timing::kBootCycles;

struct Golden
{
    core::SystemConfig cfg;
    std::unique_ptr<ir::Module> mod;
    Word result = 0;
    interp::SparseMemory memory;
    fault::CrashPointSet points;
    Tick pivot = 0; ///< preferred crash tick for schedules
};

Golden
makeGolden(const char *app_name, const char *scheme,
           std::size_t points_per_kind = 2)
{
    Golden g;
    g.cfg = core::makeSystemConfig(scheme);
    g.mod = workloads::buildApp(workloads::appByName(app_name),
                                g.cfg.compiler);
    g.result =
        interp::runToCompletion(*g.mod, g.memory, "main", {});
    g.points = fault::enumerateCrashPoints(
        *g.mod, g.cfg, {core::ThreadSpec{}}, points_per_kind);
    // Pivot like the campaign does: a mid-run point, preferring the
    // latest undo-append edge so log records are live at the crash.
    const auto &pts = g.points.points;
    EXPECT_FALSE(pts.empty());
    g.pivot = pts[pts.size() / 2].tick;
    for (const auto &p : pts) {
        if (p.kind == fault::CrashPointKind::UndoAppend)
            g.pivot = p.tick;
    }
    return g;
}

core::CrashRunResult
runSchedule(const Golden &g, fault::CrashSchedule sched,
            fault::FaultPlan plan = {})
{
    core::WholeSystemSim sim(*g.mod, g.cfg);
    auto out = sim.runWithCrashes({core::ThreadSpec{}}, sched, plan,
                                  200'000'000);
    EXPECT_EQ(out.result.returnValues[0], g.result)
        << "schedule " << sched.describe();
    auto check = core::checkGlobals(*g.mod, g.memory, sim.memory());
    EXPECT_TRUE(check.consistent)
        << "schedule " << sched.describe() << " diverges ("
        << check.totalDivergences << " words, first in "
        << (check.divergences.empty()
                ? std::string("?")
                : check.divergences[0].global)
        << ")";
    return out;
}

TEST(FaultCampaign, NestedMidBootCrashStaysConsistent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    auto out = runSchedule(g, {g.pivot, 1});
    EXPECT_EQ(out.faults.crashesInjected, 2u);
    EXPECT_EQ(out.faults.nestedCrashes, 1u);
    EXPECT_EQ(out.faults.recoveryCrashes, 1u);
}

TEST(FaultCampaign, NestedMidReplayReentryIsIdempotent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    // Second failure just past boot, inside undo-record replay. The
    // run itself asserts the second replay pass converges to the same
    // durable image (the protocol's idempotence obligation).
    auto out = runSchedule(g, {g.pivot, kBootCycles + 2});
    EXPECT_EQ(out.faults.recoveryCrashes, 1u);
    EXPECT_GE(out.faults.undoReplayPasses, 2u);
}

TEST(FaultCampaign, PostRecoveryNestedCrashKeepsTailStores)
{
    // Regression: under ReplayCache a core can *finish* inside a
    // short second epoch while its tail stores still sit in the
    // replay buffer (persist time = never). Resume selection must pin
    // such a region unpersisted and re-execute it — an earlier
    // version marked the core done and silently dropped the tail.
    Golden g = makeGolden("fft", "replaycache");
    auto out = runSchedule(g, {g.pivot, 4096});
    EXPECT_EQ(out.faults.nestedCrashes, 1u);
    EXPECT_EQ(out.faults.recoveryCrashes, 0u);
}

TEST(FaultCampaign, TornAppendDroppedExactly)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(
        fault::MediaFault{fault::FaultKind::TornAppend, 0, 0, 0, 0});
    auto out = runSchedule(g, {g.pivot}, plan);
    EXPECT_EQ(out.faults.faultsApplied, 1u);
    EXPECT_GE(out.faults.corruptRecordsDetected, 1u);
    EXPECT_GE(out.faults.tornTailsDropped, 1u);
    // Dropping the torn tail is exact: no deeper degradation.
    EXPECT_EQ(out.faults.fullRestarts, 0u);
}

TEST(FaultCampaign, BitFlipDetectedNeverSilent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(
        fault::MediaFault{fault::FaultKind::BitFlip, 0, 0, 0, 17});
    auto out = runSchedule(g, {g.pivot}, plan);
    ASSERT_EQ(out.faults.faultsApplied, 1u);
    // The CRC scan must catch the flip, and a flipped record is never
    // attributable to a torn tail — it degrades (step 2 or 3) rather
    // than being silently replayed. runSchedule already verified the
    // degraded run still converges to the golden state.
    EXPECT_GE(out.faults.corruptRecordsDetected, 1u);
    EXPECT_TRUE(out.faults.degraded());
}

TEST(FaultCampaign, StaleCheckpointSlotCaughtByValidation)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(fault::MediaFault{
        fault::FaultKind::StaleCheckpointSlot, 0, 0, 0, 0});
    auto out = runSchedule(g, {g.pivot}, plan);
    if (out.faults.faultsApplied > 0) {
        EXPECT_GE(out.faults.staleSlotsDetected, 1u);
        EXPECT_GE(out.faults.fullRestarts, 1u);
    }
}

TEST(FaultCampaign, BatteryBackedCapriLosesNothing)
{
    // Capri's battery flushes the redo buffer and execution context
    // on failure (Section II-C): recovery is an exact continuation —
    // no lost work, no undo replay, a boot-only recovery window.
    Golden g = makeGolden("fft", "capri");
    auto out = runSchedule(g, {g.pivot});
    EXPECT_TRUE(out.crashed);
    EXPECT_EQ(out.lostWork, 0u);
    EXPECT_EQ(out.faults.undoReplayPasses, 0u);
    ASSERT_EQ(out.recoveryWindows.size(), 1u);
    EXPECT_EQ(out.recoveryWindows[0], kBootCycles);

    auto nested = runSchedule(g, {g.pivot, 4096});
    EXPECT_EQ(nested.lostWork, 0u);
    EXPECT_EQ(nested.faults.nestedCrashes, 1u);
}

TEST(FaultCampaign, ResumeAfterAtomicRecovers)
{
    // Exhaustively sweep a tiny atomic-transaction kernel so at least
    // one crash lands between an atomic's WPQ admission and the next
    // boundary — the resumeAfterAtomic path: re-enter the region but
    // skip the (non-idempotent) atomic, reloading its destination
    // from the post-atomic checkpoint slot.
    workloads::AtomicMixParams ap;
    ap.tableWords = 1 << 6;
    ap.counters = 4;
    ap.txs = 12;
    ap.opsPerTx = 4;
    ap.seed = 4242;
    auto mod = workloads::buildAtomicMixKernel(ap);
    auto cfg = core::makeSystemConfig("cwsp");
    compiler::compileForWsp(*mod, cfg.compiler);

    interp::SparseMemory golden_mem;
    Word golden =
        interp::runToCompletion(*mod, golden_mem, "main", {});
    core::WholeSystemSim sim(*mod, cfg);
    Tick full = sim.run("main").cycles;

    std::uint64_t atomic_resumes = 0;
    for (Tick crash = 1; crash < full; crash += 2) {
        auto out = sim.runWithCrash({core::ThreadSpec{}}, crash);
        ASSERT_EQ(out.result.returnValues[0], golden) << "@" << crash;
        auto check =
            core::checkGlobals(*mod, golden_mem, sim.memory());
        ASSERT_TRUE(check.consistent) << "@" << crash;
        atomic_resumes += out.faults.atomicResumes;
    }
    EXPECT_GE(atomic_resumes, 1u);
}

/**
 * The collector's dedup and subsample rule, written as a std::set
 * pass over the harvested points in harvest order: the reference
 * CrashPointCollector::points() must match exactly.
 */
std::vector<fault::CrashPoint>
referencePoints(const std::vector<fault::CrashPoint> &raw,
                std::size_t max_per_kind, Tick max_tick)
{
    std::set<Tick> seen;
    std::array<std::vector<fault::CrashPoint>, fault::kNumCrashPointKinds>
        byKind;
    for (const auto &p : raw) {
        if (p.tick == 0 || (max_tick != 0 && p.tick >= max_tick))
            continue;
        if (!seen.insert(p.tick).second)
            continue;
        byKind[static_cast<std::size_t>(p.kind)].push_back(p);
    }
    auto byTick = [](const fault::CrashPoint &a,
                     const fault::CrashPoint &b) {
        return a.tick < b.tick;
    };
    std::vector<fault::CrashPoint> out;
    for (auto &vec : byKind) {
        std::sort(vec.begin(), vec.end(), byTick);
        if (max_per_kind == 0 || vec.size() <= max_per_kind) {
            out.insert(out.end(), vec.begin(), vec.end());
        } else if (max_per_kind == 1) {
            out.push_back(vec[vec.size() / 2]);
        } else {
            for (std::size_t i = 0; i < max_per_kind; ++i)
                out.push_back(
                    vec[i * (vec.size() - 1) / (max_per_kind - 1)]);
        }
    }
    std::sort(out.begin(), out.end(), byTick);
    return out;
}

TEST(FaultCampaign, CrashPointCollectorDedupsSubsamplesAndBounds)
{
    fault::CrashPointCollector c;
    auto feed = [&c](sim::TraceEventKind kind, Tick tick,
                     Tick duration = 0) {
        sim::TraceEvent ev;
        ev.kind = kind;
        ev.tick = tick;
        ev.duration = duration;
        c.onTraceEvent(ev);
    };
    feed(sim::TraceEventKind::RegionBegin, 10);
    feed(sim::TraceEventKind::UndoAppend, 10); // same instant: dedup
    feed(sim::TraceEventKind::UndoAppend, 20);
    feed(sim::TraceEventKind::UndoAppend, 30);
    feed(sim::TraceEventKind::UndoAppend, 40);
    feed(sim::TraceEventKind::UndoAppend, 1000); // beyond the run
    feed(sim::TraceEventKind::SchemeDrain, 100, 8);

    auto all = c.points(0, 500);
    // 10+1 (region_begin), 21/31/41 (undo_append), 104 (mid_drain);
    // the tick-11 undo_append deduped, the tick-1001 point out of run.
    ASSERT_EQ(all.size(), 5u);
    EXPECT_TRUE(std::is_sorted(
        all.begin(), all.end(),
        [](const fault::CrashPoint &a, const fault::CrashPoint &b) {
            return a.tick < b.tick;
        }));
    EXPECT_EQ(all[0].kind, fault::CrashPointKind::RegionBegin);

    // The run bound applies *before* subsampling: the kept extremes
    // of undo_append are 21 and 41, never the out-of-run 1001.
    auto two = c.points(2, 500);
    std::vector<Tick> undo;
    for (const auto &p : two) {
        if (p.kind == fault::CrashPointKind::UndoAppend)
            undo.push_back(p.tick);
    }
    ASSERT_EQ(undo.size(), 2u);
    EXPECT_EQ(undo.front(), 21u);
    EXPECT_EQ(undo.back(), 41u);

    // A seeded random feed against the reference: thousands of
    // events in non-monotone tick order, packed into few enough ticks
    // that kinds collide, each tagged with its harvest index so the
    // earliest-harvested rule shows in the surviving args.
    fault::CrashPointCollector rc;
    std::vector<fault::CrashPoint> raw;
    std::mt19937_64 rng(0x5eed);
    constexpr sim::TraceEventKind kEvents[] = {
        sim::TraceEventKind::RegionBegin,
        sim::TraceEventKind::RegionPersist,
        sim::TraceEventKind::SchemeDrain,
        sim::TraceEventKind::UndoAppend,
        sim::TraceEventKind::AtomicCommit,
    };
    constexpr fault::CrashPointKind kKinds[] = {
        fault::CrashPointKind::RegionBegin,
        fault::CrashPointKind::RegionPersist,
        fault::CrashPointKind::MidDrain,
        fault::CrashPointKind::UndoAppend,
        fault::CrashPointKind::AtomicCommit,
    };
    for (std::uint64_t n = 0; n < 6000; ++n) {
        const std::size_t e = rng() % std::size(kEvents);
        sim::TraceEvent ev;
        ev.kind = kEvents[e];
        ev.tick = rng() % 2500;
        ev.duration = rng() % 8;
        ev.arg0 = n;
        rc.onTraceEvent(ev);
        if (ev.kind != sim::TraceEventKind::SchemeDrain)
            raw.push_back({ev.tick + 1, kKinds[e], n});
        else if (ev.duration > 1)
            raw.push_back({ev.tick + ev.duration / 2, kKinds[e], n});
    }
    ASSERT_EQ(rc.rawCount(), raw.size());
    for (std::size_t cap : {0u, 1u, 2u, 3u, 8u}) {
        for (Tick bound : {Tick{0}, Tick{1700}}) {
            const auto got = rc.points(cap, bound);
            const auto want = referencePoints(raw, cap, bound);
            ASSERT_EQ(got.size(), want.size())
                << "cap " << cap << " bound " << bound;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].tick, want[i].tick) << i;
                EXPECT_EQ(got[i].kind, want[i].kind) << i;
                EXPECT_EQ(got[i].arg, want[i].arg) << i;
            }
        }
    }
}

TEST(FaultCampaign, RunCaseFlagsDivergenceAgainstGolden)
{
    // The campaign's differential oracle must notice corruption: hand
    // runCase a golden reference whose memory differs by one global
    // word and require a failing, explained result.
    Golden g = makeGolden("fft", "cwsp", 1);
    fault::GoldenRef ref;
    ref.module = g.mod.get();
    ref.config = &g.cfg;
    ref.result = g.result;
    interp::SparseMemory tampered = g.memory;
    const auto &gl = g.mod->globals();
    ASSERT_FALSE(gl.empty());
    tampered.write(gl.front().base,
                   tampered.read(gl.front().base) ^ 1);
    ref.memory = &tampered;
    std::vector<arch::IoRecord> io;
    ref.ioStream = &io;

    fault::CampaignCase c;
    c.app = "fft";
    c.scheme = "cwsp";
    c.schedule = fault::CrashSchedule{g.pivot};
    auto r = fault::runCase(c, ref);
    EXPECT_TRUE(r.ran);
    EXPECT_FALSE(r.pass);
    EXPECT_FALSE(r.consistent);
    EXPECT_GE(r.divergences, 1u);
    EXPECT_FALSE(r.detail.empty());
}

// The checkpoint ledger counts the source that actually ran: a cache
// hit whose checkpoint the simulator refuses (captured for another
// tick than its key names) falls back and is counted as a fallback,
// while a matching one forks.
TEST(FaultCampaign, RefusedForkCountsAsFallback)
{
    Golden g = makeGolden("fft", "cwsp", 1);
    const std::vector<arch::IoRecord> io =
        core::collectIoStream(*g.mod, "main", {});
    core::WholeSystemSim capture(*g.mod, g.cfg);
    auto cr = capture.captureCheckpoints({core::ThreadSpec{}},
                                         {g.pivot, g.pivot + 1});
    ASSERT_EQ(cr.checkpoints.size(), 2u);

    core::CheckpointCache cache;
    cache.insert("stale:" + std::to_string(g.pivot), cr.checkpoints[1]);
    cache.insert("fresh:" + std::to_string(g.pivot), cr.checkpoints[0]);
    fault::GoldenRef ref;
    ref.module = g.mod.get();
    ref.config = &g.cfg;
    ref.result = g.result;
    ref.memory = &g.memory;
    ref.ioStream = &io;
    ref.ckptCache = &cache;

    fault::CampaignCase c;
    c.app = "fft";
    c.scheme = "cwsp";
    c.schedule = fault::CrashSchedule{g.pivot};
    ref.ckptKeyBase = "stale";
    EXPECT_TRUE(fault::runCase(c, ref).pass);
    EXPECT_EQ(cache.stats().forks, 0u);
    EXPECT_EQ(cache.stats().fallbacks, 1u);

    ref.ckptKeyBase = "fresh";
    EXPECT_TRUE(fault::runCase(c, ref).pass);
    EXPECT_EQ(cache.stats().forks, 1u);
    EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(FaultCampaign, CampaignSmokeAllPass)
{
    fault::CampaignOptions opt;
    opt.apps = {"fft"};
    opt.schemes = {"cwsp", "capri", "replaycache"};
    opt.pointsPerKind = 1;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    EXPECT_TRUE(report.allPassed());
    EXPECT_GT(report.casesRun, 0u);
    EXPECT_EQ(report.casesPassed, report.casesRun);
    EXPECT_GT(report.totals.crashesInjected, 0u);
    EXPECT_GT(report.totals.nestedCrashes, 0u);
    // cwsp and replaycache carry media cases; capri (battery, no log
    // media) contributes crash-only cases.
    EXPECT_GT(report.totals.faultsApplied, 0u);

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"cases_run\""), std::string::npos);
    EXPECT_NE(os.str().find("\"totals\""), std::string::npos);

    // cwsp and replaycache enumerate from their streams; battery-backed
    // capri records none and interprets.
    StatsRegistry reg;
    report.fillStats(reg);
    EXPECT_EQ(reg.counterValue("fault_campaign.enumerations.stream"), 2u);
    EXPECT_EQ(reg.counterValue("fault_campaign.enumerations.interpret"),
              1u);
    EXPECT_EQ(reg.counterValue("fault_campaign.enumerations."
                               "interpret_causes.battery_backed"),
              1u);
    EXPECT_EQ(report.enumerations.interpretCauses.describe(),
              "1 battery_backed");
}

// Concurrent campaign: every case of a correct scheme carries a
// durable-linearizability verdict and none is a violation; the
// per-scheme report folds the verdict totals; the jittered schedule
// contributes its own cases.
TEST(FaultCampaign, ConcurrentCampaignChecksDurableLinearizability)
{
    fault::CampaignOptions opt;
    opt.apps = {"cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 2;
    opt.numSchedules = 2;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    EXPECT_TRUE(report.allPassed());
    ASSERT_GT(report.casesRun, 0u);

    bool sawIlv = false;
    std::size_t checked = 0, passes = 0;
    for (const auto &r : report.cases) {
        ASSERT_FALSE(r.dlVerdict.empty()) << r.c.label();
        EXPECT_NE(r.dlVerdict, "violation") << r.c.label();
        sawIlv |= r.c.ilvIndex != 0;
        ++checked;
        passes += r.dlVerdict == "pass";
    }
    EXPECT_TRUE(sawIlv) << "schedule 1 contributed no cases";
    EXPECT_GT(passes, 0u);

    ASSERT_EQ(report.recovery.size(), 1u);
    const auto &st = report.recovery[0];
    EXPECT_EQ(st.dlChecked, checked);
    EXPECT_EQ(st.dlPass, passes);
    EXPECT_EQ(st.dlViolation, 0u);
    EXPECT_EQ(st.dlChecked, st.dlPass + st.dlVacuous);
    // Multicore contexts never replay a stream.
    EXPECT_EQ(report.enumerations.stream, 0u);
    EXPECT_EQ(report.enumerations.interpretCauses.describe(), "2 multicore");

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"dl_verdict\""), std::string::npos);
    EXPECT_NE(os.str().find("\"durable_lin\""), std::string::npos);
}

// The seeded CAS-ordering bug (visible-but-never-durable CAS) must
// be caught by the checker and shrunk to a minimal repro: a single
// crash, no media faults, and jitter only when the schedule is part
// of the failure.
TEST(FaultCampaign, SeededCasBugCaughtAndShrunk)
{
    fault::CampaignOptions opt;
    opt.apps = {"cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 6;
    opt.numSchedules = 3;
    opt.seedCasBug = true;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    ASSERT_FALSE(report.allPassed())
        << "the seeded CAS bug evaded the campaign";
    bool sawViolation = false;
    for (const auto &f : report.failures) {
        if (f.dlVerdict == "violation") {
            sawViolation = true;
            // Shrunk: one crash, media faults gone.
            EXPECT_EQ(f.c.schedule.ticks.size(), 1u)
                << f.c.label();
            EXPECT_TRUE(f.c.plan.faults.empty()) << f.c.label();
        }
    }
    EXPECT_TRUE(sawViolation);
    EXPECT_GT(report.shrinkRuns, 0u);
}

/** The per-worker thread roster of concurrent app @p cp. */
std::vector<core::ThreadSpec>
workerThreads(const workloads::ConcurrentProfile &cp)
{
    std::vector<core::ThreadSpec> threads;
    for (std::uint32_t t = 0; t < cp.params.numWorkers; ++t)
        threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
    return threads;
}

// Contexts that run the same program share one compiled module, and
// cases size their logs to the golden run. Neither may change a
// verdict: re-run every case against a golden reference built the
// unshared way (a freshly compiled module per context, no
// instruction hint) and require the same result.
TEST(FaultCampaign, SharedModulesMatchPerContextBuilds)
{
    fault::CampaignOptions opt;
    opt.apps = {"cstack", "cqueue"};
    opt.schemes = {"cwsp", "replaycache"};
    opt.pointsPerKind = 1;
    opt.numSchedules = 3;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    ASSERT_TRUE(report.allPassed());
    ASSERT_FALSE(report.cases.empty());
    EXPECT_EQ(report.contexts, 12u);
    // cwsp and replaycache compile with different options.
    EXPECT_EQ(report.modulesCompiled, 4u);

    struct PerContext
    {
        core::SystemConfig cfg;
        std::unique_ptr<ir::Module> mod;
        std::vector<core::ThreadSpec> threads;
        workloads::ConcurrentSpec spec;
        std::vector<std::vector<workloads::ConcurrentOp>> ops;
        Word result = 0;
    };
    std::map<std::string, PerContext> contexts;
    const interp::SparseMemory noMemory;
    const std::vector<arch::IoRecord> noIo;
    for (const fault::CaseResult &shared : report.cases) {
        const fault::CampaignCase &c = shared.c;
        const std::string key = c.app + "|" + c.scheme + "|" +
                                std::to_string(c.ilvIndex);
        auto [it, fresh] = contexts.try_emplace(key);
        PerContext &pc = it->second;
        if (fresh) {
            const auto *cp = workloads::findConcurrentApp(c.app);
            ASSERT_NE(cp, nullptr);
            pc.cfg = core::makeSystemConfig(c.scheme);
            pc.cfg.numCores = cp->params.numWorkers;
            pc.cfg.scheme.interleave = core::interleaveSchedule(
                opt.interleaveSeed, c.ilvIndex);
            pc.mod = workloads::buildConcurrentApp(*cp, pc.cfg.compiler);
            pc.threads = workerThreads(*cp);
            pc.spec = workloads::concurrentSpec(*pc.mod, *cp);
            for (std::uint32_t t = 0; t < cp->params.numWorkers; ++t)
                pc.ops.push_back(workloads::concurrentOps(*cp, t));
            pc.result = cp->params.opsPerWorker;
        }
        fault::GoldenRef ref;
        ref.module = pc.mod.get();
        ref.config = &pc.cfg;
        ref.result = pc.result;
        ref.memory = &noMemory;
        ref.ioStream = &noIo;
        ref.threads = &pc.threads;
        ref.dlSpec = &pc.spec;
        ref.dlOps = &pc.ops;
        const fault::CaseResult r = fault::runCase(c, ref);
        EXPECT_EQ(r.pass, shared.pass) << c.label();
        EXPECT_EQ(r.dlVerdict, shared.dlVerdict) << c.label();
        EXPECT_EQ(r.dlInvokedOps, shared.dlInvokedOps) << c.label();
        EXPECT_EQ(r.dlCompletedOps, shared.dlCompletedOps) << c.label();
        EXPECT_EQ(r.recoveryWindows, shared.recoveryWindows)
            << c.label();
        EXPECT_EQ(r.lostWork, shared.lostWork) << c.label();
        EXPECT_EQ(r.divergences, shared.divergences) << c.label();
    }
    EXPECT_EQ(contexts.size(), report.contexts);
}

/**
 * A program that emits device output (no roster app does): per
 * iteration some memory work, then a sequence-stamped record to
 * device 3.
 */
std::unique_ptr<ir::Module>
buildLoggerProgram(std::uint64_t iters)
{
    auto mod = std::make_unique<ir::Module>();
    auto &data = mod->addGlobal("data", 512 * 8);
    mod->layoutMemory();

    auto &f = mod->addFunction("main", 0);
    ir::IRBuilder b(f);
    ir::BlockId entry = b.newBlock();
    ir::BlockId hdr = b.newBlock();
    ir::BlockId body = b.newBlock();
    ir::BlockId exit = b.newBlock();

    const ir::Reg rData = 8, rI = 10, rN = 11, rAcc = 12, rT = 16,
                  rT2 = 17;

    b.setBlock(entry);
    b.movImm(rData, static_cast<std::int64_t>(data.base));
    b.movImm(rI, 0);
    b.movImm(rN, static_cast<std::int64_t>(iters));
    b.movImm(rAcc, 0);
    b.br(hdr);

    b.setBlock(hdr);
    b.cmpUlt(rT, rI, rN);
    b.condBr(rT, body, exit);

    b.setBlock(body);
    b.binOpImm(ir::Opcode::Mul, rT, rI, 0x9e3779b97f4a7c15LL);
    b.shrImm(rT, rT, 50);
    b.andImm(rT, rT, 511 * 8 & ~7);
    b.add(rT2, rData, rT);
    b.load(rT, rT2);
    b.addImm(rT, rT, 1);
    b.store(rT, rT2);
    b.add(rAcc, rAcc, rT);
    b.shlImm(rT, rI, 16);
    b.andImm(rT2, rAcc, 0xffff);
    b.binOp(ir::Opcode::Or, rT, rT, rT2);
    b.ioWrite(rT, 3);
    b.addImm(rI, rI, 1);
    b.br(hdr);

    b.setBlock(exit);
    b.ret(rAcc);
    return mod;
}

/**
 * The reference enumeration: an interpreted timed run with a
 * collector attached through attachTraceSink, which sees every trace
 * category.
 */
fault::CrashPointSet
interpretedEnumeration(const ir::Module &mod, const core::SystemConfig &cfg,
                       const std::vector<core::ThreadSpec> &threads,
                       std::size_t max_per_kind)
{
    fault::CrashPointCollector collector;
    core::WholeSystemSim sim(mod, cfg);
    sim.attachTraceSink(&collector);
    const core::RunResult run = sim.run(threads);
    fault::CrashPointSet set;
    set.runCycles = run.cycles;
    set.runInstrs = run.instructions;
    set.points = collector.points(max_per_kind, run.cycles);
    return set;
}

/** @p got equals @p want field for field (source aside). */
void
expectSamePoints(const fault::CrashPointSet &got,
                 const fault::CrashPointSet &want, const std::string &what)
{
    EXPECT_EQ(got.runCycles, want.runCycles) << what;
    EXPECT_EQ(got.runInstrs, want.runInstrs) << what;
    ASSERT_EQ(got.points.size(), want.points.size()) << what;
    std::size_t differ = 0;
    for (std::size_t i = 0; i < got.points.size(); ++i) {
        const fault::CrashPoint &a = got.points[i];
        const fault::CrashPoint &b = want.points[i];
        differ += a.tick != b.tick || a.kind != b.kind || a.arg != b.arg;
    }
    EXPECT_EQ(differ, 0u) << what << ": points differ";
}

// The campaign takes each context's golden cycles and instruction
// count from the crash-point enumeration run instead of timing the
// program again, so that run must be a plain timed run: attaching
// the collector may not move a cycle. A single-core context is
// prepared with one interpreted pass (prepareGoldenRun): its golden
// facts come from the commit-stream recording and its crash points
// from replaying the stream, so both must equal what the functional
// golden passes and an interpreted, every-category enumeration give.
TEST(FaultCampaign, EnumerationRunIsThePlainRun)
{
    const auto *cqueue = workloads::findConcurrentApp("cqueue");
    ASSERT_NE(cqueue, nullptr);
    ASSERT_EQ(cqueue->params.numWorkers, 3u);
    const auto workers = workerThreads(*cqueue);
    for (const std::string &scheme : fault::allSchemeNames()) {
        const core::SystemConfig base = core::makeSystemConfig(scheme);
        auto conc = workloads::buildConcurrentApp(*cqueue, base.compiler);
        for (std::uint32_t ilv : {0u, 1u}) {
            core::SystemConfig cfg = base;
            cfg.numCores = cqueue->params.numWorkers;
            cfg.scheme.interleave = core::interleaveSchedule(1, ilv);
            const std::string what =
                "cqueue/" + scheme + " ilv" + std::to_string(ilv);
            auto pts = fault::enumerateCrashPoints(*conc, cfg, workers);
            EXPECT_EQ(pts.source, core::ExecSource::Interpret) << what;
            core::WholeSystemSim sim(*conc, cfg);
            const core::RunResult run = sim.run(workers);
            EXPECT_EQ(pts.runCycles, run.cycles) << what;
            EXPECT_EQ(pts.runInstrs, run.instructions) << what;
            expectSamePoints(pts,
                             interpretedEnumeration(*conc, cfg, workers, 8),
                             what);
        }

        for (const char *app :
             {"fft", "bzip2", "lbm", "tatp", "astar", "logger"}) {
            const std::string what = std::string(app) + "/" + scheme;
            std::unique_ptr<ir::Module> mod;
            if (std::string(app) == "logger") {
                mod = buildLoggerProgram(96);
                compiler::compileForWsp(*mod, base.compiler);
            } else {
                mod = workloads::buildApp(workloads::appByName(app),
                                          base.compiler);
            }
            interp::SparseMemory memory;
            const Word result =
                interp::runToCompletion(*mod, memory, "main", {});
            const auto io = core::collectIoStream(*mod, "main", {});
            if (std::string(app) == "logger") {
                ASSERT_EQ(io.size(), 96u);
            }
            // The plain timed run: no sink, no ring.
            core::WholeSystemSim sim(*mod, base);
            const core::RunResult run = sim.run("main");
            EXPECT_GT(run.instructions, 0u) << what;

            const fault::GoldenRun golden =
                fault::prepareGoldenRun(*mod, base, 0, 200'000'000);
            EXPECT_EQ(golden.hasStream, !base.scheme.batteryBacked)
                << what;
            EXPECT_EQ(golden.points.source,
                      golden.hasStream ? core::ExecSource::Stream
                                       : core::ExecSource::Interpret)
                << what;
            EXPECT_EQ(golden.result, result) << what;
            EXPECT_TRUE(golden.memory.equals(memory)) << what;
            ASSERT_EQ(golden.io.size(), io.size()) << what;
            for (std::size_t i = 0; i < io.size(); ++i) {
                EXPECT_EQ(golden.io[i].device, io[i].device) << what;
                EXPECT_EQ(golden.io[i].payload, io[i].payload) << what;
                EXPECT_EQ(golden.io[i].region, io[i].region) << what;
                EXPECT_EQ(golden.io[i].core, io[i].core) << what;
            }
            EXPECT_EQ(golden.points.runCycles, run.cycles) << what;
            EXPECT_EQ(golden.points.runInstrs, run.instructions) << what;
            const fault::CrashPointSet ref = interpretedEnumeration(
                *mod, base, {core::ThreadSpec{}}, 0);
            // baseline and psp form no regions, so they have none.
            if (scheme != "baseline" && scheme != "psp") {
                EXPECT_GT(ref.points.size(), 0u) << what;
            }
            expectSamePoints(golden.points, ref, what);

            // The four-argument form still interprets.
            if (std::string(app) == "fft") {
                auto pts = fault::enumerateCrashPoints(
                    *mod, base, {core::ThreadSpec{}});
                EXPECT_EQ(pts.source, core::ExecSource::Interpret);
                EXPECT_EQ(pts.runCycles, run.cycles) << what;
                EXPECT_EQ(pts.runInstrs, run.instructions) << what;
                expectSamePoints(pts,
                                 interpretedEnumeration(
                                     *mod, base, {core::ThreadSpec{}}, 8),
                                 what);
            }
        }
    }
}

// Every preparation pass of a campaign (record, the battery-backed
// golden pass, enumeration, capture) honours the campaign's
// instruction budget: a budget shorter than the program refuses the
// campaign before any case runs, under every scheme, forked or not.
TEST(FaultCampaign, PreparationHonoursTheInstructionBudget)
{
    for (const std::string &scheme : fault::allSchemeNames()) {
        for (bool fork : {true, false}) {
            const std::string what =
                scheme + (fork ? " forked" : " unforked");
            fault::CampaignOptions opt;
            opt.apps = {"fft"};
            opt.schemes = {scheme};
            opt.pointsPerKind = 1;
            opt.forkCheckpoints = fork;
            opt.maxInstrs = 1000;
            opt.jobs = 1;
            try {
                fault::runCampaign(opt);
                ADD_FAILURE() << what << ": prepared past the budget";
            } catch (const std::exception &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "instruction budget exceeded"),
                          std::string::npos)
                    << what << ": " << e.what();
            }
        }
    }
}

} // namespace
} // namespace cwsp
