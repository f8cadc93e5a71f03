/**
 * @file
 * Replay-equivalence suite: a timed run driven from a compiled commit
 * stream (WholeSystemSim::runReplay / the runWithCrashes replay path)
 * must be bit-identical to the interpreted run it was recorded from —
 * every RunResult field, the exported statistics JSON, the trace
 * stream, and (for crash sweeps) the full CrashRunResult.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/commit_stream.hh"
#include "core/whole_system_sim.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

const std::vector<std::string> kSchemes = {
    "baseline", "cwsp", "capri", "ido", "replaycache", "psp",
};

/** Collects every trace event into a flat vector. */
class CollectSink final : public sim::TraceSink
{
  public:
    void
    onTraceEvent(const sim::TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<sim::TraceEvent> events;
};

void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.returnValues, b.returnValues);
    EXPECT_EQ(a.meanRegionInstrs, b.meanRegionInstrs);
    EXPECT_EQ(a.meanWbOccupancy, b.meanWbOccupancy);
    EXPECT_EQ(a.wpqHits, b.wpqHits);
    EXPECT_EQ(a.nvmReads, b.nvmReads);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pbFullStalls, b.pbFullStalls);
    EXPECT_EQ(a.rbtFullStalls, b.rbtFullStalls);
    EXPECT_EQ(a.wbPersistDelays, b.wbPersistDelays);
}

std::string
statsJson(core::WholeSystemSim &sim)
{
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/**
 * Every (app, scheme) pair: interpret once, replay the recorded
 * stream once, and compare results and statistics bit-for-bit. The
 * stream is recorded per pair because the compiled module depends on
 * the scheme's compiler options.
 */
TEST(ReplayEquiv, AllAppsAllSchemes)
{
    for (const auto &app : workloads::appTable()) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(app.name + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(app, cfg.compiler);
            auto stream = core::recordCommitStream(*mod, "main", {});

            core::WholeSystemSim interp(*mod, cfg);
            core::RunResult ref = interp.run("main");
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            core::RunResult got = replay.runReplay(stream);
            expectSameResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/** Trace streams must match event-for-event, batching included. */
TEST(ReplayEquiv, TraceStreamsIdentical)
{
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        CollectSink refSink;
        core::WholeSystemSim interp(*mod, cfg);
        interp.attachTraceSink(&refSink);
        interp.run("main");

        CollectSink gotSink;
        core::WholeSystemSim replay(*mod, cfg);
        replay.attachTraceSink(&gotSink);
        replay.runReplay(stream);

        ASSERT_EQ(refSink.events.size(), gotSink.events.size());
        for (std::size_t i = 0; i < refSink.events.size(); ++i)
            EXPECT_TRUE(refSink.events[i] == gotSink.events[i])
                << "event " << i << " differs";
    }
}

void
expectSameCrashResult(const core::CrashRunResult &a,
                      const core::CrashRunResult &b)
{
    expectSameResult(a.result, b.result);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.persistedStores, b.persistedStores);
    EXPECT_EQ(a.revertedStores, b.revertedStores);
    EXPECT_EQ(a.reexecutedInstrs, b.reexecutedInstrs);
    EXPECT_EQ(a.lostWork, b.lostWork);
    EXPECT_EQ(a.resumeRegions, b.resumeRegions);
    ASSERT_EQ(a.ioStream.size(), b.ioStream.size());
    for (std::size_t i = 0; i < a.ioStream.size(); ++i) {
        EXPECT_EQ(a.ioStream[i].device, b.ioStream[i].device);
        EXPECT_EQ(a.ioStream[i].payload, b.ioStream[i].payload);
    }
    EXPECT_EQ(a.recoveryWindows, b.recoveryWindows);
}

/**
 * Crash sweep: the replay-accelerated path must reproduce the
 * interpreted sweep exactly across the whole run length, including
 * the crash-instant state, recovery accounting, and the stats of the
 * post-recovery completion.
 */
TEST(ReplayEquiv, CrashSweepIdentical)
{
    for (const auto &scheme :
         {std::string("cwsp"), std::string("ido"),
          std::string("replaycache")}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        core::RunResult whole = probe.run("main");

        std::vector<core::ThreadSpec> threads(1);
        const Tick points[] = {whole.cycles / 7, whole.cycles / 3,
                               whole.cycles / 2,
                               (whole.cycles * 9) / 10};
        for (Tick t : points) {
            SCOPED_TRACE("crash@" + std::to_string(t));
            fault::CrashSchedule schedule{t};

            core::WholeSystemSim interp(*mod, cfg);
            auto ref = interp.runWithCrashes(threads, schedule);
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            auto got = replay.runWithCrashes(threads, schedule, {},
                                             200'000'000, &stream);
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/** A stream for a different program must be ignored, not misapplied. */
TEST(ReplayEquiv, MismatchedStreamFallsBack)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto other = workloads::buildApp(workloads::appByName("astar"),
                                     cfg.compiler);
    auto stream = core::recordCommitStream(*other, "main", {});

    std::vector<core::ThreadSpec> threads(1);
    core::WholeSystemSim interp(*mod, cfg);
    auto ref = interp.runWithCrashes(threads, fault::CrashSchedule{500});

    core::WholeSystemSim replay(*mod, cfg);
    auto got = replay.runWithCrashes(threads, fault::CrashSchedule{500},
                                     {}, 200'000'000, &stream);
    expectSameCrashResult(ref, got);
    EXPECT_EQ(got.source, core::ExecSource::Interpret);
    EXPECT_EQ(got.refusal, core::SourceRefusal::Module);
}

} // namespace
} // namespace cwsp
