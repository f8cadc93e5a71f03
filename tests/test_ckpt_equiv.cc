/**
 * @file
 * Checkpoint-fork equivalence suite: a crash run forked from a
 * SimCheckpoint (WholeSystemSim::captureCheckpoints + the
 * runWithCrashes fork path) must be bit-identical to from-scratch
 * execution — every CrashRunResult field, the exported statistics
 * JSON, and the trace stream — across every app and scheme, and
 * through the edge cases a sweep actually hits: mid-drain capture
 * instants, nested crashes landing inside a forked epoch, media
 * faults decorating a forked case, multicore crash points, and the
 * fork gates that must fall back with their refusal reason
 * (mismatched identity or configuration, attached trace sink). The
 * CheckpointCache sharing layer (LRU, byte cap, stats) is unit-tested
 * alongside.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/commit_stream.hh"
#include "core/interleave.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "fault/crash_points.hh"
#include "fault/fault_model.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workloads/concurrent.hh"
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

void
expectSameFaultStats(const fault::FaultStats &a,
                     const fault::FaultStats &b)
{
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.nestedCrashes, b.nestedCrashes);
    EXPECT_EQ(a.recoveryCrashes, b.recoveryCrashes);
    EXPECT_EQ(a.undoReplayPasses, b.undoReplayPasses);
    EXPECT_EQ(a.partialReplayRecords, b.partialReplayRecords);
    EXPECT_EQ(a.faultsRequested, b.faultsRequested);
    EXPECT_EQ(a.faultsApplied, b.faultsApplied);
    EXPECT_EQ(a.corruptRecordsDetected, b.corruptRecordsDetected);
    EXPECT_EQ(a.tornTailsDropped, b.tornTailsDropped);
    EXPECT_EQ(a.regionRestarts, b.regionRestarts);
    EXPECT_EQ(a.fullRestarts, b.fullRestarts);
    EXPECT_EQ(a.staleSlotsDetected, b.staleSlotsDetected);
    EXPECT_EQ(a.atomicResumes, b.atomicResumes);
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
    expectSameFaultStats(a.faults, b.faults);
    EXPECT_EQ(a.recoveryWindows, b.recoveryWindows);
}

/** expectSameCrashResult, plus each recovery window's phase tiling. */
void
expectSameCrashRun(const core::CrashRunResult &a,
                   const core::CrashRunResult &b)
{
    expectSameCrashResult(a, b);
    ASSERT_EQ(a.recoveryBreakdowns.size(), b.recoveryBreakdowns.size());
    for (std::size_t w = 0; w < a.recoveryBreakdowns.size(); ++w) {
        const auto &x = a.recoveryBreakdowns[w];
        const auto &y = b.recoveryBreakdowns[w];
        EXPECT_EQ(x.window, y.window);
        EXPECT_EQ(x.replayRecords, y.replayRecords);
        EXPECT_EQ(x.sliceOps, y.sliceOps);
        for (std::size_t p = 0; p < core::kNumRecoveryPhases; ++p)
            EXPECT_EQ(x.phase[p], y.phase[p]);
    }
}

/** Every field of every store record, in order. */
void
expectSameStores(const std::vector<arch::StoreRecord> &a,
                 const std::vector<arch::StoreRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    auto fields = [](const arch::StoreRecord &s) {
        return std::tie(s.addr, s.value, s.persistTime, s.ackTime,
                        s.region, s.core, s.mc, s.logged, s.isCkpt,
                        s.isAtomic);
    };
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (fields(a[i]) != fields(b[i])) {
            ADD_FAILURE() << "store record " << i << " differs: persist "
                          << a[i].persistTime << " vs "
                          << b[i].persistTime << ", ack " << a[i].ackTime
                          << " vs " << b[i].ackTime;
            return;
        }
    }
}

std::string
statsJson(core::WholeSystemSim &sim)
{
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/**
 * The all-apps sweep, one case per scheme: tests/CMakeLists.txt
 * registers each as its own ctest entry, so `ctest -j` runs the
 * schemes side by side.
 */
class CkptEquivSweep : public ::testing::TestWithParam<std::string>
{
};

INSTANTIATE_TEST_SUITE_P(
    EveryScheme, CkptEquivSweep, ::testing::ValuesIn(kSchemes),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/**
 * Every app under the scheme: capture a checkpoint at mid-run, then
 * run the crash case forked and from scratch and compare everything
 * bit-for-bit. The capture pass's RunResult must equal the golden
 * (uninterrupted) run, so the capture doubles as the golden pass of
 * a sweep.
 */
TEST_P(CkptEquivSweep, AllAppsForkedIdentical)
{
    const std::string &scheme = GetParam();
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &app : workloads::appTable()) {
        SCOPED_TRACE(app.name + "/" + scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(app, cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        core::RunResult golden = probe.runReplay(stream);
        const Tick tick = golden.cycles / 2;

        core::WholeSystemSim capture(*mod, cfg);
        auto cr = capture.captureCheckpoints(threads, {tick}, 200'000'000,
                                             &stream);
        ASSERT_EQ(cr.checkpoints.size(), 1u);
        expectSameResult(golden, cr.result);

        fault::CrashSchedule schedule{tick};
        core::WholeSystemSim scratch(*mod, cfg);
        auto ref = scratch.runWithCrashes(threads, schedule, {},
                                          200'000'000, &stream);
        std::string refJson = statsJson(scratch);

        core::WholeSystemSim forked(*mod, cfg);
        auto got = forked.runWithCrashes(threads, schedule, {}, 200'000'000,
                                         &stream, cr.checkpoints[0].get());
        expectSameCrashResult(ref, got);
        EXPECT_EQ(refJson, statsJson(forked));
        EXPECT_EQ(got.source, core::ExecSource::Fork);
    }
}

/**
 * Checkpoints captured during an outcome replay hold no cache tags: a
 * fork never reads one (it restores at its own crash tick, and the
 * crash empties every cache before the next epoch starts). Forks from
 * them must equal from-scratch runs, and each must be smaller than the
 * checkpoint an interpreted capture takes at the same tick.
 */
TEST(CkptEquiv, ReplayCapturedCheckpointsHoldNoTags)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const std::string scheme : {"cwsp", "psp", "capri"}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("astar"),
                                       cfg.compiler);
        auto stream =
            core::recordCommitStream(*mod, "main", {}, cfg.hierarchy);

        core::WholeSystemSim probe(*mod, cfg);
        const Tick cycles = probe.runReplay(stream).cycles;
        const std::vector<Tick> ticks = {cycles / 5, cycles / 2,
                                         (cycles * 4) / 5};

        core::WholeSystemSim replayed(*mod, cfg);
        auto tagless = replayed.captureCheckpoints(threads, ticks,
                                                   200'000'000, &stream);
        core::WholeSystemSim interpreted(*mod, cfg);
        auto tagged = interpreted.captureCheckpoints(threads, ticks);
        expectSameResult(tagged.result, tagless.result);
        ASSERT_EQ(tagless.checkpoints.size(), ticks.size());
        ASSERT_EQ(tagged.checkpoints.size(), ticks.size());

        for (std::size_t i = 0; i < ticks.size(); ++i) {
            SCOPED_TRACE("tick " + std::to_string(ticks[i]));
            EXPECT_LT(tagless.checkpoints[i]->bytes(),
                      tagged.checkpoints[i]->bytes());

            fault::CrashSchedule schedule{ticks[i]};
            core::WholeSystemSim scratch(*mod, cfg);
            auto ref = scratch.runWithCrashes(threads, schedule);
            std::string refJson = statsJson(scratch);

            core::WholeSystemSim forked(*mod, cfg);
            auto got = forked.runWithCrashes(
                threads, schedule, {}, 200'000'000, &stream,
                tagless.checkpoints[i].get());
            EXPECT_EQ(got.source, core::ExecSource::Fork);
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(forked));
            EXPECT_TRUE(scratch.memory().equals(forked.memory()));
        }
    }
}

/**
 * Capri checkpoints captured from a stream hold no memory image and
 * no control snapshots: the capture instant's stream cursor is where
 * a battery-backed crash continues. The capri schedules (single
 * crashes across the run; nested ones at +1, +66 and +4096 past a
 * mid-run crash) forked from them equal the from-scratch runs in
 * every CrashRunResult field, the recovery breakdowns and the stats
 * JSON, and both end on the uninterrupted run's memory image.
 */
TEST(CkptEquiv, CapriForksContinueTheStream)
{
    std::vector<core::ThreadSpec> threads(1);
    const auto cfg = core::makeSystemConfig("capri");
    for (const std::string app : {"fft", "bzip2", "tatp", "astar"}) {
        auto mod = workloads::buildApp(workloads::appByName(app),
                                       cfg.compiler);
        interp::SparseMemory golden;
        auto stream = core::recordCommitStream(
            *mod, "main", {}, cfg.hierarchy, 2'000'000'000, 0, &golden);
        core::WholeSystemSim probe(*mod, cfg);
        const Tick cycles = probe.runReplay(stream).cycles;
        const Tick mid = cycles / 2;
        const std::vector<Tick> ticks = {cycles / 7, cycles / 3, mid,
                                         (cycles * 9) / 10};
        const std::vector<fault::CrashSchedule> schedules = {
            {ticks[0]}, {ticks[1]}, {mid},      {ticks[3]},
            {mid, 1},   {mid, 66},  {mid, 4096}};

        core::WholeSystemSim capture(*mod, cfg);
        auto cr = capture.captureCheckpoints(threads, ticks, 200'000'000,
                                             &stream);
        ASSERT_EQ(cr.checkpoints.size(), ticks.size());
        for (const auto &ck : cr.checkpoints) {
            EXPECT_TRUE(ck->position.cursor.has_value());
            EXPECT_TRUE(ck->position.exactSnaps.empty());
        }
        for (const fault::CrashSchedule &schedule : schedules) {
            SCOPED_TRACE(app + " @" + schedule.describe());
            const auto at = std::find(ticks.begin(), ticks.end(),
                                      schedule.ticks[0]);
            const core::SimCheckpoint &ck =
                *cr.checkpoints[static_cast<std::size_t>(at - ticks.begin())];

            core::WholeSystemSim scratch(*mod, cfg);
            auto ref = scratch.runWithCrashes(threads, schedule, {},
                                              200'000'000, &stream);
            core::WholeSystemSim forked(*mod, cfg);
            auto got = forked.runWithCrashes(threads, schedule, {},
                                             200'000'000, &stream, &ck);
            EXPECT_EQ(ref.source, core::ExecSource::Stream);
            EXPECT_EQ(got.source, core::ExecSource::Fork);
            EXPECT_EQ(ref.faults.nestedCrashes, schedule.size() - 1);
            expectSameCrashRun(ref, got);
            EXPECT_TRUE(scratch.memory().equals(golden));
            EXPECT_TRUE(forked.memory().equals(golden));
            EXPECT_EQ(statsJson(scratch), statsJson(forked));
        }
    }
}

/**
 * One capture pass, several checkpoints: early, mid and late in the
 * run, one past its end, and (ReplayCache) two while a region's
 * stores wait for their stamp. They all read the pass's one log, and a
 * fork from each equals the from-scratch run field for field, the
 * first crash's store log and durable image and the stats JSON
 * included. ReplayCache stamps a region's stores at the region's next
 * boundary, after the capture, inside the shared log: a checkpoint
 * captured while stores still wait must read them unstamped, as its
 * capture instant saw them (SimCheckpoint::storeTail).
 */
TEST(CkptEquiv, SharedLogForksMatchScratch)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const std::string app : {"bzip2", "astar", "tatp"}) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(app + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(workloads::appByName(app),
                                           cfg.compiler);
            auto stream = core::recordCommitStream(*mod, "main", {});

            core::WholeSystemSim probe(*mod, cfg);
            const Tick cycles = probe.runReplay(stream).cycles;
            std::vector<Tick> ticks = {cycles / 10, cycles / 2,
                                       (cycles * 9) / 10, cycles + 1};
            if (scheme == "replaycache") {
                // ReplayCache spends most of its time stalled at
                // boundaries, just after stamping, so few instants
                // find stores waiting. Add the first two after a
                // mid-run region begins.
                auto whole = probe.captureCheckpoints(
                    threads, {cycles + 1}, 200'000'000, &stream);
                const auto &regions =
                    whole.checkpoints[0]->log->regions;
                const Tick begin = regions[regions.size() / 2].begin;
                std::vector<Tick> near;
                for (Tick d = 0; d < 256; ++d)
                    near.push_back(begin + d);
                auto found = probe.captureCheckpoints(
                    threads, near, 200'000'000, &stream);
                std::size_t added = 0;
                for (const auto &ck : found.checkpoints) {
                    if (!ck->storeTail.empty() && added++ < 2)
                        ticks.push_back(ck->crashTick);
                }
                ASSERT_GT(added, 0u);
                std::sort(ticks.begin(), ticks.end());
            }

            core::WholeSystemSim capture(*mod, cfg);
            auto cr = capture.captureCheckpoints(threads, ticks,
                                                 200'000'000, &stream);
            ASSERT_EQ(cr.checkpoints.size(), ticks.size());
            const core::RecordingLog *log = cr.checkpoints[0]->log.get();
            ASSERT_NE(log, nullptr);

            std::size_t stampedAfterCapture = 0;
            for (std::size_t i = 0; i < ticks.size(); ++i) {
                SCOPED_TRACE("crash@" + std::to_string(ticks[i]));
                const core::SimCheckpoint &ck = *cr.checkpoints[i];
                EXPECT_EQ(ck.log.get(), log);
                ASSERT_LE(ck.sharedStores, log->stores.size());
                if (scheme != "replaycache") {
                    EXPECT_TRUE(ck.storeTail.empty());
                } else if (!ck.storeTail.empty()) {
                    // The tail starts at a store waiting for its
                    // region's boundary. Past the last capture the
                    // log is trimmed; before it, the pass stamped
                    // that store in the shared log.
                    EXPECT_EQ(ck.storeTail.front().ackTime, kTickNever);
                    if (ck.sharedStores < log->stores.size() &&
                        log->stores[ck.sharedStores].ackTime !=
                            kTickNever) {
                        ++stampedAfterCapture;
                    }
                }

                fault::CrashSchedule schedule{ticks[i]};
                core::WholeSystemSim scratch(*mod, cfg);
                scratch.setCaptureFirstCrash(true);
                auto ref = scratch.runWithCrashes(
                    threads, schedule, {}, 200'000'000, &stream);

                core::WholeSystemSim forked(*mod, cfg);
                forked.setCaptureFirstCrash(true);
                auto got = forked.runWithCrashes(
                    threads, schedule, {}, 200'000'000, &stream, &ck);
                EXPECT_EQ(got.source, core::ExecSource::Fork);
                expectSameCrashResult(ref, got);
                EXPECT_EQ(ref.hasFirstCrash, got.hasFirstCrash);
                EXPECT_EQ(ref.firstFullRestart, got.firstFullRestart);
                EXPECT_TRUE(
                    ref.firstDurableImage.equals(got.firstDurableImage));
                expectSameStores(ref.firstStores, got.firstStores);
                EXPECT_EQ(statsJson(scratch), statsJson(forked));
            }
            if (scheme == "replaycache") {
                EXPECT_GT(stampedAfterCapture, 0u)
                    << "no capture landed in a region whose stores "
                       "still waited for their stamp";
            }
        }
    }
}

/**
 * The trace ring after a forked run must be byte-identical to the
 * from-scratch ring: the checkpoint carries the capture-instant ring
 * window, and the forked tail appends to it exactly where the
 * re-executed prefix would have.
 */
TEST(CkptEquiv, TraceRingIdenticalForked)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        const Tick tick = probe.runReplay(stream).cycles / 3;

        sim::TraceBuffer capTrace(1 << 12);
        core::WholeSystemSim capture(*mod, cfg);
        capture.attachTrace(&capTrace);
        auto cr = capture.captureCheckpoints(threads, {tick},
                                             200'000'000, &stream);

        fault::CrashSchedule schedule{tick};
        sim::TraceBuffer refTrace(1 << 12);
        core::WholeSystemSim scratch(*mod, cfg);
        scratch.attachTrace(&refTrace);
        scratch.runWithCrashes(threads, schedule, {}, 200'000'000,
                               &stream);

        sim::TraceBuffer gotTrace(1 << 12);
        core::WholeSystemSim forked(*mod, cfg);
        forked.attachTrace(&gotTrace);
        forked.runWithCrashes(threads, schedule, {}, 200'000'000,
                              &stream, cr.checkpoints[0].get());

        EXPECT_EQ(refTrace.recorded(), gotTrace.recorded());
        auto refEvents = refTrace.snapshot();
        auto gotEvents = gotTrace.snapshot();
        ASSERT_EQ(refEvents.size(), gotEvents.size());
        for (std::size_t i = 0; i < refEvents.size(); ++i)
            EXPECT_TRUE(refEvents[i] == gotEvents[i])
                << "event " << i << " differs";
    }
}

/**
 * Mid-drain fork: a dense band of capture instants around a busy
 * point lands forks while persist buffers and write buffers hold
 * in-flight entries (the component blob must carry them). Every
 * fork in the band must match its from-scratch twin.
 */
TEST(CkptEquiv, MidDrainForkBand)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &scheme :
         {std::string("cwsp"), std::string("psp")}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        const Tick mid = probe.runReplay(stream).cycles / 3;
        std::vector<Tick> ticks;
        for (Tick t = mid > 4 ? mid - 4 : 1; t < mid + 4; ++t)
            ticks.push_back(t);

        core::WholeSystemSim capture(*mod, cfg);
        auto cr = capture.captureCheckpoints(threads, ticks,
                                             200'000'000, &stream);
        ASSERT_EQ(cr.checkpoints.size(), ticks.size());

        for (std::size_t i = 0; i < ticks.size(); ++i) {
            SCOPED_TRACE("crash@" + std::to_string(ticks[i]));
            fault::CrashSchedule schedule{ticks[i]};
            core::WholeSystemSim scratch(*mod, cfg);
            auto ref = scratch.runWithCrashes(
                threads, schedule, {}, 200'000'000, &stream);
            std::string refJson = statsJson(scratch);

            core::WholeSystemSim forked(*mod, cfg);
            auto got = forked.runWithCrashes(
                threads, schedule, {}, 200'000'000, &stream,
                cr.checkpoints[i].get());
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(forked));
        }
    }
}

/**
 * Nested crashes whose second failure lands inside the forked epoch's
 * recovery window (+1, inside boot), just past it, and deep into the
 * re-execution. Only the first epoch forks; the nested failures run
 * the full hardened protocol and must match from-scratch exactly.
 */
TEST(CkptEquiv, NestedCrashInForkedEpoch)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &scheme :
         {std::string("cwsp"), std::string("capri"),
          std::string("ido")}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        const Tick tick = probe.run("main").cycles / 2;

        core::WholeSystemSim capture(*mod, cfg);
        auto cr = capture.captureCheckpoints(threads, {tick},
                                             200'000'000, &stream);

        const Tick after[] = {1, core::recovery_timing::kBootCycles + 2,
                              4096};
        for (Tick dt : after) {
            SCOPED_TRACE("nested+" + std::to_string(dt));
            fault::CrashSchedule schedule{tick, dt};
            core::WholeSystemSim scratch(*mod, cfg);
            auto ref = scratch.runWithCrashes(
                threads, schedule, {}, 200'000'000, &stream);
            std::string refJson = statsJson(scratch);

            core::WholeSystemSim forked(*mod, cfg);
            auto got = forked.runWithCrashes(
                threads, schedule, {}, 200'000'000, &stream,
                cr.checkpoints[0].get());
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(forked));
        }
    }
}

/**
 * Media faults seeded after the fork: the fault injector decorates
 * the undo logs the forked epoch reconstructed from the checkpoint's
 * recording, so detection, degradation, and the hardened recovery must
 * match a from-scratch faulted run bit-for-bit.
 */
TEST(CkptEquiv, MediaFaultAfterFork)
{
    std::vector<core::ThreadSpec> threads(1);
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});

    core::WholeSystemSim probe(*mod, cfg);
    const Tick tick = probe.runReplay(stream).cycles / 2;

    core::WholeSystemSim capture(*mod, cfg);
    auto cr = capture.captureCheckpoints(threads, {tick},
                                         200'000'000, &stream);

    const fault::FaultKind kinds[] = {
        fault::FaultKind::TornAppend,
        fault::FaultKind::BitFlip,
        fault::FaultKind::StaleCheckpointSlot,
    };
    for (fault::FaultKind kind : kinds) {
        SCOPED_TRACE(fault::faultKindName(kind));
        fault::FaultPlan plan;
        fault::MediaFault f;
        f.kind = kind;
        f.crashIndex = 0;
        f.bit = 5;
        plan.faults.push_back(f);

        fault::CrashSchedule schedule{tick};
        core::WholeSystemSim scratch(*mod, cfg);
        auto ref = scratch.runWithCrashes(threads, schedule, plan,
                                          200'000'000, &stream);
        std::string refJson = statsJson(scratch);

        core::WholeSystemSim forked(*mod, cfg);
        auto got = forked.runWithCrashes(threads, schedule, plan,
                                         200'000'000, &stream,
                                         cr.checkpoints[0].get());
        expectSameCrashResult(ref, got);
        EXPECT_EQ(refJson, statsJson(forked));
        // The seeded fault was actually evaluated, not skipped by the
        // fork (a silently inert plan would pass equality vacuously).
        EXPECT_EQ(got.faults.faultsRequested, 1u);
    }
}

/**
 * Fork gates: a checkpoint for the wrong tick or the wrong program
 * must be ignored (from-scratch execution), never misapplied; an
 * external trace sink forces the same fallback because the sink
 * would miss the prefix events a fork skips.
 */
TEST(CkptEquiv, MismatchedForkFallsBack)
{
    std::vector<core::ThreadSpec> threads(1);
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});

    core::WholeSystemSim probe(*mod, cfg);
    const Tick tick = probe.runReplay(stream).cycles / 2;

    core::WholeSystemSim capture(*mod, cfg);
    auto cr = capture.captureCheckpoints(threads, {tick},
                                         200'000'000, &stream);

    // Reference: from-scratch at a different tick.
    fault::CrashSchedule other{tick + 17};
    core::WholeSystemSim scratch(*mod, cfg);
    auto ref = scratch.runWithCrashes(threads, other, {},
                                      200'000'000, &stream);
    std::string refJson = statsJson(scratch);

    // The checkpoint's tick doesn't match the schedule: fall back.
    core::WholeSystemSim wrongTick(*mod, cfg);
    auto got = wrongTick.runWithCrashes(threads, other, {},
                                        200'000'000, &stream,
                                        cr.checkpoints[0].get());
    expectSameCrashResult(ref, got);
    EXPECT_EQ(refJson, statsJson(wrongTick));
    EXPECT_EQ(got.source, core::ExecSource::Stream);
    EXPECT_EQ(got.refusal, core::SourceRefusal::Tick);

    // A checkpoint captured for a different module: fall back.
    auto otherMod = workloads::buildApp(workloads::appByName("astar"),
                                        cfg.compiler);
    auto otherStream = core::recordCommitStream(*otherMod, "main", {});
    core::WholeSystemSim otherCapture(*otherMod, cfg);
    auto otherCr = otherCapture.captureCheckpoints(
        threads, {tick}, 200'000'000, &otherStream);
    fault::CrashSchedule same{tick};
    core::WholeSystemSim scratchSame(*mod, cfg);
    auto refSame = scratchSame.runWithCrashes(threads, same, {},
                                              200'000'000, &stream);
    core::WholeSystemSim wrongMod(*mod, cfg);
    auto gotSame = wrongMod.runWithCrashes(
        threads, same, {}, 200'000'000, &stream,
        otherCr.checkpoints[0].get());
    expectSameCrashResult(refSame, gotSame);
    EXPECT_EQ(gotSame.refusal, core::SourceRefusal::Module);

    // A checkpoint of the same program and scheme captured under
    // another SystemConfig (here the default persist-path bandwidth):
    // its component state belongs to the other design point, so fall
    // back.
    auto slowCfg = cfg;
    slowCfg.scheme.path.bandwidthGBs = 1;
    core::WholeSystemSim scratchSlow(*mod, slowCfg);
    auto refSlow = scratchSlow.runWithCrashes(threads, same, {},
                                              200'000'000, &stream);
    std::string refSlowJson = statsJson(scratchSlow);
    core::WholeSystemSim wrongCfg(*mod, slowCfg);
    auto gotSlow = wrongCfg.runWithCrashes(threads, same, {},
                                           200'000'000, &stream,
                                           cr.checkpoints[0].get());
    expectSameCrashResult(refSlow, gotSlow);
    EXPECT_EQ(refSlowJson, statsJson(wrongCfg));
    EXPECT_EQ(gotSlow.source, core::ExecSource::Stream);
    EXPECT_EQ(gotSlow.refusal, core::SourceRefusal::Config);
}

/** An external trace sink sees every prefix event even when a fork
 *  is offered: the gate falls back and the streams stay identical. */
TEST(CkptEquiv, SinkAttachedForkFallsBack)
{
    std::vector<core::ThreadSpec> threads(1);
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});

    core::WholeSystemSim probe(*mod, cfg);
    const Tick tick = probe.runReplay(stream).cycles / 2;

    core::WholeSystemSim capture(*mod, cfg);
    auto cr = capture.captureCheckpoints(threads, {tick},
                                         200'000'000, &stream);

    fault::CrashSchedule schedule{tick};
    CollectSink refSink;
    core::WholeSystemSim scratch(*mod, cfg);
    scratch.attachTraceSink(&refSink);
    auto ref = scratch.runWithCrashes(threads, schedule, {},
                                      200'000'000, &stream);

    CollectSink gotSink;
    core::WholeSystemSim forked(*mod, cfg);
    forked.attachTraceSink(&gotSink);
    auto got = forked.runWithCrashes(threads, schedule, {},
                                     200'000'000, &stream,
                                     cr.checkpoints[0].get());
    expectSameCrashResult(ref, got);
    EXPECT_EQ(got.refusal, core::SourceRefusal::TraceSink);
    ASSERT_EQ(refSink.events.size(), gotSink.events.size());
    for (std::size_t i = 0; i < refSink.events.size(); ++i)
        EXPECT_TRUE(refSink.events[i] == gotSink.events[i])
            << "event " << i << " differs";
}

/**
 * Multicore capture and fork: the lock-free structures' worker
 * threads under every scheme and three interleaving schedules, forked
 * at every enumerated crash point. The capture pass stops the
 * min-clock schedule of several cores at each tick; every forked
 * case must match from-scratch execution field for field, including
 * the first failure's durable image that durable-linearizability
 * checking reads.
 */
TEST(CkptEquiv, MulticoreForkIdentical)
{
    std::size_t cases = 0;
    for (const char *app : {"cstack", "cqueue", "chash"}) {
        const auto *cp = workloads::findConcurrentApp(app);
        ASSERT_NE(cp, nullptr) << app;
        std::vector<core::ThreadSpec> threads;
        for (std::uint32_t t = 0; t < cp->params.numWorkers; ++t)
            threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
        for (const auto &scheme : kSchemes) {
            const auto base = core::makeSystemConfig(scheme);
            auto mod = workloads::buildConcurrentApp(*cp, base.compiler);
            for (std::uint32_t ilv = 0; ilv < 3; ++ilv) {
                SCOPED_TRACE(std::string(app) + "/" + scheme + " ilv" +
                             std::to_string(ilv));
                auto cfg = base;
                cfg.numCores = cp->params.numWorkers;
                cfg.scheme.interleave = core::interleaveSchedule(1, ilv);
                std::vector<Tick> ticks;
                for (const auto &p :
                     fault::enumerateCrashPoints(*mod, cfg, threads)
                         .points)
                    ticks.push_back(p.tick);
                std::sort(ticks.begin(), ticks.end());
                ticks.erase(std::unique(ticks.begin(), ticks.end()),
                            ticks.end());
                ASSERT_FALSE(ticks.empty());

                core::WholeSystemSim capture(*mod, cfg);
                auto cr = capture.captureCheckpoints(threads, ticks);
                ASSERT_EQ(cr.checkpoints.size(), ticks.size());
                for (std::size_t i = 0; i < ticks.size(); ++i) {
                    SCOPED_TRACE("crash@" + std::to_string(ticks[i]));
                    fault::CrashSchedule schedule{ticks[i]};
                    core::WholeSystemSim scratch(*mod, cfg);
                    scratch.setCaptureFirstCrash(true);
                    auto ref = scratch.runWithCrashes(threads, schedule);

                    core::WholeSystemSim forked(*mod, cfg);
                    forked.setCaptureFirstCrash(true);
                    auto got = forked.runWithCrashes(
                        threads, schedule, {}, 200'000'000, nullptr,
                        cr.checkpoints[i].get());
                    EXPECT_EQ(got.source, core::ExecSource::Fork);
                    expectSameCrashResult(ref, got);
                    ASSERT_EQ(ref.recoveryBreakdowns.size(),
                              got.recoveryBreakdowns.size());
                    for (std::size_t w = 0;
                         w < ref.recoveryBreakdowns.size(); ++w) {
                        const auto &a = ref.recoveryBreakdowns[w];
                        const auto &b = got.recoveryBreakdowns[w];
                        EXPECT_EQ(a.window, b.window);
                        EXPECT_EQ(a.replayRecords, b.replayRecords);
                        EXPECT_EQ(a.sliceOps, b.sliceOps);
                        for (std::size_t p = 0;
                             p < core::kNumRecoveryPhases; ++p)
                            EXPECT_EQ(a.phase[p], b.phase[p]);
                    }
                    EXPECT_EQ(ref.hasFirstCrash, got.hasFirstCrash);
                    EXPECT_EQ(ref.firstFullRestart, got.firstFullRestart);
                    EXPECT_TRUE(ref.firstDurableImage.equals(
                        got.firstDurableImage));
                    EXPECT_EQ(ref.firstStores.size(),
                              got.firstStores.size());
                    expectSameStores(ref.firstStores, got.firstStores);
                    EXPECT_EQ(statsJson(scratch), statsJson(forked));
                    ++cases;
                }
            }
        }
    }
    EXPECT_GT(cases, 100u);
}

/**
 * EventQueue capture/restore with a non-empty heap (out-of-order)
 * lane: a checkpoint taken while a device scheduled backwards in
 * time must restore both lanes and replay the exact (tick, seq)
 * firing order through the rebind factory.
 */
TEST(CkptEquiv, EventQueueHeapLaneCaptureRestore)
{
    EventQueue q;
    std::vector<int> fired;
    auto cb = [&fired](int id) { return [&fired, id] { fired.push_back(id); }; };
    q.schedule(100, cb(0));
    q.schedule(200, cb(1));
    q.schedule(300, cb(2));
    // Out-of-order inserts: land in the heap lane, one tying an
    // existing tick (insertion order must break the tie).
    q.schedule(150, cb(3));
    q.schedule(200, cb(4));
    q.schedule(50, cb(5));
    ASSERT_EQ(q.size(), 6u);

    std::vector<std::uint8_t> bytes;
    sim::StateWriter w(bytes);
    q.captureState(w);

    // Drain the original to establish the reference order.
    q.runAll();
    const std::vector<int> refOrder = fired;
    ASSERT_EQ(refOrder.size(), 6u);
    EXPECT_EQ(refOrder.front(), 5); // tick 50 fires first

    // Restore into a fresh queue. The rebind factory sees the FIFO
    // lane front-to-back (indices 0..2 here), then the heap lane in
    // captured heap-array order — so heap events are rebound from
    // their tick, the way device models rebuild callbacks from their
    // own restored state.
    fired.clear();
    EventQueue restored;
    sim::StateReader r(bytes);
    restored.restoreState(r, [&](std::size_t index, Tick when) {
        if (index < 3)
            return cb(static_cast<int>(index));
        switch (when) {
        case 150: return cb(3);
        case 200: return cb(4);
        default: return cb(5); // tick 50
        }
    });
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(restored.size(), 6u);
    restored.runAll();
    EXPECT_EQ(fired, refOrder);
    EXPECT_EQ(restored.now(), 300u);
}

std::shared_ptr<const core::SimCheckpoint>
dummyCheckpoint(std::size_t blob_bytes,
                std::shared_ptr<const core::RecordingLog> log = nullptr)
{
    auto ckpt = std::make_shared<core::SimCheckpoint>();
    ckpt->componentBytes.resize(blob_bytes);
    ckpt->log = std::move(log);
    return ckpt;
}

/** LRU behaviour, byte cap, oversize rejection, stats, and the
 *  charge of a log several checkpoints share. */
TEST(CkptEquiv, CheckpointCacheLruAndStats)
{
    // Cap sized for two of the three entries (plus struct overhead).
    const std::size_t blob = 64 * 1024;
    core::CheckpointCache cache(2 * blob + 8 * 1024);

    cache.insert("a", dummyCheckpoint(blob));
    cache.insert("b", dummyCheckpoint(blob));
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("b"), nullptr);

    // "a" was touched last -> "b"... no: get("b") refreshed "b".
    // Touch "a" so "b" is the LRU victim of the next insert.
    EXPECT_NE(cache.get("a"), nullptr);
    cache.insert("c", dummyCheckpoint(blob));
    EXPECT_EQ(cache.get("b"), nullptr) << "LRU entry survived the cap";
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);

    auto s = cache.stats();
    EXPECT_EQ(s.captures, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytesResident, cache.capBytes());

    // An entry larger than the whole cap is never resident.
    cache.insert("huge", dummyCheckpoint(4 * blob));
    EXPECT_EQ(cache.get("huge"), nullptr);

    cache.noteFork();
    cache.noteFork();
    cache.noteFallback();
    s = cache.stats();
    EXPECT_EQ(s.forks, 2u);
    EXPECT_EQ(s.fallbacks, 1u);

    // fillStats surfaces the counters under the given prefix.
    StatsRegistry reg;
    cache.fillStats(reg, "sweep.");
    EXPECT_EQ(reg.counterValue("sweep.ckpt.forks"), 2u);
    EXPECT_EQ(reg.counterValue("sweep.ckpt.fallbacks"), 1u);
    EXPECT_EQ(reg.counterValue("sweep.ckpt.evictions"), s.evictions);

    // clear() drops entries but keeps the ledger.
    cache.clear();
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_EQ(cache.stats().forks, 2u);
    EXPECT_EQ(cache.stats().bytesResident, 0u);

    // Three checkpoints of one capture pass share its log: it is
    // charged once, for as long as any of them is resident. Room for
    // four checkpoints and the log.
    auto log = std::make_shared<core::RecordingLog>();
    log->stores.resize(2048);
    log->regions.resize(256);
    const std::size_t logBytes = log->bytes();
    const std::size_t own = dummyCheckpoint(blob)->bytes();
    ASSERT_EQ(dummyCheckpoint(blob, log)->bytes(), own)
        << "a checkpoint's own bytes leave out the shared log";
    core::CheckpointCache shared(4 * own + logBytes + own / 2);
    for (const char *key : {"s1", "s2", "s3"})
        shared.insert(key, dummyCheckpoint(blob, log));
    s = shared.stats();
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.bytesResident, 3 * own + logBytes);
    EXPECT_EQ(s.logBytesResident, logBytes);
    StatsRegistry sharedReg;
    shared.fillStats(sharedReg);
    EXPECT_EQ(sharedReg.counterValue("ckpt.logBytesResident"), logBytes);

    // Unrelated entries push out s1, then s2 (LRU first). s3 still
    // reads the log, so the log stays charged.
    for (const char *key : {"o1", "o2", "o3"})
        shared.insert(key, dummyCheckpoint(blob));
    s = shared.stats();
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 4u);
    EXPECT_EQ(s.bytesResident, 4 * own + logBytes);
    EXPECT_EQ(s.logBytesResident, logBytes);
    EXPECT_EQ(shared.get("s1"), nullptr);
    EXPECT_EQ(shared.get("s2"), nullptr);

    // Evicting s3, the log's last reader, releases the charge.
    shared.insert("o4", dummyCheckpoint(blob));
    s = shared.stats();
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(shared.get("s3"), nullptr);
    EXPECT_EQ(s.bytesResident, 4 * own);
    EXPECT_EQ(s.logBytesResident, 0u);

    shared.insert("s4", dummyCheckpoint(blob, log));
    EXPECT_EQ(shared.stats().logBytesResident, logBytes);
    shared.clear();
    EXPECT_EQ(shared.stats().bytesResident, 0u);
    EXPECT_EQ(shared.stats().logBytesResident, 0u);
}

} // namespace
} // namespace cwsp
