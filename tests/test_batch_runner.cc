/**
 * @file
 * The parallel batch simulation engine: parallel-vs-sequential
 * determinism, compiled-module sharing, in-flight de-duplication,
 * the persistent on-disk result cache (hit/miss, version-stamp
 * invalidation, collision safety), the batch plan that picks
 * commit-stream replay or interpretation per point, and the
 * single-pass commit-stream recorder's batching.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/config.hh"
#include "core/commit_stream.hh"
#include "core/config_serial.hh"
#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "ir/builder.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

/** A deliberately tiny roster app so every test runs in millis. */
workloads::AppProfile
tinyApp(const std::string &name, std::uint64_t iterations)
{
    workloads::AppProfile a;
    a.name = name;
    a.suite = "test";
    a.kind = workloads::KernelKind::Mix;
    a.mix.iterations = iterations;
    a.mix.hotWords = 1 << 8;
    a.mix.warmWords = 1 << 10;
    a.mix.coldLines = 1 << 10;
    a.mix.storePct = 50;
    return a;
}

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

driver::BatchConfig
memOnly(unsigned jobs)
{
    driver::BatchConfig c;
    c.jobs = jobs;
    c.useDiskCache = false;
    return c;
}

std::string
freshCacheDir(const char *tag)
{
    auto dir = std::filesystem::path(::testing::TempDir()) /
               (std::string("cwsp-cache-") + tag + "-XXXXXX");
    std::string templ = dir.string();
    char *made = ::mkdtemp(templ.data());
    EXPECT_NE(made, nullptr);
    return templ;
}

std::vector<driver::DesignPoint>
crossProduct()
{
    std::vector<workloads::AppProfile> apps = {tinyApp("t-alpha", 60),
                                               tinyApp("t-beta", 90)};
    std::vector<driver::DesignPoint> points;
    for (const auto &app : apps) {
        for (const char *scheme :
             {"baseline", "cwsp", "capri", "replaycache"}) {
            points.push_back(driver::DesignPoint{
                app, core::makeSystemConfig(scheme)});
        }
    }
    return points;
}

/** @p n points running one program under different PB capacities. */
std::vector<driver::DesignPoint>
hardwareVariants(const workloads::AppProfile &app, std::uint32_t n)
{
    std::vector<driver::DesignPoint> points;
    for (std::uint32_t k = 0; k < n; ++k) {
        auto cfg = core::makeSystemConfig("cwsp");
        cfg.scheme.pbCapacity = 10 + 10 * k;
        points.push_back(driver::DesignPoint{app, cfg});
    }
    return points;
}

} // namespace

TEST(BatchRunner, ParallelMatchesSequentialBitExactly)
{
    auto points = crossProduct();

    driver::BatchRunner seq(memOnly(1));
    driver::BatchRunner par(memOnly(8));
    auto rs = seq.runAll(points);
    auto rp = par.runAll(points);

    ASSERT_EQ(rs.size(), points.size());
    ASSERT_EQ(rp.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(points[i].app.name + "/" +
                     points[i].config.scheme.name);
        expectSameResult(rs[i], rp[i]);
    }
}

TEST(BatchRunner, MatchesDirectSimulation)
{
    auto app = tinyApp("t-direct", 80);
    auto cfg = core::makeSystemConfig("cwsp");

    auto mod = workloads::buildApp(app, cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    auto direct = sim.run("main");

    driver::BatchRunner runner(memOnly(4));
    auto batched = runner.run(driver::DesignPoint{app, cfg});
    expectSameResult(direct, batched);
}

TEST(BatchRunner, ModuleCompileSharedAcrossSchemeConfigs)
{
    auto app = tinyApp("t-modcache", 60);
    // Three design points with identical compiler options but
    // different hardware: one buildApp compile, shared read-only.
    std::vector<driver::DesignPoint> points;
    for (std::uint32_t pb : {50, 20, 10}) {
        auto cfg = core::makeSystemConfig("cwsp");
        cfg.scheme.pbCapacity = pb;
        points.push_back(driver::DesignPoint{app, cfg});
    }

    driver::BatchRunner runner(memOnly(1));
    runner.runAll(points);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 3u);
    EXPECT_EQ(st.modulesCompiled, 1u);
    EXPECT_EQ(st.moduleCacheHits, 2u);

    // A different compiler profile does trigger a second compile.
    runner.run(
        driver::DesignPoint{app, core::makeSystemConfig("baseline")});
    EXPECT_EQ(runner.stats().modulesCompiled, 2u);
}

TEST(BatchRunner, DuplicatePointsSimulateOnce)
{
    auto app = tinyApp("t-dup", 60);
    auto cfg = core::makeSystemConfig("cwsp");
    std::vector<driver::DesignPoint> points(
        8, driver::DesignPoint{app, cfg});

    driver::BatchRunner runner(memOnly(4));
    auto results = runner.runAll(points);
    EXPECT_EQ(runner.stats().simulated, 1u);
    for (std::size_t i = 1; i < results.size(); ++i)
        expectSameResult(results[0], results[i]);
}

TEST(BatchRunner, DiskCacheHitAcrossRunnersAndMissOnVersionBump)
{
    std::string dir = freshCacheDir("version");
    auto app = tinyApp("t-disk", 70);
    driver::DesignPoint point{app, core::makeSystemConfig("cwsp")};

    driver::BatchConfig cold;
    cold.jobs = 1;
    cold.cacheDir = dir;

    core::RunResult first;
    {
        driver::BatchRunner runner(cold);
        first = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        EXPECT_TRUE(
            std::filesystem::exists(runner.cachePath(point)));
    }

    // A fresh runner (fresh process, conceptually) must not
    // re-simulate: the result comes back from disk, bit-identical.
    {
        driver::BatchRunner runner(cold);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 0u);
        EXPECT_EQ(runner.stats().diskHits, 1u);
        expectSameResult(first, again);
    }

    // Bumping the code-version stamp invalidates every entry.
    {
        auto bumped = cold;
        bumped.versionStamp = "cwsp-results-test-v2";
        driver::BatchRunner runner(bumped);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        expectSameResult(first, again);
    }

    std::filesystem::remove_all(dir);
}

TEST(BatchRunner, CorruptOrMismatchedEntryIsAMissNotAWrongResult)
{
    std::string dir = freshCacheDir("corrupt");
    auto app = tinyApp("t-corrupt", 70);
    driver::DesignPoint point{app, core::makeSystemConfig("cwsp")};

    driver::BatchConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir;

    core::RunResult first;
    {
        driver::BatchRunner runner(cfg);
        first = runner.run(point);
    }
    // Truncate the stored entry; the loader must reject it and
    // re-simulate rather than return garbage.
    {
        driver::BatchRunner probe(cfg);
        std::ofstream(probe.cachePath(point), std::ios::trunc)
            << "cwsp-result-cache cwsp-results-v1\nkey bogus\n";
    }
    {
        driver::BatchRunner runner(cfg);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        expectSameResult(first, again);
    }
    std::filesystem::remove_all(dir);
}

TEST(BatchRunner, CacheKeyCoversAppConfigAndBudget)
{
    auto app = tinyApp("t-key", 50);
    driver::DesignPoint a{app, core::makeSystemConfig("cwsp")};

    auto b = a;
    b.config.scheme.pbCapacity += 1;
    auto c = a;
    c.config.scheme.path.bandwidthGBs = 32.0;
    auto d = a;
    d.config.compiler.pruneCheckpoints = false;
    auto e = a;
    e.maxInstrs = 123;
    auto f = a;
    f.app.mix.iterations += 1;

    auto key = driver::BatchRunner::pointKey(a);
    EXPECT_NE(key, driver::BatchRunner::pointKey(b));
    EXPECT_NE(key, driver::BatchRunner::pointKey(c));
    EXPECT_NE(key, driver::BatchRunner::pointKey(d));
    EXPECT_NE(key, driver::BatchRunner::pointKey(e));
    EXPECT_NE(key, driver::BatchRunner::pointKey(f));
    // Identical points agree, and keys are single-line (the on-disk
    // format echoes them for collision safety).
    EXPECT_EQ(key, driver::BatchRunner::pointKey(a));
    EXPECT_EQ(key.find('\n'), std::string::npos);
}

TEST(ConfigSerial, CanonicalKeyIsDeterministic)
{
    auto cfg = core::makeSystemConfig("capri");
    EXPECT_EQ(core::systemConfigKey(cfg),
              core::systemConfigKey(cfg));
    auto other = cfg;
    other.hierarchy.tech.readCycles += 1;
    EXPECT_NE(core::systemConfigKey(cfg),
              core::systemConfigKey(other));
}

TEST(BatchPlan, StreamRecordedOnlyWhenThreePointsShareIt)
{
    static_assert(driver::kMinStreamUsers == 3);
    {
        driver::BatchRunner runner(memOnly(2));
        runner.runAll(hardwareVariants(tinyApp("t-pair", 60), 2));
        auto st = runner.stats();
        EXPECT_EQ(st.simulated, 2u);
        EXPECT_EQ(st.streamsRecorded, 0u);
        EXPECT_EQ(st.replayedRuns, 0u);
        EXPECT_EQ(st.interpretedRuns, 2u);
    }
    {
        driver::BatchRunner runner(memOnly(2));
        runner.runAll(hardwareVariants(tinyApp("t-trio", 60), 3));
        auto st = runner.stats();
        EXPECT_EQ(st.simulated, 3u);
        EXPECT_EQ(st.streamsRecorded, 1u);
        EXPECT_EQ(st.replayedRuns, 3u);
        EXPECT_EQ(st.interpretedRuns, 0u);
    }
}

TEST(BatchPlan, DuplicatePointsDoNotCountAsUsers)
{
    // Two distinct points, each submitted three times: six entries,
    // but only two simulations could ever use the stream.
    auto pair = hardwareVariants(tinyApp("t-dups", 60), 2);
    std::vector<driver::DesignPoint> points;
    for (int rep = 0; rep < 3; ++rep)
        points.insert(points.end(), pair.begin(), pair.end());

    driver::BatchRunner runner(memOnly(1));
    runner.runAll(points);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 2u);
    EXPECT_EQ(st.memoryHits, 4u);
    EXPECT_EQ(st.streamsRecorded, 0u);
    EXPECT_EQ(st.interpretedRuns, 2u);
}

TEST(BatchPlan, PlannedBatchMatchesInterpretationBitExactly)
{
    // t-wide runs each scheme under three PB capacities, so every one
    // of its programs replays; t-narrow runs each scheme once, so its
    // programs mostly interpret. Both sources must agree exactly with
    // a replay-free runner.
    std::vector<driver::DesignPoint> points;
    for (const char *scheme : {"baseline", "cwsp", "capri", "ido",
                               "replaycache", "psp"}) {
        for (std::uint32_t pb : {0u, 5u, 10u}) {
            auto cfg = core::makeSystemConfig(scheme);
            cfg.scheme.pbCapacity += pb;
            points.push_back(
                driver::DesignPoint{tinyApp("t-wide", 70), cfg});
        }
        points.push_back(driver::DesignPoint{
            tinyApp("t-narrow", 90), core::makeSystemConfig(scheme)});
    }

    auto noReplay = memOnly(1);
    noReplay.useStreamReplay = false;
    driver::BatchRunner reference(noReplay);
    auto expected = reference.runAll(points);
    auto rst = reference.stats();
    EXPECT_EQ(rst.streamsRecorded, 0u);
    EXPECT_EQ(rst.interpretedRuns, rst.simulated);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        driver::BatchRunner runner(memOnly(jobs));
        auto got = runner.runAll(points);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(points[i].app.name + "/" +
                         points[i].config.scheme.name);
            expectSameResult(expected[i], got[i]);
        }
        auto st = runner.stats();
        EXPECT_GT(st.replayedRuns, 0u);
        EXPECT_GT(st.interpretedRuns, 0u);
        EXPECT_EQ(st.simulated, st.replayedRuns + st.interpretedRuns);
    }
}

TEST(BatchPlan, OneStreamPerTagGeometry)
{
    // One program swept over three PB capacities on each of two tag
    // geometries: the geometry is part of the stream's identity, so
    // each trio records its own stream and replays its own outcomes.
    std::vector<driver::DesignPoint> points;
    for (bool deep : {false, true}) {
        for (std::uint32_t pb : {20u, 40u, 60u}) {
            auto cfg = core::makeSystemConfig("cwsp");
            if (deep) {
                const bool drop = cfg.hierarchy.dropLlcDirtyEvictions;
                cfg.hierarchy = mem::threeLevelHierarchy();
                cfg.hierarchy.dropLlcDirtyEvictions = drop;
                core::syncFeatureFlags(cfg);
            }
            cfg.scheme.pbCapacity = pb;
            points.push_back(
                driver::DesignPoint{tinyApp("t-geom", 80), cfg});
        }
    }

    auto noReplay = memOnly(1);
    noReplay.useStreamReplay = false;
    driver::BatchRunner reference(noReplay);
    auto expected = reference.runAll(points);

    for (unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        driver::BatchRunner runner(memOnly(jobs));
        auto got = runner.runAll(points);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(i);
            expectSameResult(expected[i], got[i]);
        }
        auto st = runner.stats();
        EXPECT_EQ(st.streamsRecorded, 2u);
        EXPECT_EQ(st.replayedRuns, 6u);
        EXPECT_EQ(st.interpretedRuns, 0u);
    }
}

TEST(BatchPlan, LoneRunInterprets)
{
    driver::BatchRunner runner(memOnly(1));
    for (const auto &point : hardwareVariants(tinyApp("t-lone", 60), 3))
        runner.run(point);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 3u);
    EXPECT_EQ(st.interpretedRuns, 3u);
    EXPECT_EQ(st.streamsRecorded, 0u);
}

TEST(CommitStreamRecorder, BatchesConstantCostStepsInOnePass)
{
    using core::CommitStream;
    ir::Module m;
    m.addGlobal("out", 64);
    m.layoutMemory();
    auto &square = m.addFunction("square", 1);
    {
        ir::IRBuilder b(square);
        b.setBlock(b.newBlock());
        b.mul(1, 0, 0);
        b.ret(1);
    }
    auto &outer = m.addFunction("outer", 0);
    {
        ir::IRBuilder b(outer);
        b.setBlock(b.newBlock());
        b.movImm(0, 7);
        b.call(1, square.id(), {0}); // spills its argument
        b.ret(1);
    }
    auto &main_fn = m.addFunction("main", 0);
    {
        ir::IRBuilder b(main_fn);
        b.setBlock(b.newBlock());
        b.movImm(5, static_cast<std::int64_t>(m.global("out").base));
        b.call(3, outer.id(), {}); // spill-free: a bare CallRet
        b.store(3, 5);
        b.addImm(3, 3, 1);
        b.ret(3);
    }

    auto s = core::recordCommitStream(m, "main", {});
    EXPECT_EQ(s.returnValue, 50u);
    EXPECT_EQ(s.steps, 10u);
    EXPECT_EQ(s.commits, 11u); // ten steps plus one argument spill

    struct Want
    {
        std::uint8_t kind;
        std::uint8_t flags;
        std::uint32_t aux;
    };
    constexpr auto kNew = CommitStream::kFlagNewStep;
    constexpr auto kB1 = CommitStream::kBatch1;
    constexpr auto kB2 = CommitStream::kBatch2;
    const auto callRet =
        static_cast<std::uint8_t>(interp::CommitKind::CallRet);
    const auto store = static_cast<std::uint8_t>(interp::CommitKind::Store);
    const std::vector<Want> want = {
        {kB1, kNew, 1},     // movi
        {kB2, kNew, 1},     // call outer: next commit starts a step
        {kB1, kNew, 1},     // movi
        {callRet, kNew, 0}, // call square shares its step with...
        {store, CommitStream::kFlagCkpt, 0}, // ...the argument spill
        {kB1, kNew, 1},     // mul
        {kB2, kNew, 2},     // ret square, ret outer: merged batch
        {store, kNew, 0},   // st
        {kB1, kNew, 1},     // addi
        {kB2, kNew, 1},     // trailing ret main: flushed at stream end
    };
    ASSERT_EQ(s.ops.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(s.ops[i].kind, want[i].kind);
        EXPECT_EQ(s.ops[i].flags, want[i].flags);
        EXPECT_EQ(s.ops[i].aux, want[i].aux);
    }
    EXPECT_TRUE(s.snapRefs.empty());
    EXPECT_TRUE(s.frames.empty());
}

TEST(CommitStreamRecorder, OneTagOutcomePerMemoryOp)
{
    auto app = tinyApp("t-tags", 200);
    auto mod =
        workloads::buildApp(app, core::makeSystemConfig("cwsp").compiler);
    auto s = core::recordCommitStream(*mod, "main", {});
    EXPECT_EQ(s.geometry, mem::tagGeometryKey(mem::defaultHierarchy()));

    std::size_t memOps = 0;
    for (const auto &op : s.ops) {
        const auto k = static_cast<interp::CommitKind>(op.kind);
        memOps += k == interp::CommitKind::Load ||
                  k == interp::CommitKind::Store ||
                  k == interp::CommitKind::Atomic;
    }
    ASSERT_GT(memOps, 0u);
    EXPECT_EQ(s.outcomes.size(), memOps);
    std::size_t victims = 0;
    for (mem::TagOutcome t : s.outcomes)
        victims += mem::tag_outcome::victims(t);
    EXPECT_EQ(s.victims.size(), victims);
    // The stream-cache cap counts the outcomes and their victims.
    EXPECT_GE(s.memoryBytes(), s.ops.size() * sizeof(core::CommitStream::Op) +
                                   s.outcomes.size() +
                                   s.victims.size() * sizeof(Addr));
}

TEST(CommitStreamRecorder, SnapshotsLineUpWithBoundaryOps)
{
    auto app = tinyApp("t-snap", 40);
    auto mod = workloads::buildApp(app, core::makeSystemConfig("cwsp").compiler);
    auto s = core::recordCommitStream(*mod, "main", {});

    std::size_t k = 0;
    std::uint32_t next = 0;
    for (const auto &op : s.ops) {
        if (op.kind != static_cast<std::uint8_t>(interp::CommitKind::Boundary))
            continue;
        ASSERT_LT(k, s.snapRefs.size());
        const auto &ref = s.snapRefs[k++];
        EXPECT_EQ(ref.begin, next);
        ASSERT_GE(ref.count, 1u);
        next = ref.begin + ref.count;
        ASSERT_LE(next, s.frames.size());
        // The top frame resumes at this very boundary instruction.
        const interp::Frame &top = s.frames[next - 1];
        const auto &instrs =
            mod->function(top.func).block(top.block).instrs();
        ASSERT_LT(top.index, instrs.size());
        EXPECT_EQ(instrs[top.index].op, ir::Opcode::RegionBoundary);
        EXPECT_EQ(static_cast<std::uint32_t>(instrs[top.index].imm), op.aux);
    }
    EXPECT_GT(k, 0u);
    EXPECT_EQ(k, s.snapRefs.size());
    EXPECT_EQ(next, s.frames.size());
}
