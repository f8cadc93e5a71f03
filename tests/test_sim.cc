/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, stats,
 * deterministic RNG, the one-live-simulator-per-arena guard, and the
 * arena footprint of FlatMap64's periodic cleanups.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "core/whole_system_sim.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMayScheduleMore)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(5, [&] { ++fired; });
    });
    q.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    q.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.step();
    EXPECT_THROW(q.schedule(5, [] {}), std::logic_error);
}

TEST(EventQueue, MixedOrderInsertsFireInGlobalOrder)
{
    // Exercises both storage lanes: monotone inserts (FIFO) mixed
    // with out-of-order ones (heap), same-tick collisions included.
    EventQueue q;
    q.reserve(64);
    std::vector<std::pair<Tick, int>> fired;
    Rng rng(42);
    Tick monotone = 0;
    int id = 0;
    for (int i = 0; i < 200; ++i) {
        Tick when;
        if (rng.nextBelow(4) != 0) {
            monotone += rng.nextBelow(3); // repeats ticks frequently
            when = monotone;
        } else {
            when = q.now() + rng.nextBelow(monotone - q.now() + 2);
        }
        int n = id++;
        q.schedule(when, [&fired, when, n] {
            fired.push_back({when, n});
        });
    }
    q.runAll();
    ASSERT_EQ(fired.size(), 200u);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first)
            EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
}

TEST(Stats, CounterAndAverage)
{
    StatsRegistry reg;
    reg.counter("a").inc();
    reg.counter("a").inc(4);
    EXPECT_EQ(reg.counterValue("a"), 5u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);

    reg.average("b").sample(1.0);
    reg.average("b").sample(3.0);
    EXPECT_DOUBLE_EQ(reg.averageValue("b"), 2.0);
}

TEST(Stats, HistogramMeanAndPercentile)
{
    Histogram h(10, 16);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_NEAR(h.mean(), 49.5, 1e-9);
    EXPECT_GE(h.percentile(0.99), 89u);
    EXPECT_EQ(h.count(), 100u);
}

TEST(Stats, HistogramOverflowBucket)
{
    Histogram h(1, 4);
    h.sample(1000);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBelow(17), 17u);
        auto v = r.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZipfSkewsLow)
{
    Rng r(13);
    std::uint64_t low = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        if (r.nextZipf(1024, 0.9) < 64)
            ++low;
    }
    // With strong skew, far more than 6.25% of draws land in the
    // lowest 1/16th of the range.
    EXPECT_GT(low, static_cast<std::uint64_t>(n) / 4);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(cwsp_panic("boom"), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(cwsp_fatal("bad config"), std::runtime_error);
}

// reset() rewinds an arena under every simulator built on it, so a
// second live simulator on one arena would corrupt the first
// silently. Construction refuses it; once the first is destroyed the
// arena is free again.
TEST(SimArenaGuard, OneLiveSimulatorPerArena)
{
    const core::SystemConfig cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    sim::SimArena arena;
    Word expected = 0;
    {
        core::WholeSystemSim first(*mod, cfg, &arena);
        EXPECT_EQ(arena.liveSims(), 1u);
        EXPECT_THROW((core::WholeSystemSim(*mod, cfg, &arena)),
                     std::logic_error);
        EXPECT_EQ(arena.liveSims(), 1u);
        expected = first.run("main").returnValues.at(0);
    }
    EXPECT_EQ(arena.liveSims(), 0u);
    core::WholeSystemSim next(*mod, cfg, &arena);
    EXPECT_EQ(arena.liveSims(), 1u);
    EXPECT_EQ(next.run("main").returnValues.at(0), expected);
}

std::vector<std::uint8_t>
captured(const sim::FlatMap64 &map)
{
    std::vector<std::uint8_t> bytes;
    sim::StateWriter w(bytes);
    map.captureState(w);
    return bytes;
}

/**
 * What eraseIf(v <= @p cutoff) leaves, rebuilt the plain way: a
 * freshly allocated table of the same capacity, filled with the kept
 * entries in @p before's slot order. Returns its captured state.
 */
std::vector<std::uint8_t>
referenceCleanup(const std::vector<std::uint8_t> &before,
                 std::uint64_t cutoff)
{
    sim::StateReader r(before);
    const auto cap = r.pod<std::uint64_t>();
    const auto n = r.pod<std::uint64_t>();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto key = r.pod<std::uint64_t>();
        const auto val = r.pod<std::uint64_t>();
        if (val > cutoff)
            kept.emplace_back(key, val);
    }
    std::vector<std::uint8_t> state;
    sim::StateWriter w(state);
    w.pod<std::uint64_t>(cap);
    w.pod<std::uint64_t>(kept.size());
    for (const auto &[key, val] : kept) {
        w.pod(key);
        w.pod(val);
    }
    sim::ArenaScope heap(nullptr);
    sim::FlatMap64 fresh;
    sim::StateReader fill(state);
    fresh.restoreState(fill);
    return captured(fresh);
}

// The memory controller's in-flight table and each core's
// line-persist map drop stale entries every few thousand updates. In
// an arena a rebuild cannot free the table it replaces, so it must
// rebuild into the one it retired last time: any number of cleanups
// stay within two tables of arena bytes, with the slot layout (and so
// the captured checkpoint bytes) of a rebuild into fresh storage.
TEST(FlatMap64, ArenaCleanupsCycleBetweenTwoTables)
{
    sim::SimArena arena;
    sim::ArenaScope scope(&arena);
    sim::FlatMap64 map(4096);
    const std::size_t oneTable = arena.allocatedBytes();
    ASSERT_GT(oneTable, 0u);

    std::map<std::uint64_t, std::uint64_t> model;
    std::uint64_t tick = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t key = 8 * ((tick * 2654435761u) % 20000);
            ++tick;
            map.insertOrAssign(key, tick);
            model[key] = tick;
        }
        const std::uint64_t cutoff = tick > 3000 ? tick - 3000 : 0;
        const auto expected = referenceCleanup(captured(map), cutoff);
        map.eraseIf([cutoff](std::uint64_t t) { return t <= cutoff; });
        std::erase_if(model, [cutoff](const auto &kv) {
            return kv.second <= cutoff;
        });
        ASSERT_EQ(captured(map), expected) << "round " << round;
        ASSERT_EQ(map.size(), model.size());
        ASSERT_LE(arena.allocatedBytes(), 2 * oneTable)
            << "round " << round;
    }
    for (const auto &[key, val] : model) {
        const std::uint64_t *got = map.find(key);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, val);
    }
}

} // namespace
} // namespace cwsp
