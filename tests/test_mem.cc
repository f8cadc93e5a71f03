/**
 * @file
 * Unit tests for the memory system: caches, the L1D write buffer,
 * NVM device models, memory controllers (WPQ), the persist path, the
 * undo-log area, and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/memory_controller.hh"
#include "mem/nvm_device.hh"
#include "mem/persist_path.hh"
#include "mem/undo_log.hh"
#include "mem/write_buffer.hh"

namespace cwsp {
namespace {

using namespace mem;

CacheConfig
tinyCache(std::uint64_t size, std::uint32_t ways)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = size;
    c.ways = ways;
    c.hitLatency = 4;
    return c;
}

TEST(Cache, HitAfterFill)
{
    Cache c(tinyCache(1024, 2));
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 8 sets of 64B: three lines mapping to one set.
    Cache c(tinyCache(1024, 2));
    Addr a = 0x0, b = 0x200, d = 0x400; // same set (stride 512)
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // refresh a; b becomes LRU
    auto res = c.access(d, false);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_EQ(res.evictedLine, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tinyCache(1024, 1)); // direct-mapped
    c.access(0x0, true);
    auto res = c.access(0x400, false); // conflicts in DM cache
    EXPECT_TRUE(res.evictedValid);
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache c(tinyCache(1024, 2));
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(Cache, RejectsSetCountsThatAreNotPowersOfTwo)
{
    // Three sets of two ways: the set index is a mask, so a set count
    // it cannot express must be refused, naming the cache.
    try {
        Cache c(tinyCache(3 * 2 * 64, 2));
        FAIL() << "a 3-set cache was accepted";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("tiny"), std::string::npos)
            << e.what();
    }
}

TEST(Cache, LazySetsScaleToFootprint)
{
    CacheConfig cfg = tinyCache(4ull << 30, 1); // 4 GB direct-mapped
    Cache c(cfg);
    for (Addr a = 0; a < 100 * 64; a += 64)
        c.access(a, false);
    EXPECT_EQ(c.numSets(), (4ull << 30) / 64);
    EXPECT_EQ(c.misses(), 100u);
}

TEST(WriteBuffer, FifoDrainSerializes)
{
    WriteBuffer wb(4, 10);
    EXPECT_EQ(wb.insert(0, 0x40, 0), 0u);
    EXPECT_EQ(wb.insert(0, 0x80, 0), 0u);
    // Entries drain at 10-cycle spacing.
    EXPECT_EQ(wb.lastDrainTime(), 20u);
    EXPECT_EQ(wb.occupancyAt(5), 2u);
    EXPECT_EQ(wb.occupancyAt(15), 1u);
    EXPECT_EQ(wb.occupancyAt(25), 0u);
}

TEST(WriteBuffer, FullStallsUntilHeadDrains)
{
    WriteBuffer wb(2, 10);
    wb.insert(0, 0x40, 0);  // drains at 10
    wb.insert(0, 0x80, 0);  // drains at 20
    Tick proceed = wb.insert(0, 0xc0, 0);
    EXPECT_EQ(proceed, 10u); // waited for the head
    EXPECT_EQ(wb.fullStalls(), 1u);
}

TEST(WriteBuffer, PersistDelayExtendsDrain)
{
    WriteBuffer wb(4, 10);
    wb.insert(0, 0x40, 100); // line still in flight until 100
    EXPECT_EQ(wb.lastDrainTime(), 110u);
    EXPECT_EQ(wb.persistDelays(), 1u);
    // Occupancy reflects the held entry (Fig. 6's metric).
    EXPECT_EQ(wb.occupancyAt(50), 1u);
}

TEST(NvmDevice, PresetsMatchPaperLatencies)
{
    auto pmem = pmemTech();
    EXPECT_EQ(pmem.readCycles, nsToCycles(175));
    EXPECT_EQ(pmem.writeCycles, nsToCycles(90));
    auto d = cxlD();
    EXPECT_EQ(d.readCycles, nsToCycles(245));
    EXPECT_EQ(d.writeCycles, nsToCycles(160));
    // Table I ordering: CXL-A fastest read of the NVDIMMs.
    EXPECT_LT(cxlA().readCycles, cxlB().readCycles);
    EXPECT_LT(cxlB().readCycles, cxlC().readCycles);
    // ReRAM is the fastest NVM technology (Section IX-M).
    EXPECT_LT(reramTech().readCycles, sttramTech().readCycles);
    EXPECT_LT(sttramTech().readCycles, pmemTech().readCycles);
    EXPECT_THROW(nvmTechByName("phase-change-unicorn"),
                 std::runtime_error);
}

TEST(MemoryController, AdmissionIsImmediateWhenEmpty)
{
    McConfig cfg;
    cfg.tech = pmemTech();
    cfg.wpqCapacity = 4;
    MemoryController mc(cfg);
    auto r = mc.admitStore(100, 8, false, 0x40);
    EXPECT_EQ(r.admitted, 100u);
    EXPECT_GT(r.drained, r.admitted);
}

TEST(MemoryController, FullWpqBackpressures)
{
    McConfig cfg;
    cfg.tech = pmemTech();
    cfg.wpqCapacity = 2;
    MemoryController mc(cfg);
    auto r1 = mc.admitStore(0, 8, false, 0x0);
    mc.admitStore(0, 8, false, 0x8);
    auto r3 = mc.admitStore(0, 8, false, 0x10);
    EXPECT_EQ(r3.admitted, r1.drained); // waited for the oldest slot
    EXPECT_EQ(mc.fullStalls(), 1u);
}

TEST(MemoryController, LoggedStoresCostMoreMedia)
{
    McConfig cfg;
    cfg.tech = pmemTech();
    MemoryController plain(cfg), logged(cfg);
    auto p = plain.admitStore(0, 8, false, 0x0);
    auto l = logged.admitStore(0, 8, true, 0x0);
    EXPECT_GT(l.drained - l.admitted, p.drained - p.admitted);
    EXPECT_EQ(logged.loggedStores(), 1u);
}

TEST(MemoryController, InflightMapAnswersWpqHits)
{
    McConfig cfg;
    cfg.tech = pmemTech();
    MemoryController mc(cfg);
    auto r = mc.admitStore(0, 8, false, 0x40);
    EXPECT_GT(mc.inflightDrainTime(0x40, 1), 0u);
    EXPECT_EQ(mc.inflightDrainTime(0x40, r.drained), 0u);
    EXPECT_EQ(mc.inflightDrainTime(0x48, 1), 0u);
}

TEST(PersistPath, BandwidthSerializesEntries)
{
    PersistPathConfig cfg;
    cfg.bandwidthGBs = 4.0; // 2 bytes/cycle -> 4 cycles per 8B
    cfg.oneWayLatency = 20;
    PersistPath path(cfg, 0, 2);
    Tick a1 = path.send(0, 8, 0);
    Tick a2 = path.send(0, 8, 0);
    EXPECT_EQ(a1, 4u + 20u);
    EXPECT_EQ(a2, 8u + 20u); // behind the first transfer
    EXPECT_EQ(path.entriesSent(), 2u);
    EXPECT_EQ(path.bytesSent(), 16u);
}

TEST(PersistPath, CachelineEntriesAreEightTimesWider)
{
    PersistPathConfig cfg;
    cfg.bandwidthGBs = 4.0;
    cfg.oneWayLatency = 0;
    PersistPath p8(cfg, 0, 1), p64(cfg, 0, 1);
    Tick t8 = p8.send(0, 8, 0);
    Tick t64 = p64.send(0, 64, 0);
    EXPECT_EQ(t64, 8 * t8); // the Capri-vs-cWSP bandwidth gap
}

TEST(PersistPath, NumaPenaltyForFarMc)
{
    PersistPathConfig cfg;
    cfg.oneWayLatency = 20;
    cfg.numaExtraCycles = 12;
    PersistPath path(cfg, 0, 2); // near MC = 0
    Tick near = path.send(0, 8, 0);
    PersistPath path2(cfg, 0, 2);
    Tick far = path2.send(0, 8, 1);
    EXPECT_EQ(far - near, 12u);
}

TEST(UndoLog, ReverseReplayOrder)
{
    UndoLogArea area;
    area.append(5, 0x100, 50);
    area.append(5, 0x108, 51);
    area.append(7, 0x100, 70);
    std::vector<std::pair<RegionId, Word>> seen;
    area.replayReverse([&](RegionId r, Addr, Word v) {
        seen.emplace_back(r, v);
    });
    // Newest region first; within a region newest record first.
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<RegionId, Word>{7, 70}));
    EXPECT_EQ(seen[1], (std::pair<RegionId, Word>{5, 51}));
    EXPECT_EQ(seen[2], (std::pair<RegionId, Word>{5, 50}));
}

TEST(UndoLog, ReclaimDropsOneRegion)
{
    UndoLogArea area;
    area.append(5, 0x100, 1);
    area.append(7, 0x108, 2);
    EXPECT_EQ(area.liveRegions(), 2u);
    area.reclaim(5);
    EXPECT_EQ(area.liveRegions(), 1u);
    EXPECT_EQ(area.liveRecords(), 1u);
    EXPECT_EQ(area.maxLiveRecords(), 2u);
    area.reclaim(99); // no-op
    EXPECT_EQ(area.liveRegions(), 1u);
}

TEST(Hierarchy, DefaultConfigMatchesPaper)
{
    // Latencies match the paper exactly; capacities are scaled down
    // with the kernel working sets (DESIGN.md §3).
    auto cfg = defaultHierarchy();
    ASSERT_EQ(cfg.sramLevels.size(), 2u);
    EXPECT_EQ(cfg.sramLevels[0].sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.sramLevels[0].ways, 8u);
    EXPECT_EQ(cfg.sramLevels[0].hitLatency, 4u);
    EXPECT_EQ(cfg.sramLevels[1].hitLatency, 44u);
    EXPECT_EQ(cfg.sramLevels[1].ways, 16u);
    EXPECT_TRUE(cfg.hasDramCache);
    EXPECT_EQ(cfg.dramCache.ways, 1u); // direct-mapped
    EXPECT_GT(cfg.dramCache.sizeBytes, cfg.sramLevels[1].sizeBytes);
    EXPECT_EQ(cfg.numMcs, 2u);
    EXPECT_EQ(cfg.wpqCapacity, 24u);
}

TEST(Hierarchy, LatencyLadder)
{
    auto cfg = defaultHierarchy();
    Hierarchy h(cfg, 1);
    Addr a = 0x100000;
    auto miss = h.access(0, a, false, 0);
    EXPECT_EQ(miss.servedBy, ServedBy::Nvm);
    EXPECT_GE(miss.latency, cfg.tech.readCycles);
    auto hit = h.access(0, a, false, 10);
    EXPECT_EQ(hit.servedBy, ServedBy::Sram);
    EXPECT_EQ(hit.sramLevel, 0u);
    EXPECT_EQ(hit.latency, 1u); // pipelined L1 hit
}

TEST(Hierarchy, DramCacheAbsorbsSecondMiss)
{
    auto cfg = defaultHierarchy();
    // Shrink SRAM so evictions reach the DRAM cache quickly.
    cfg.sramLevels[0].sizeBytes = 1024;
    cfg.sramLevels[1].sizeBytes = 4096;
    cfg.sramLevels[1].ways = 1;
    Hierarchy h(cfg, 1);
    // Touch enough lines to spill the 4 KB L2.
    for (Addr a = 0; a < 64 * 1024; a += 64)
        h.access(0, 0x40000000 + a, false, 0);
    // Re-touch the first line: out of SRAM, but in the DRAM cache.
    auto again = h.access(0, 0x40000000, false, 1000);
    EXPECT_EQ(again.servedBy, ServedBy::DramCache);
    EXPECT_GT(h.dramCacheHits(), 0u);
}

TEST(Hierarchy, NoDramCacheGoesStraightToNvm)
{
    auto cfg = defaultHierarchy();
    cfg.hasDramCache = false;
    cfg.sramLevels[0].sizeBytes = 1024;
    cfg.sramLevels[1].sizeBytes = 4096;
    cfg.sramLevels[1].ways = 1;
    Hierarchy h(cfg, 1);
    for (Addr a = 0; a < 64 * 1024; a += 64)
        h.access(0, 0x40000000 + a, false, 0);
    auto again = h.access(0, 0x40000000, false, 1000);
    EXPECT_EQ(again.servedBy, ServedBy::Nvm);
}

TEST(Hierarchy, ReplayedOutcomesMatchLiveWalkUnderOtherTiming)
{
    // Outcomes walked on one hierarchy drive another of the same tag
    // geometry but other timing exactly as that one's own walk does.
    auto geom = defaultHierarchy();
    geom.sramLevels[0].sizeBytes = 1024;
    geom.sramLevels[1].sizeBytes = 4096;
    geom.sramLevels[1].ways = 1;
    geom.dramCache.sizeBytes = 16 * 1024;
    auto timed = geom;
    timed.sramLevels[1].hitLatency = 30;
    timed.dramEvictionDelay = 40;
    timed.wbCapacity = 4;
    timed.chargeFirstLevelAsOne = false;
    ASSERT_EQ(tagGeometryKey(geom), tagGeometryKey(timed));
    timed.hasDramCache = false;
    ASSERT_NE(tagGeometryKey(geom), tagGeometryKey(timed));
    timed.hasDramCache = true;

    // Mostly stores over 2,048 lines: dirty lines spill from every
    // level, so outcomes carry L1 victims and MC charges.
    std::vector<std::pair<Addr, bool>> seq;
    for (Addr i = 0; i < 6000; ++i)
        seq.push_back({0x40000000 + (i * 7919 % 2048) * 64 + 8, i % 3 != 0});

    Hierarchy walker(geom, 1);
    std::vector<TagOutcome> outcomes;
    std::vector<Addr> victims;
    for (const auto &[addr, write] : seq) {
        Addr v[tag_outcome::kMaxVictims];
        const TagOutcome t = walker.walk(0, lineAlign(addr), write, v);
        outcomes.push_back(t);
        victims.insert(victims.end(), v, v + tag_outcome::victims(t));
    }
    ASSERT_FALSE(victims.empty());

    Hierarchy live(timed, 1);
    Hierarchy fed(timed, 1);
    fed.replayOutcomes(outcomes, victims);
    Tick now = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE(i);
        const auto [addr, write] = seq[i];
        const AccessOutcome a = live.access(0, addr, write, now);
        const AccessOutcome b = fed.access(0, addr, write, now);
        ASSERT_EQ(a.latency, b.latency);
        ASSERT_EQ(a.evictionStall, b.evictionStall);
        ASSERT_EQ(a.servedBy, b.servedBy);
        ASSERT_EQ(a.sramLevel, b.sramLevel);
        ASSERT_EQ(a.wpqHit, b.wpqHit);
        now += 3;
    }
    EXPECT_EQ(fed.outcomesLeft(), 0u);
    EXPECT_EQ(live.l1Misses(), fed.l1Misses());
    EXPECT_EQ(live.dramCacheHits(), fed.dramCacheHits());
    EXPECT_EQ(live.dramCacheMisses(), fed.dramCacheMisses());
    EXPECT_EQ(live.nvmReads(), fed.nvmReads());
    EXPECT_EQ(live.meanWbOccupancy(), fed.meanWbOccupancy());
    EXPECT_GT(live.meanWbOccupancy(), 0.0);
    for (McId m = 0; m < live.numMcs(); ++m)
        EXPECT_EQ(live.mc(m).evictionWrites(), fed.mc(m).evictionWrites());
}

TEST(Hierarchy, DramCacheDirtyEvictions)
{
    // A store sweep over four times a small DRAM cache evicts dirty
    // DRAM-cache lines. The MCs write each one back unless
    // dropLlcDirtyEvictions drops it, and Capri's dramEvictionDelay
    // adds its cycles to the access that caused each.
    auto cfg = defaultHierarchy();
    cfg.sramLevels[0].sizeBytes = 1024;
    cfg.sramLevels[1].sizeBytes = 4096;
    cfg.sramLevels[1].ways = 1;
    cfg.dramCache.sizeBytes = 16 * 1024;
    ASSERT_FALSE(cfg.dropLlcDirtyEvictions);
    auto delayed = cfg;
    delayed.dramEvictionDelay = 40;
    auto dropped = cfg;
    dropped.dropLlcDirtyEvictions = true;
    auto evictionWrites = [](Hierarchy &h) {
        std::uint64_t n = 0;
        for (McId m = 0; m < h.numMcs(); ++m)
            n += h.mc(m).evictionWrites();
        return n;
    };

    Hierarchy plain(cfg, 1);
    Hierarchy slow(delayed, 1);
    Hierarchy quiet(dropped, 1);
    Tick now = 0;
    for (Addr a = 0; a < 4 * cfg.dramCache.sizeBytes; a += 64) {
        SCOPED_TRACE(a);
        const std::uint64_t before = evictionWrites(plain);
        const AccessOutcome p = plain.access(0, 0x40000000 + a, true, now);
        const AccessOutcome d = slow.access(0, 0x40000000 + a, true, now);
        quiet.access(0, 0x40000000 + a, true, now);
        const auto charged =
            static_cast<std::uint32_t>(evictionWrites(plain) - before);
        ASSERT_EQ(d.latency, p.latency + 40 * charged);
        ASSERT_EQ(d.evictionStall, p.evictionStall + 40 * charged);
        now += 50;
    }
    EXPECT_GT(evictionWrites(plain), 0u);
    EXPECT_EQ(evictionWrites(slow), evictionWrites(plain));
    EXPECT_EQ(evictionWrites(quiet), 0u);
}

TEST(Hierarchy, McInterleavingByLine)
{
    auto cfg = defaultHierarchy();
    Hierarchy h(cfg, 1);
    EXPECT_NE(h.mcFor(0x0), h.mcFor(0x40));
    EXPECT_EQ(h.mcFor(0x0), h.mcFor(0x80));
    EXPECT_EQ(h.mcFor(0x0), h.mcFor(0x38)); // same line
}

TEST(Hierarchy, WpqLoadDelayChargesInflightDrain)
{
    auto cfg = defaultHierarchy();
    cfg.wpqLoadDelay = true;
    Hierarchy h(cfg, 1);
    Addr a = 0x55500000;
    // Put an entry in flight at the owning MC.
    auto adm = h.mc(h.mcFor(a)).admitStore(0, 8, false, wordAlign(a));
    auto cold = h.access(0, a, false, 1);
    EXPECT_TRUE(cold.wpqHit);
    EXPECT_EQ(h.wpqHits(), 1u);
    // The charged latency includes waiting for the drain.
    EXPECT_GE(cold.latency,
              static_cast<std::uint32_t>(adm.drained - 1));
}

TEST(Hierarchy, Figure1LevelsGrow)
{
    for (unsigned levels = 2; levels <= 5; ++levels) {
        auto cfg = figure1Hierarchy(levels);
        std::size_t sram = cfg.sramLevels.size();
        bool dram = cfg.hasDramCache;
        EXPECT_EQ(sram + (dram ? 1 : 0), levels);
    }
    EXPECT_THROW(figure1Hierarchy(7), std::logic_error);
}

TEST(Hierarchy, ThreeLevelVariantHasPrivateL2)
{
    auto cfg = threeLevelHierarchy();
    ASSERT_EQ(cfg.sramLevels.size(), 3u);
    EXPECT_FALSE(cfg.sramLevels[1].sharedAcrossCores);
    EXPECT_LT(cfg.sramLevels[1].sizeBytes,
              cfg.sramLevels[2].sizeBytes);
    EXPECT_EQ(cfg.sramLevels[1].hitLatency, 14u);
    EXPECT_TRUE(cfg.sramLevels[2].sharedAcrossCores);
}

} // namespace
} // namespace cwsp
