#include "mem/hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cwsp::mem {

std::string
tagGeometryKey(const HierarchyConfig &config)
{
    std::string key = "sram[";
    for (const auto &lvl : config.sramLevels) {
        key += std::to_string(lvl.sizeBytes) + "x" +
               std::to_string(lvl.ways) +
               (lvl.sharedAcrossCores ? "s;" : "p;");
    }
    key += "],dram$=";
    if (config.hasDramCache) {
        key += std::to_string(config.dramCache.sizeBytes) + "x" +
               std::to_string(config.dramCache.ways);
    } else {
        key += "none";
    }
    return key;
}

HierarchyConfig
defaultHierarchy()
{
    HierarchyConfig cfg;
    CacheConfig l1;
    l1.name = "l1d";
    l1.sizeBytes = 64 * 1024;
    l1.ways = 8;
    l1.hitLatency = 4;
    l1.sharedAcrossCores = false;
    // Capacity scaling: the evaluated kernels are ~1000x smaller than
    // SPEC reference runs, so memory-side capacities are scaled by
    // 16x (L2) and 16x (DRAM cache) while every latency stays at the
    // paper's values — the standard trick for keeping working-set to
    // capacity ratios representative (see DESIGN.md §3).
    CacheConfig l2;
    l2.name = "l2";
    l2.sizeBytes = 256 * 1024; // paper: 16 MB shared
    l2.ways = 16;
    l2.hitLatency = 44;
    l2.sharedAcrossCores = true;
    cfg.sramLevels = {l1, l2};

    cfg.hasDramCache = true;
    cfg.dramCache.name = "dram$";
    cfg.dramCache.sizeBytes = 256ull * 1024 * 1024; // paper: 4 GB
    cfg.dramCache.ways = 1; // direct-mapped per the paper
    cfg.dramCache.hitLatency = nsToCycles(30);
    cfg.dramCache.sharedAcrossCores = true;

    cfg.tech = pmemTech();
    cfg.numMcs = 2;
    cfg.wbDrainCycles = 14;
    return cfg;
}

HierarchyConfig
threeLevelHierarchy()
{
    HierarchyConfig cfg = defaultHierarchy();
    CacheConfig l2;
    l2.name = "l2";
    l2.sizeBytes = 64 * 1024; // paper: 1 MB private
    l2.ways = 8;
    l2.hitLatency = 14;
    l2.sharedAcrossCores = false;
    CacheConfig l3;
    l3.name = "l3";
    l3.sizeBytes = 256 * 1024; // paper: 16 MB shared
    l3.ways = 16;
    l3.hitLatency = 44;
    l3.sharedAcrossCores = true;
    cfg.sramLevels = {cfg.sramLevels[0], l2, l3};
    return cfg;
}

HierarchyConfig
figure1Hierarchy(unsigned levels)
{
    cwsp_assert(levels >= 2 && levels <= 5,
                "figure1Hierarchy supports 2..5 levels");
    HierarchyConfig cfg = defaultHierarchy();
    cfg.sramLevels.clear();

    CacheConfig l1;
    l1.name = "l1d";
    l1.sizeBytes = 64 * 1024;
    l1.ways = 8;
    l1.hitLatency = 4;
    cfg.sramLevels.push_back(l1);

    CacheConfig l2;
    l2.name = "l2";
    l2.sizeBytes = 64 * 1024; // paper: 1 MB
    l2.ways = 8;
    l2.hitLatency = 14;
    cfg.sramLevels.push_back(l2);

    if (levels >= 3) {
        CacheConfig l3;
        l3.name = "l3";
        l3.sizeBytes = 256 * 1024; // paper: 16 MB
        l3.ways = 16;
        l3.hitLatency = 44;
        l3.sharedAcrossCores = true;
        cfg.sramLevels.push_back(l3);
    }
    if (levels >= 4) {
        CacheConfig l4;
        l4.name = "l4";
        l4.sizeBytes = 2ull * 1024 * 1024; // paper: 128 MB
        l4.ways = 16;
        l4.hitLatency = 82;
        l4.sharedAcrossCores = true;
        cfg.sramLevels.push_back(l4);
    }
    cfg.hasDramCache = (levels >= 5);
    return cfg;
}

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     std::uint32_t num_cores)
    : config_(config), numCores_(num_cores)
{
    cwsp_assert(num_cores > 0, "need at least one core");
    cwsp_assert(!config.sramLevels.empty(), "need at least an L1");
    cwsp_assert(!config.sramLevels[0].sharedAcrossCores,
                "L1D must be private");
    cwsp_assert(config.numMcs > 0, "need at least one MC");
    cwsp_assert(config.sramLevels.size() <= tag_outcome::kMaxSramLevels,
                "at most ", tag_outcome::kMaxSramLevels,
                " SRAM levels fit a tag outcome");

    caches_.resize(config.sramLevels.size());
    for (std::size_t lvl = 0; lvl < config.sramLevels.size(); ++lvl) {
        const auto &cc = config.sramLevels[lvl];
        std::size_t instances = cc.sharedAcrossCores ? 1 : num_cores;
        for (std::size_t i = 0; i < instances; ++i)
            caches_[lvl].push_back(std::make_unique<Cache>(cc));
    }
    if (config.hasDramCache)
        dram_ = std::make_unique<Cache>(config.dramCache);

    for (std::uint32_t c = 0; c < num_cores; ++c) {
        wbs_.push_back(std::make_unique<WriteBuffer>(
            config.wbCapacity, config.wbDrainCycles));
    }
    for (std::uint32_t m = 0; m < config.numMcs; ++m) {
        McConfig mc;
        mc.id = m;
        mc.tech = config.tech;
        mc.wpqCapacity = config.wpqCapacity;
        mc.logServiceFactor = config.logServiceFactor;
        mc.idealWpq = config.idealWpq;
        mc.freeUndoLog = config.freeUndoLog;
        mcs_.push_back(std::make_unique<MemoryController>(mc));
    }
}

Cache &
Hierarchy::cacheAt(std::size_t level, CoreId core)
{
    auto &instances = caches_[level];
    return instances.size() == 1 ? *instances[0] : *instances[core];
}

bool
Hierarchy::writeBackBelow(std::size_t level, CoreId core, Addr line,
                          Addr &charged)
{
    // Each dirty line installs into the next level down and may push
    // that level's dirty victim on, until one lands without a dirty
    // victim or leaves the last cache level.
    for (std::size_t next = level + 1; next < caches_.size(); ++next) {
        auto res = cacheAt(next, core).access(line, true);
        if (!(res.evictedValid && res.evictedDirty))
            return false;
        line = res.evictedLine;
    }
    if (dram_) {
        auto res = dram_->access(line, true);
        if (!(res.evictedValid && res.evictedDirty))
            return false;
        line = res.evictedLine;
    }
    charged = line;
    return true;
}

TagOutcome
Hierarchy::walk(CoreId core, Addr line, bool is_write, Addr *victims)
{
    using namespace tag_outcome;
    TagOutcome flags = 0;
    unsigned charges = 0;
    Addr *v = victims;
    auto code = [&](TagOutcome served) {
        return static_cast<TagOutcome>(served | flags |
                                       charges << kChargeShift);
    };
    const std::size_t levels = caches_.size();
    for (std::size_t lvl = 0; lvl < levels; ++lvl) {
        auto res =
            cacheAt(lvl, core).access(line, is_write && lvl == 0);
        if (res.hit)
            return code(static_cast<TagOutcome>(lvl));
        if (res.evictedValid && res.evictedDirty) {
            if (lvl == 0) {
                flags |= kL1DirtyVictim;
                *v++ = res.evictedLine;
            }
            if (writeBackBelow(lvl, core, res.evictedLine, *v)) {
                ++v;
                ++charges;
            }
        }
    }
    if (dram_) {
        auto res = dram_->access(line, false);
        if (res.evictedValid && res.evictedDirty) {
            *v++ = res.evictedLine;
            ++charges;
        }
        if (res.hit)
            return code(static_cast<TagOutcome>(levels));
    }
    return code(kServedNvm);
}

std::uint32_t
Hierarchy::insertWb(CoreId core, Addr line, Tick now)
{
    // L1D dirty evictions pass through the write buffer; the
    // stale-read rule may hold them until the line's persist
    // completes.
    Tick ready = 0;
    if (config_.wbPersistDelay && persistReadyHook)
        ready = persistReadyHook(line);
    auto &wb = writeBuffer(core);
    wbOccupancy_.sample(static_cast<double>(wb.occupancyAt(now)));
    Tick proceed = wb.insert(now, line, ready);
    if (trace_ && proceed > now && ready > now) {
        trace_->record(sim::TraceEventKind::WbPersistDelay,
                       sim::coreLane(core), now, proceed - now, line);
    }
    return static_cast<std::uint32_t>(proceed - now);
}

std::uint32_t
Hierarchy::chargeWriteBack(Addr line, Tick now)
{
    // Persist-path schemes already delivered the data. Capri waits
    // out its proxy-buffer scan on every DRAM-cache dirty eviction.
    if (!config_.dropLlcDirtyEvictions)
        mc(mcFor(line)).chargeEviction(now, kCachelineBytes);
    return dram_ ? config_.dramEvictionDelay : 0;
}

AccessOutcome
Hierarchy::apply(CoreId core, Addr addr, Tick now, TagOutcome tag,
                 const Addr *&victims)
{
    using namespace tag_outcome;
    AccessOutcome out;
    const std::size_t served = tag & kServedMask;
    ++l1DemandAccesses_;
    if (served != 0)
        ++l1DemandMisses_;

    // Eviction traffic, in walk order: the L1 victim, then each line
    // leaving the last cache level.
    std::uint32_t stall = 0;
    if (tag & kL1DirtyVictim)
        stall += insertWb(core, *victims++, now);
    for (unsigned k = tag >> kChargeShift; k != 0; --k)
        stall += chargeWriteBack(*victims++, now);
    out.latency = stall;
    out.evictionStall = stall;

    if (served < caches_.size()) {
        out.servedBy = ServedBy::Sram;
        out.sramLevel = static_cast<std::uint32_t>(served);
        out.latency += (served == 0 && config_.chargeFirstLevelAsOne)
                           ? 1
                           : config_.sramLevels[served].hitLatency;
        return out;
    }
    if (dram_) {
        if (served == caches_.size()) {
            ++dramHits_;
            out.servedBy = ServedBy::DramCache;
            out.latency += config_.dramCache.hitLatency;
            return out;
        }
        ++dramMisses_;
    }

    // NVM read.
    const Addr word = wordAlign(addr);
    ++nvmReads_;
    McId m = mcFor(addr);
    out.servedBy = ServedBy::Nvm;
    out.mc = m;
    std::uint32_t lat = mc(m).readLatency();
    if (dram_)
        lat += config_.dramCache.hitLatency; // tag probe on the way

    Tick drain = mc(m).inflightDrainTime(word, now);
    if (drain > 0) {
        out.wpqHit = true;
        ++wpqHits_;
        if (config_.wpqLoadDelay)
            lat += static_cast<std::uint32_t>(drain - now);
        if (trace_) {
            trace_->record(sim::TraceEventKind::WpqHit,
                           sim::coreLane(core), now, 0, word,
                           config_.wpqLoadDelay ? drain - now : 0);
        }
    }
    out.latency += lat;
    return out;
}

// Every interpreted and replayed memory commit passes through here:
// flatten keeps walk and apply one function, as the demand access was
// before they split, and the cold panic stays out of line.
[[gnu::flatten]] AccessOutcome
Hierarchy::access(CoreId core, Addr addr, bool is_write, Tick now)
{
    if (replaying_) {
        if (tape_ == tapeEnd_)
            outcomesExhausted();
        return apply(core, addr, now, *tape_++, tapeVictims_);
    }
    Addr victims[tag_outcome::kMaxVictims];
    const TagOutcome tag = walk(core, lineAlign(addr), is_write, victims);
    const Addr *v = victims;
    return apply(core, addr, now, tag, v);
}

void
Hierarchy::outcomesExhausted() const
{
    cwsp_panic("replayed tag outcomes ran out before the accesses");
}

void
Hierarchy::replayOutcomes(const std::vector<TagOutcome> &outcomes,
                          const std::vector<Addr> &victims)
{
    cwsp_assert(l1DemandAccesses_ == 0,
                "outcome replay must start on untouched tags");
    replaying_ = true;
    tape_ = outcomes.data();
    tapeEnd_ = tape_ + outcomes.size();
    tapeVictims_ = victims.data();
}

void
Hierarchy::setTrace(sim::TraceBuffer *trace)
{
    trace_ = trace;
    for (auto &m : mcs_)
        m->setTrace(trace);
}

double
Hierarchy::meanWbOccupancy() const
{
    return wbOccupancy_.mean();
}

std::uint64_t
Hierarchy::l1Accesses() const
{
    return l1DemandAccesses_;
}

std::uint64_t
Hierarchy::l1Misses() const
{
    return l1DemandMisses_;
}

void
Hierarchy::captureState(sim::StateWriter &w) const
{
    for (const auto &level : caches_)
        for (const auto &cache : level)
            cache->captureState(w, !replaying_);
    if (dram_)
        dram_->captureState(w, !replaying_);
    for (const auto &wb : wbs_)
        wb->captureState(w);
    for (const auto &m : mcs_)
        m->captureState(w);
    wbOccupancy_.captureState(w);
    w.pod(wpqHits_);
    w.pod(nvmReads_);
    w.pod(dramHits_);
    w.pod(dramMisses_);
    w.pod(l1DemandAccesses_);
    w.pod(l1DemandMisses_);
}

void
Hierarchy::restoreState(sim::StateReader &r)
{
    for (auto &level : caches_)
        for (auto &cache : level)
            cache->restoreState(r);
    if (dram_)
        dram_->restoreState(r);
    for (auto &wb : wbs_)
        wb->restoreState(r);
    for (auto &m : mcs_)
        m->restoreState(r);
    wbOccupancy_.restoreState(r);
    wpqHits_ = r.pod<std::uint64_t>();
    nvmReads_ = r.pod<std::uint64_t>();
    dramHits_ = r.pod<std::uint64_t>();
    dramMisses_ = r.pod<std::uint64_t>();
    l1DemandAccesses_ = r.pod<std::uint64_t>();
    l1DemandMisses_ = r.pod<std::uint64_t>();
}

} // namespace cwsp::mem
