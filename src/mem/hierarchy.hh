/**
 * @file
 * The full memory hierarchy: private/shared SRAM cache levels, an
 * optional memory-side DRAM cache (Intel PMEM "memory mode" LLC), the
 * L1D write buffer, and the NVM memory controllers. Produces per-
 * access latencies for the commit-level core model and keeps all tag
 * state so miss rates emerge from the workload's reference stream.
 *
 * A demand access is two steps. The tag walk decides hits, installs
 * and victims from tag state alone; apply turns that outcome into
 * latency, write-buffer and MC traffic, counters and trace events.
 * Tag state never sees a timing value, so a walk's outcomes are a
 * pure function of the access sequence and the tag geometry: a
 * commit stream records them once (core/commit_stream.hh) and
 * replay feeds them straight to apply.
 */

#ifndef CWSP_MEM_HIERARCHY_HH
#define CWSP_MEM_HIERARCHY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/memory_controller.hh"
#include "mem/write_buffer.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cwsp::mem {

/** Static description of the whole memory system. */
struct HierarchyConfig
{
    /** SRAM levels, L1D first. L1D must be private. */
    std::vector<CacheConfig> sramLevels;

    /** Memory-side DRAM cache (direct-mapped in the paper). */
    bool hasDramCache = true;
    CacheConfig dramCache;

    NvmTech tech;
    std::uint32_t numMcs = 2;
    std::uint32_t wpqCapacity = 24;
    double logServiceFactor = 3.0;

    /**
     * Counterfactual idealizations (what-if profiler; see
     * McConfig::idealWpq / McConfig::freeUndoLog). Both participate
     * in the canonical config serialization.
     */
    bool idealWpq = false;
    bool freeUndoLog = false;

    std::uint32_t wbCapacity = 32;
    std::uint32_t wbDrainCycles = 14;

    /** L1 hits cost 1 cycle (pipelined) instead of the tag latency. */
    bool chargeFirstLevelAsOne = true;

    /**
     * Drop dirty LLC evictions instead of writing them to NVM — the
     * persist path already delivered the data (persist-path schemes).
     */
    bool dropLlcDirtyEvictions = false;

    /** Delay loads that hit an in-flight WPQ entry (Section V-A2). */
    bool wpqLoadDelay = false;

    /** Apply the stale-read writeback delay in the WB (Section V-A1). */
    bool wbPersistDelay = false;

    /**
     * Capri's stale-read handling (Section II-D): every DRAM-cache
     * dirty eviction waits the worst-case persist-path delivery
     * latency while the proxy buffer is scanned. Charged to the
     * access that triggered the eviction.
     */
    std::uint32_t dramEvictionDelay = 0;
};

/**
 * Canonical key of @p config's tag geometry: each SRAM level's size,
 * ways and sharing, and whether there is a DRAM cache with its size
 * and ways. Tag walks on hierarchies with equal keys decide the same
 * outcomes for the same access sequence. Latencies, the WB, WPQ and
 * MC parameters, dropLlcDirtyEvictions, dramEvictionDelay and the
 * delay flags are timing, read by apply, and not part of it.
 */
std::string tagGeometryKey(const HierarchyConfig &config);

/**
 * What one demand access's tag walk decided, in one byte:
 *  - bits 0-2: where it was served: SRAM level k as k, the DRAM cache
 *    as the number of SRAM levels, NVM as tag_outcome::kServedNvm;
 *  - bit 3 (kL1DirtyVictim): the L1 evicted a dirty line, which the
 *    write buffer takes;
 *  - bits 4-6: how many dirty lines the access pushed out of the
 *    last cache level, each one MC eviction charge.
 * The victim lines travel beside it: the L1 victim first, then each
 * charged line in walk order.
 */
using TagOutcome = std::uint8_t;

namespace tag_outcome {
constexpr TagOutcome kServedMask = 7;
constexpr TagOutcome kServedNvm = 7;
constexpr TagOutcome kL1DirtyVictim = 8;
constexpr unsigned kChargeShift = 4;
/** SRAM levels a hierarchy may have, so the DRAM cache's code
 *  stays below kServedNvm and the charge count fits its 3 bits. */
constexpr std::size_t kMaxSramLevels = 6;
/** Victim lines one outcome can carry. */
constexpr std::size_t kMaxVictims = 1 + kMaxSramLevels + 1;

/** Victim lines that travel with @p t. */
constexpr unsigned
victims(TagOutcome t)
{
    return ((t & kL1DirtyVictim) ? 1u : 0u) + (t >> kChargeShift);
}
} // namespace tag_outcome

/** The paper's default configuration (Section IX). */
HierarchyConfig defaultHierarchy();

/** Fig. 20 variant: private 1 MB L2 + shared 16 MB L3. */
HierarchyConfig threeLevelHierarchy();

/** Fig. 1 variants: 2..5 levels ending in the DRAM cache. */
HierarchyConfig figure1Hierarchy(unsigned levels);

/** Where an access was served. */
enum class ServedBy : std::uint8_t { Sram, DramCache, Nvm };

/** Result of one memory access through the hierarchy. */
struct AccessOutcome
{
    std::uint32_t latency = 0;
    /** Write-buffer back-pressure portion of @ref latency. */
    std::uint32_t evictionStall = 0;
    ServedBy servedBy = ServedBy::Sram;
    std::uint32_t sramLevel = 0; ///< valid when servedBy == Sram
    bool wpqHit = false;         ///< NVM read found an in-flight entry
    McId mc = 0;                 ///< valid when servedBy == Nvm
};

/** The assembled memory system for @p numCores cores. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig &config, std::uint32_t num_cores);

    const HierarchyConfig &config() const { return config_; }

    /**
     * Demand access from @p core at word address @p addr: the tag
     * walk, or the next replayed outcome (replayOutcomes()), then
     * apply.
     */
    AccessOutcome access(CoreId core, Addr addr, bool is_write,
                         Tick now);

    /**
     * The tag half of a demand access to @p line: lookups, installs
     * and victim choice at every level, in access order. It reads and
     * writes tag state only, never a latency, counter or trace. Writes
     * the outcome's victim lines to @p victims (room for
     * tag_outcome::kMaxVictims).
     */
    TagOutcome walk(CoreId core, Addr line, bool is_write,
                    Addr *victims);

    /**
     * The timing half of a demand access whose walk decided @p tag:
     * latencies, write-buffer inserts, MC eviction charges, and every
     * counter and trace event. Reads the victim lines from @p victims
     * and advances it past them; never reads a tag.
     */
    AccessOutcome apply(CoreId core, Addr addr, Tick now,
                        TagOutcome tag, const Addr *&victims);

    /**
     * Replay: take every demand access's tag outcome, in order, from
     * @p outcomes and @p victims (recorded by walk() on this tag
     * geometry for the same access sequence) instead of walking, for
     * the rest of this hierarchy's life; both vectors must outlive
     * every later access. The tags are never touched, so a replaying
     * hierarchy holds none: the call must precede the first access,
     * and checkpoints capture no tag slots.
     */
    void replayOutcomes(const std::vector<TagOutcome> &outcomes,
                        const std::vector<Addr> &victims);

    /** Replayed outcomes not yet applied (0 when walking). */
    std::size_t
    outcomesLeft() const
    {
        return static_cast<std::size_t>(tapeEnd_ - tape_);
    }

    /** MC that owns @p addr (cacheline interleaving). */
    McId
    mcFor(Addr addr) const
    {
        return static_cast<McId>((addr / kCachelineBytes) %
                                 config_.numMcs);
    }

    MemoryController &mc(McId id) { return *mcs_[id]; }
    std::uint32_t numMcs() const { return config_.numMcs; }

    WriteBuffer &writeBuffer(CoreId core) { return *wbs_[core]; }

    /**
     * Hook supplied by the persistence scheme: the persist-completion
     * time of the newest in-flight store to @p line (0 when none).
     * Drives the WB stale-read delay.
     */
    std::function<Tick(Addr line)> persistReadyHook;

    /** Mean WB occupancy sampled at each insertion, over all cores. */
    double meanWbOccupancy() const;

    std::uint64_t wpqHits() const { return wpqHits_; }
    std::uint64_t nvmReads() const { return nvmReads_; }
    std::uint64_t dramCacheHits() const { return dramHits_; }
    std::uint64_t dramCacheMisses() const { return dramMisses_; }

    /** Demand accesses/misses of SRAM level 0 (L1D), all cores. */
    std::uint64_t l1Accesses() const;
    std::uint64_t l1Misses() const;

    /** Attach a trace sink; propagates to the memory controllers. */
    void setTrace(sim::TraceBuffer *trace);

    /**
     * Checkpointing: every cache instance, the DRAM cache, the write
     * buffers, the MCs, the WB occupancy average, and the aggregate
     * counters. Restore requires a hierarchy built with the same
     * config and core count (enforced structurally: the component
     * walk is identical on both sides). A replaying hierarchy has no
     * tags to capture: its caches write empty slot arrays (and restore
     * from them into empty tags, which only a fork at the capture
     * instant may do: the crash then empties every cache anyway).
     */
    void captureState(sim::StateWriter &w) const;
    void restoreState(sim::StateReader &r);

  private:
    sim::TraceBuffer *trace_ = nullptr;
    HierarchyConfig config_;
    std::uint32_t numCores_;
    /// caches_[level][coreOr0]: private levels have one per core.
    std::vector<std::vector<std::unique_ptr<Cache>>> caches_;
    std::unique_ptr<Cache> dram_;
    std::vector<std::unique_ptr<WriteBuffer>> wbs_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    Average wbOccupancy_;
    std::uint64_t wpqHits_ = 0;
    std::uint64_t nvmReads_ = 0;
    std::uint64_t dramHits_ = 0;
    std::uint64_t dramMisses_ = 0;
    std::uint64_t l1DemandAccesses_ = 0;
    std::uint64_t l1DemandMisses_ = 0;

    /** Replay cursor over recorded outcomes (unset: walk tags). */
    bool replaying_ = false;
    const TagOutcome *tape_ = nullptr;
    const TagOutcome *tapeEnd_ = nullptr;
    const Addr *tapeVictims_ = nullptr;

    Cache &cacheAt(std::size_t level, CoreId core);

    [[noreturn, gnu::noinline]] void outcomesExhausted() const;

    /**
     * Walk a dirty victim of SRAM level @p level down the levels
     * below it. True when the cascade pushes a dirty line out of the
     * last cache level, stored in @p charged.
     */
    bool writeBackBelow(std::size_t level, CoreId core, Addr line,
                        Addr &charged);

    /** Apply an L1 dirty victim: the write-buffer insert. */
    std::uint32_t insertWb(CoreId core, Addr line, Tick now);

    /** Apply a dirty line leaving the last cache level. */
    std::uint32_t chargeWriteBack(Addr line, Tick now);
};

} // namespace cwsp::mem

#endif // CWSP_MEM_HIERARCHY_HH
