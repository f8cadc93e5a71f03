/**
 * @file
 * A set-associative writeback cache model (tags + LRU only; data
 * values live in the functional memory).
 *
 * Tag state is structure-of-arrays: per-slot tag, LRU stamp, and
 * valid/dirty meta live in three parallel arrays (arena-backed), so
 * the hit scan over a set's ways reads one contiguous 64-byte run of
 * tags. SRAM-sized caches (up to kDenseSlotLimit slots) preallocate
 * the full geometry; larger ones (the multi-gigabyte DRAM cache)
 * allocate set slabs lazily through a flat directory so memory cost
 * is proportional to the touched footprint, not configured capacity.
 */

#ifndef CWSP_MEM_CACHE_HH
#define CWSP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/arena.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace cwsp::mem {

/**
 * Geometry and latency of one cache level. The set count,
 * sizeBytes / (ways x 64), must be a power of two.
 */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 8;        ///< 1 = direct-mapped
    std::uint32_t hitLatency = 4;  ///< cycles
    bool sharedAcrossCores = false;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evictedValid = false;
    bool evictedDirty = false;
    Addr evictedLine = 0;
};

/** Tag/LRU state for one cache instance. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    /** @return true when @p line is present (no LRU update). */
    bool probe(Addr line) const;

    /**
     * Access @p line (must be line-aligned): on a hit, refresh LRU
     * and possibly set the dirty bit; on a miss, allocate the line
     * (write-allocate policy), evicting the LRU way.
     */
    CacheAccessResult access(Addr line, bool is_write);

    /** Remove @p line if present; @return true when it was dirty. */
    bool invalidate(Addr line);

    /** Insert a line in a non-dirty state (fills from lower levels). */
    CacheAccessResult fill(Addr line) { return access(line, false); }

    std::uint64_t numSets() const { return numSets_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }

    void
    resetStats()
    {
        hits_ = misses_ = dirtyEvictions_ = 0;
    }

    /**
     * Checkpointing: the full SoA slot arrays (sparse caches capture
     * only the lazily-allocated slabs plus the set directory), the
     * LRU clock, and the counters. Restore requires a cache built
     * with the same geometry. With @p tags false the slot arrays are
     * written empty, for a cache whose tags were never walked;
     * restoring that leaves a freshly built cache's tags empty.
     */
    void captureState(sim::StateWriter &w, bool tags = true) const;
    void restoreState(sim::StateReader &r);

  private:
    /** Preallocate fully up to this many slots (sets x ways). */
    static constexpr std::uint64_t kDenseSlotLimit = 1ull << 20;

    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint64_t setMask_; ///< numSets_ - 1 (a power of two)
    bool dense_;

    /** SoA slot arrays; slot = setBase + way. */
    sim::ArenaVector<Addr> lines_;
    sim::ArenaVector<std::uint64_t> lastUse_;
    sim::ArenaVector<std::uint8_t> meta_;
    /** Sparse mode: setIndex -> slab base in the slot arrays. */
    sim::FlatMap64 setDir_;

    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;

    std::uint64_t
    setIndex(Addr line) const
    {
        return (line / kCachelineBytes) & setMask_;
    }

    /**
     * Slab base of @p set, or ~0ull when not yet allocated. Sparse
     * directory values are stored base+1 so the flat map's zero
     * default means "absent".
     */
    std::uint64_t
    setBase(std::uint64_t set) const
    {
        if (dense_)
            return set * config_.ways;
        const std::uint64_t *b = setDir_.find(set);
        return (b && *b) ? *b - 1 : ~0ull;
    }
};

} // namespace cwsp::mem

#endif // CWSP_MEM_CACHE_HH
