#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cwsp::mem {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    cwsp_assert(config.ways > 0, "cache must have at least one way");
    cwsp_assert(config.sizeBytes % (config.ways * kCachelineBytes) == 0,
                "cache size not divisible into sets: ", config.name);
    numSets_ = config.sizeBytes / (config.ways * kCachelineBytes);
    cwsp_assert(numSets_ > 0, "cache has no sets: ", config.name);
    // Sets are indexed with a mask, not a modulo.
    cwsp_assert((numSets_ & (numSets_ - 1)) == 0, "cache ", config.name,
                " has ", numSets_, " sets, not a power of two");
    setMask_ = numSets_ - 1;

    std::uint64_t slots = numSets_ * config.ways;
    dense_ = slots <= kDenseSlotLimit;
    if (dense_) {
        lines_.resize(slots);
        lastUse_.resize(slots);
        meta_.resize(slots);
    }
}

bool
Cache::probe(Addr line) const
{
    std::uint64_t base = setBase(setIndex(line));
    if (base == ~0ull)
        return false;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if ((meta_[base + w] & kValid) && lines_[base + w] == line)
            return true;
    }
    return false;
}

CacheAccessResult
Cache::access(Addr line, bool is_write)
{
    cwsp_assert(line == lineAlign(line), "unaligned line address");
    CacheAccessResult result;
    std::uint64_t base;
    if (dense_) {
        base = setIndex(line) * config_.ways;
    } else {
        std::uint64_t &slot = setDir_.refInsert(setIndex(line));
        if (slot == 0) {
            // Slab bases are stored +1 so the refInsert() zero
            // default can mean "absent".
            std::uint64_t begin = lines_.size();
            for (std::uint32_t w = 0; w < config_.ways; ++w) {
                lines_.push_back(0);
                lastUse_.push_back(0);
                meta_.push_back(0);
            }
            slot = begin + 1;
        }
        base = slot - 1;
    }

    ++useClock_;
    const std::uint32_t ways = config_.ways;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if ((meta_[base + w] & kValid) && lines_[base + w] == line) {
            lastUse_[base + w] = useClock_;
            if (is_write)
                meta_[base + w] |= kDirty;
            result.hit = true;
            ++hits_;
            return result;
        }
    }

    ++misses_;
    // Choose victim: an invalid way, else the LRU way.
    std::uint64_t victim = base;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (!(meta_[base + w] & kValid)) {
            victim = base + w;
            break;
        }
        if (lastUse_[base + w] < lastUse_[victim])
            victim = base + w;
    }
    if (meta_[victim] & kValid) {
        result.evictedValid = true;
        result.evictedDirty = (meta_[victim] & kDirty) != 0;
        result.evictedLine = lines_[victim];
        if (result.evictedDirty)
            ++dirtyEvictions_;
    }
    meta_[victim] = static_cast<std::uint8_t>(
        kValid | (is_write ? kDirty : 0));
    lines_[victim] = line;
    lastUse_[victim] = useClock_;
    return result;
}

bool
Cache::invalidate(Addr line)
{
    std::uint64_t base = setBase(setIndex(line));
    if (base == ~0ull)
        return false;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if ((meta_[base + w] & kValid) && lines_[base + w] == line) {
            bool dirty = (meta_[base + w] & kDirty) != 0;
            meta_[base + w] = 0;
            return dirty;
        }
    }
    return false;
}

void
Cache::captureState(sim::StateWriter &w, bool tags) const
{
    // Dense caches have a fixed slot count; sparse ones capture the
    // slabs allocated so far plus the directory mapping sets to them
    // (slab order is allocation order, which the capture preserves,
    // so restored future allocations extend identically).
    const std::size_t slots = tags ? lines_.size() : 0;
    w.sizedArray(lines_.data(), slots);
    w.array(lastUse_.data(), slots);
    w.array(meta_.data(), slots);
    setDir_.captureState(w);
    w.pod(useClock_);
    w.pod(hits_);
    w.pod(misses_);
    w.pod(dirtyEvictions_);
}

void
Cache::restoreState(sim::StateReader &r)
{
    auto slots = static_cast<std::size_t>(r.count());
    // Zero slots from a dense cache: captured without tags.
    cwsp_assert(dense_ ? slots == lines_.size() || slots == 0 : true,
                "dense cache restore with mismatched geometry: ",
                config_.name);
    if (!dense_) {
        lines_.resize(slots);
        lastUse_.resize(slots);
        meta_.resize(slots);
    }
    r.array(lines_.data(), slots);
    r.array(lastUse_.data(), slots);
    r.array(meta_.data(), slots);
    setDir_.restoreState(r);
    useClock_ = r.pod<std::uint64_t>();
    hits_ = r.pod<std::uint64_t>();
    misses_ = r.pod<std::uint64_t>();
    dirtyEvictions_ = r.pod<std::uint64_t>();
}

} // namespace cwsp::mem
