/**
 * @file
 * Open-addressed linear-probe hash map from word-aligned addresses
 * (or any u64 key never equal to ~0) to a u64 value. Replaces the
 * std::unordered_map hot paths in the scheme's per-line persist
 * tracking and the memory controller's in-flight table: probe
 * sequences stay within one or two cache lines and the table's
 * storage comes from the simulation arena.
 *
 * A rebuild (growth, eraseIf) fills a new table and retires the old
 * one. An arena cannot free it, so the map keeps the last retired
 * table and rebuilds into it when the capacities match: periodic
 * cleanups then cycle between two tables instead of growing the
 * arena with every rebuild.
 */

#ifndef CWSP_SIM_FLAT_MAP_HH
#define CWSP_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>

#include "sim/arena.hh"
#include "sim/state_capture.hh"

namespace cwsp::sim {

/**
 * u64 -> u64 map; the key ~0ull is reserved as the empty sentinel
 * (never a valid word/line address — those are 8-aligned).
 */
class FlatMap64
{
  public:
    static constexpr std::uint64_t kEmpty = ~0ull;

    explicit FlatMap64(std::size_t expected = 64)
        : arena_(SimArena::current())
    {
        std::size_t cap = 16;
        while (cap * 7 < expected * 10) // target <= 0.7 load
            cap <<= 1;
        allocate(cap);
    }

    FlatMap64(const FlatMap64 &) = delete;
    FlatMap64 &operator=(const FlatMap64 &) = delete;

    FlatMap64(FlatMap64 &&other) noexcept { moveFrom(other); }

    FlatMap64 &
    operator=(FlatMap64 &&other) noexcept
    {
        if (this != &other) {
            freeTables();
            moveFrom(other);
        }
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the value of @p key, or nullptr when absent. */
    std::uint64_t *
    find(std::uint64_t key)
    {
        std::size_t i = slotOf(key);
        return keys_[i] == key ? &vals_[i] : nullptr;
    }

    const std::uint64_t *
    find(std::uint64_t key) const
    {
        std::size_t i = slotOf(key);
        return keys_[i] == key ? &vals_[i] : nullptr;
    }

    /**
     * Value reference for @p key, inserting 0 when absent — the
     * `map[k] = max(map[k], v)` update pattern.
     */
    std::uint64_t &
    refInsert(std::uint64_t key)
    {
        std::size_t i = slotOf(key);
        if (keys_[i] != key) {
            if ((size_ + 1) * 10 > cap_ * 7) {
                grow();
                i = slotOf(key);
            }
            keys_[i] = key;
            vals_[i] = 0;
            ++size_;
        }
        return vals_[i];
    }

    void insertOrAssign(std::uint64_t key, std::uint64_t value)
    {
        refInsert(key) = value;
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < cap_; ++i)
            keys_[i] = kEmpty;
        size_ = 0;
    }

    /**
     * Drop every entry whose value satisfies @p pred by rebuilding
     * into a fresh table (open addressing cannot tombstone-free
     * erase in place). Used by the periodic stale-entry cleanups.
     */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        rebuild(cap_, pred);
    }

    /**
     * Checkpointing: capacity (growth thresholds depend on it), then
     * the live (key, value) pairs in slot order.
     */
    void
    captureState(StateWriter &w) const
    {
        w.pod<std::uint64_t>(cap_);
        w.pod<std::uint64_t>(size_);
        for (std::size_t i = 0; i < cap_; ++i) {
            if (keys_[i] != kEmpty) {
                w.pod(keys_[i]);
                w.pod(vals_[i]);
            }
        }
    }

    void
    restoreState(StateReader &r)
    {
        auto cap = static_cast<std::size_t>(r.pod<std::uint64_t>());
        auto n = static_cast<std::size_t>(r.pod<std::uint64_t>());
        if (cap_ != cap) {
            std::uint64_t *old_keys = keys_;
            std::uint64_t *old_vals = vals_;
            const std::size_t old_cap = cap_;
            allocate(cap);
            retire(old_keys, old_vals, old_cap);
        } else {
            clear();
        }
        size_ = 0;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t key = r.pod<std::uint64_t>();
            refInsert(key) = r.pod<std::uint64_t>();
        }
    }

  private:
    std::size_t
    slotOf(std::uint64_t key) const
    {
        // splitmix64-style finalizer: word addresses differ only in
        // low bits, so mix before masking.
        std::uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        std::size_t i = static_cast<std::size_t>(h) & mask_;
        while (keys_[i] != kEmpty && keys_[i] != key)
            i = (i + 1) & mask_;
        return i;
    }

    /** An empty table of @p cap slots: the retired one when its
     *  capacity matches, else a fresh one. */
    void
    allocate(std::size_t cap)
    {
        cap_ = cap;
        mask_ = cap - 1;
        if (spareKeys_ && spareCap_ == cap) {
            keys_ = spareKeys_;
            vals_ = spareVals_;
            spareKeys_ = spareVals_ = nullptr;
            spareCap_ = 0;
        } else if (arena_) {
            keys_ = arena_->allocArray<std::uint64_t>(cap);
            vals_ = arena_->allocArray<std::uint64_t>(cap);
        } else {
            keys_ = new std::uint64_t[cap];
            vals_ = new std::uint64_t[cap];
        }
        for (std::size_t i = 0; i < cap; ++i)
            keys_[i] = kEmpty;
    }

    /** Keep a table no longer in use as the spare, dropping the
     *  spare allocate() did not take. */
    void
    retire(std::uint64_t *keys, std::uint64_t *vals, std::size_t cap)
    {
        freeTable(spareKeys_, spareVals_);
        spareKeys_ = keys;
        spareVals_ = vals;
        spareCap_ = cap;
    }

    /** Reinsert, in slot order, every entry not matching @p drop
     *  into an empty table of @p cap slots. */
    template <typename Pred>
    void
    rebuild(std::size_t cap, Pred drop)
    {
        std::uint64_t *old_keys = keys_;
        std::uint64_t *old_vals = vals_;
        const std::size_t old_cap = cap_;
        allocate(cap);
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i)
            if (old_keys[i] != kEmpty && !drop(old_vals[i]))
                refInsert(old_keys[i]) = old_vals[i];
        retire(old_keys, old_vals, old_cap);
    }

    void
    grow()
    {
        rebuild(cap_ * 2, [](std::uint64_t) { return false; });
    }

    void
    freeTable(std::uint64_t *keys, std::uint64_t *vals)
    {
        if (!arena_) {
            delete[] keys;
            delete[] vals;
        }
    }

    void
    freeTables()
    {
        freeTable(keys_, vals_);
        freeTable(spareKeys_, spareVals_);
    }

    void
    moveFrom(FlatMap64 &other)
    {
        arena_ = other.arena_;
        keys_ = other.keys_;
        vals_ = other.vals_;
        cap_ = other.cap_;
        mask_ = other.mask_;
        size_ = other.size_;
        spareKeys_ = other.spareKeys_;
        spareVals_ = other.spareVals_;
        spareCap_ = other.spareCap_;
        other.keys_ = other.vals_ = nullptr;
        other.spareKeys_ = other.spareVals_ = nullptr;
        other.cap_ = other.mask_ = other.size_ = other.spareCap_ = 0;
    }

  public:
    ~FlatMap64()
    {
        freeTables();
        keys_ = vals_ = spareKeys_ = spareVals_ = nullptr;
    }

  private:
    SimArena *arena_ = nullptr;
    std::uint64_t *keys_ = nullptr;
    std::uint64_t *vals_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    /** The last retired table, rebuilt into when capacities match. */
    std::uint64_t *spareKeys_ = nullptr;
    std::uint64_t *spareVals_ = nullptr;
    std::size_t spareCap_ = 0;
};

} // namespace cwsp::sim

#endif // CWSP_SIM_FLAT_MAP_HH
