/**
 * @file
 * Bump-arena allocation for simulator hot-path state.
 *
 * A simulation builds a large amount of short-lived, uniformly-sized
 * state (queue rings, cache ways, flat-map tables) that dies as one
 * unit at reset. SimArena carves all of it out of a few large chunks
 * with a pointer bump; reset() rewinds the bump pointers but keeps
 * the chunks, so a BatchRunner worker reusing one arena across
 * design points allocates from warm, already-faulted memory.
 *
 * Threading through constructor signatures would touch every layer
 * (Hierarchy -> Cache/WriteBuffer/MemoryController, Scheme ->
 * PersistBuffer/RegionBoundaryTable), so the arena is published via
 * a thread-local "current arena" pointer instead: WholeSystemSim
 * installs an ArenaScope while (re)building its component tree, and
 * arena-aware containers capture SimArena::current() at
 * construction. Outside any scope they fall back to the heap, which
 * keeps the containers usable in isolation (unit tests construct
 * PersistBuffer etc. directly).
 *
 * Only trivially-destructible element types may live in an arena
 * (reset() never runs destructors); ArenaVector/allocArray enforce
 * this statically.
 */

#ifndef CWSP_SIM_ARENA_HH
#define CWSP_SIM_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace cwsp::sim {

/**
 * Chunked bump allocator. Allocation is a pointer bump within the
 * active chunk; exhausted chunks stay owned so reset() can hand the
 * whole set back without touching the system allocator.
 */
class SimArena
{
  public:
    explicit SimArena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunkBytes_(chunk_bytes)
    {
    }

    SimArena(const SimArena &) = delete;
    SimArena &operator=(const SimArena &) = delete;

    /** Raw aligned allocation; never freed individually. */
    void *
    alloc(std::size_t bytes, std::size_t align = alignof(std::max_align_t))
    {
        std::size_t off = (offset_ + align - 1) & ~(align - 1);
        if (active_ >= chunks_.size() ||
            off + bytes > chunks_[active_].size) {
            newChunk(bytes + align);
            off = (offset_ + align - 1) & ~(align - 1);
        }
        void *p = chunks_[active_].data.get() + off;
        offset_ = off + bytes;
        allocated_ += bytes;
        return p;
    }

    /**
     * Uninitialized array of @p n trivially-destructible elements.
     * Callers value-initialize as needed (ArenaVector does).
     */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without destructors");
        if (n == 0)
            return nullptr;
        return static_cast<T *>(alloc(n * sizeof(T), alignof(T)));
    }

    /**
     * Rewind all bump pointers, keeping every chunk. All memory
     * handed out before the call is invalid afterwards; the owner
     * (WholeSystemSim::reset) destroys the component tree first.
     */
    void
    reset()
    {
        active_ = 0;
        offset_ = 0;
        allocated_ = 0;
    }

    /** Release the chunks themselves (end of worker lifetime). */
    void
    release()
    {
        chunks_.clear();
        reset();
    }

    /** Bytes handed out since the last reset. */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Bytes of chunk capacity currently owned (warm footprint). */
    std::size_t
    ownedBytes() const
    {
        std::size_t total = 0;
        for (const auto &c : chunks_)
            total += c.size;
        return total;
    }

    /** The thread's current arena (nullptr outside any ArenaScope). */
    static SimArena *current();

    /**
     * Simulators currently built on this arena. reset() rewinds the
     * storage under every one of them, so at most one may be live:
     * WholeSystemSim refuses an arena that already holds a simulator,
     * attaches itself on construction and detaches on destruction.
     * Not synchronized; an arena belongs to one thread.
     */
    std::size_t liveSims() const { return liveSims_; }
    void attachSim() { ++liveSims_; }
    void detachSim() { --liveSims_; }

  private:
    static constexpr std::size_t kDefaultChunkBytes = 1u << 20;

    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    void
    newChunk(std::size_t min_bytes)
    {
        // Move past the active chunk; reuse a kept one when large
        // enough, otherwise insert a fresh chunk of sufficient size.
        std::size_t next = chunks_.empty() ? 0 : active_ + 1;
        while (next < chunks_.size() && chunks_[next].size < min_bytes)
            ++next; // skip kept chunks that are too small
        if (next >= chunks_.size()) {
            std::size_t size = std::max(chunkBytes_, min_bytes);
            chunks_.push_back(
                Chunk{std::make_unique<std::byte[]>(size), size});
            next = chunks_.size() - 1;
        }
        active_ = next;
        offset_ = 0;
    }

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    std::size_t active_ = 0;
    std::size_t offset_ = 0;
    std::size_t allocated_ = 0;
    std::size_t liveSims_ = 0;

    friend class ArenaScope;
    static thread_local SimArena *tlsCurrent_;
};

inline thread_local SimArena *SimArena::tlsCurrent_ = nullptr;

inline SimArena *
SimArena::current()
{
    return tlsCurrent_;
}

/**
 * RAII publication of an arena as the thread's current one for the
 * duration of a component-tree (re)build. Scopes nest (the previous
 * current is restored), though the simulator never needs nesting.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(SimArena *arena)
        : prev_(SimArena::tlsCurrent_)
    {
        SimArena::tlsCurrent_ = arena;
    }

    ~ArenaScope() { SimArena::tlsCurrent_ = prev_; }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    SimArena *prev_;
};

/**
 * Minimal growable array of trivially-destructible elements that
 * draws storage from the arena current at construction (heap
 * fallback otherwise). Grown storage is abandoned to the arena —
 * acceptable because the simulator reserves to config-derived
 * bounds up front and growth is the rare path.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without destructors");
    static_assert(std::is_trivially_copyable_v<T>,
                  "growth relocates elements with memcpy");

  public:
    ArenaVector() : arena_(SimArena::current()) {}

    explicit ArenaVector(std::size_t initial_capacity) : ArenaVector()
    {
        reserve(initial_capacity);
    }

    ArenaVector(const ArenaVector &) = delete;
    ArenaVector &operator=(const ArenaVector &) = delete;

    ArenaVector(ArenaVector &&other) noexcept { moveFrom(other); }

    ArenaVector &
    operator=(ArenaVector &&other) noexcept
    {
        if (this != &other) {
            freeHeap();
            moveFrom(other);
        }
        return *this;
    }

    ~ArenaVector() { freeHeap(); }

    void
    reserve(std::size_t want)
    {
        if (want > cap_)
            regrow(want);
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            regrow(cap_ ? cap_ * 2 : 16);
        data_[size_++] = v;
    }

    void resize(std::size_t n)
    {
        reserve(n);
        for (std::size_t i = size_; i < n; ++i)
            data_[i] = T{};
        size_ = n;
    }

    void clear() { size_ = 0; }
    void pop_back() { --size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

  private:
    void
    regrow(std::size_t want)
    {
        std::size_t cap = cap_ ? cap_ : 8;
        while (cap < want)
            cap *= 2;
        T *next;
        if (arena_) {
            next = arena_->allocArray<T>(cap);
        } else {
            next = static_cast<T *>(
                ::operator new[](cap * sizeof(T), std::align_val_t{
                                                      alignof(T)}));
        }
        if (size_)
            std::memcpy(static_cast<void *>(next), data_,
                        size_ * sizeof(T));
        freeHeap();
        data_ = next;
        cap_ = cap;
    }

    void
    freeHeap()
    {
        if (!arena_ && data_)
            ::operator delete[](data_,
                                std::align_val_t{alignof(T)});
        data_ = nullptr;
        cap_ = 0;
    }

    void
    moveFrom(ArenaVector &other)
    {
        arena_ = other.arena_;
        data_ = other.data_;
        size_ = other.size_;
        cap_ = other.cap_;
        other.data_ = nullptr;
        other.size_ = 0;
        other.cap_ = 0;
    }

    SimArena *arena_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

} // namespace cwsp::sim

#endif // CWSP_SIM_ARENA_HH
