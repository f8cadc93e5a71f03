/**
 * @file
 * Architectural machine state: sparse word-addressed memory, call
 * frames, and the NVM checkpoint-area address map.
 */

#ifndef CWSP_INTERP_MACHINE_STATE_HH
#define CWSP_INTERP_MACHINE_STATE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "ir/ir.hh"
#include "sim/types.hh"

namespace cwsp::interp {

/**
 * Sparse 64-bit-word memory. Unwritten words read as zero (zero-filled
 * pages). Addresses must be 8-byte aligned.
 *
 * Storage is paged: 512-word (4 KiB) pages indexed through an
 * open-addressed page directory, with a present-bitmap per page so
 * "distinct words ever written" semantics survive (a written zero is
 * distinct from an untouched word). The directory maps a page id to
 * an index, and an index -> page-pointer table maps the index to the
 * page. Pages are carved from slabs that grow geometrically (1, 1, 2,
 * 4, ... pages, capped at kMaxSlabPages, about 1 MiB), so a page never
 * moves once carved: growing an image never copies the pages already
 * written. A page is zeroed once, when carved; clear() keeps the slabs
 * and re-carves them. A copy allocates one slab of exactly the
 * source's page count, and a moved-from image is empty and usable.
 *
 * The interpreter's accesses cluster heavily (stack, checkpoint slots,
 * kernel working set), so nearly every access hits the one-entry MRU
 * page cache and costs a bitmap test plus an array index — no hashing,
 * no node chasing.
 *
 * Concurrency: read() is const but updates the MRU, so it is NOT safe
 * on an image other threads also read (the fault campaign shares one
 * golden image among the concurrent cases of a context). The other
 * const members — diffRange(), equals(), copying, forEach(),
 * footprintWords() and residentBytes() — look pages up through the
 * directory alone and are safe on a shared image.
 *
 * Deliberately heap-backed (not arena-backed): crash runs copy the
 * durable image across simulator resets, so the memory must outlive
 * any simulation arena. Slabs come from the heap allocator, not from
 * dedicated mmap() regions, which would be unmapped on free and fault
 * every page in afresh on reuse.
 */
class SparseMemory
{
  public:
    SparseMemory() = default;
    SparseMemory(const SparseMemory &other);
    SparseMemory(SparseMemory &&other) noexcept;
    SparseMemory &operator=(const SparseMemory &other);
    SparseMemory &operator=(SparseMemory &&other) noexcept;

    Word read(Addr addr) const;
    void write(Addr addr, Word value);

    /** Number of distinct words ever written. */
    std::size_t footprintWords() const;

    /**
     * Heap bytes held (slabs + page table + directory), for cache
     * caps. Slabs count whole; vector slack of the tables counts too.
     */
    std::size_t residentBytes() const;

    /** Iterate all (addr, value) pairs in ascending address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Page *p : sortedPages()) {
            Addr base = p->id << kPageShift;
            for (unsigned w = 0; w < kPageWords; ++w)
                if (p->present[w >> 6] & (1ull << (w & 63)))
                    fn(base + w * kWordBytes, p->words[w]);
        }
    }

    /** Drop all contents, keeping slab/directory capacity warm. */
    void clear();

    /**
     * Value equality under zero-default semantics: words absent from
     * one side compare equal to zero on the other.
     */
    bool equals(const SparseMemory &other) const;

    /** Called with (addr, this image's word, the other's word). */
    using DiffVisitor = std::function<bool(Addr, Word, Word)>;

    /**
     * Visit every word in [lo, hi) whose value differs between this
     * image and @p other (zero-default semantics), in ascending
     * address order; @p lo must be word-aligned, and a word that
     * straddles @p hi is in the range. The walk goes page id by page
     * id: pages absent on both sides are skipped, a page present on
     * either side is memcmp'd whole, and only a page that differs or
     * that the range edge cuts is compared word by word. Stops when
     * @p visit returns false; returns false iff it stopped.
     */
    bool diffRange(const SparseMemory &other, Addr lo, Addr hi,
                   const DiffVisitor &visit) const;

  private:
    static constexpr unsigned kPageWords = 512; ///< 4 KiB pages
    static constexpr unsigned kPageShift = 12;  ///< addr -> page id
    static constexpr unsigned kPageWordShift = 9;
    static constexpr std::uint64_t kNoPage = ~0ull;
    /** Slab size cap in pages (256 x 4168 B, about 1 MiB). */
    static constexpr std::size_t kMaxSlabPages = 256;

    /** Trivial, so slabs are allocated without initialisation. */
    struct Page
    {
        std::array<Word, kPageWords> words;
        std::array<std::uint64_t, kPageWords / 64> present;
        std::uint64_t id;
    };
    static_assert(std::is_trivial_v<Page>);

    /** Directory lookup; never touches the MRU. */
    Page *lookup(std::uint64_t page_id) const;
    /** lookup() through the MRU (see the concurrency note). */
    const Page *findPage(std::uint64_t page_id) const;
    Page &getPage(std::uint64_t page_id);
    Page &carvePage(std::uint64_t page_id);
    /**
     * The page compare behind diffRange() and equals(): words
     * [wlo, whi) of page @p id in @p a and @p b (null = absent, all
     * zeros), memcmp'd first when the whole page is in range.
     */
    static bool diffPage(const Page *a, const Page *b,
                         std::uint64_t id, unsigned wlo, unsigned whi,
                         const DiffVisitor &visit);
    void addSlab(std::size_t num_pages);
    void growDirectory();
    std::size_t dirSlot(std::uint64_t page_id) const;
    std::vector<const Page *> sortedPages() const;

    std::vector<std::unique_ptr<Page[]>> slabs_;
    /**
     * Index -> page, over every slab page in carve order; the first
     * numPages_ entries are in use, the rest are carved next.
     */
    std::vector<Page *> pages_;
    std::size_t numPages_ = 0;
    /** Open-addressed pageId -> pages_ index (+1; 0 = empty). */
    std::vector<std::uint64_t> dirKeys_;
    std::vector<std::uint32_t> dirVals_;
    /** One-entry MRU page cache (null = none). */
    mutable Page *mru_ = nullptr;
};

/** Poison pattern for registers recovery does not restore. */
constexpr Word kPoison = 0xdeadbeefdeadbeefULL;

/** One activation record. */
struct Frame
{
    std::array<Word, ir::kNumRegs> regs{};
    ir::FuncId func = ir::kNoFunc;
    ir::BlockId block = 0;
    std::uint32_t index = 0;   ///< next instruction to execute
    ir::Reg returnDst = ir::kNoReg; ///< caller register for the result
};

/** A resumable control snapshot (taken at region boundaries). */
struct ControlSnapshot
{
    std::vector<Frame> frames;
};

/** Bytes of simulated stack given to each frame. */
constexpr Addr kFrameStackBytes = 4096;

/** Checkpoint-slot bytes per frame (one word per register). */
constexpr Addr kCkptFrameBytes = ir::kNumRegs * kWordBytes;

/** Base of core @p core's stack area. */
inline Addr
stackBase(CoreId core)
{
    return ir::Module::kStackBase + core * ir::Module::kStackStride;
}

/** Frame pointer value for frame depth @p depth on core @p core. */
inline Addr
framePointer(CoreId core, std::size_t depth)
{
    return stackBase(core) + depth * kFrameStackBytes;
}

/** Address of checkpoint slot @p reg of frame @p depth on @p core. */
inline Addr
ckptSlotAddr(CoreId core, std::size_t depth, ir::Reg reg)
{
    return ir::Module::kCkptBase + core * ir::Module::kCkptStride +
           depth * kCkptFrameBytes + reg * kWordBytes;
}

} // namespace cwsp::interp

#endif // CWSP_INTERP_MACHINE_STATE_HH
