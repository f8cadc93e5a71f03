#include "interp/machine_state.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace cwsp::interp {

namespace {

/** Page-id mix before masking (ids differ only in low bits). */
inline std::size_t
mixPageId(std::uint64_t id)
{
    std::uint64_t h = id;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
}

} // namespace

SparseMemory::SparseMemory(const SparseMemory &other)
    : dirKeys_(other.dirKeys_), dirVals_(other.dirVals_)
{
    if (other.numPages_ == 0)
        return;
    addSlab(other.numPages_);
    for (std::size_t i = 0; i < other.numPages_; ++i)
        *pages_[i] = *other.pages_[i];
    numPages_ = other.numPages_;
}

SparseMemory::SparseMemory(SparseMemory &&other) noexcept
    : slabs_(std::exchange(other.slabs_, {})),
      pages_(std::exchange(other.pages_, {})),
      numPages_(std::exchange(other.numPages_, 0)),
      dirKeys_(std::exchange(other.dirKeys_, {})),
      dirVals_(std::exchange(other.dirVals_, {})),
      mru_(std::exchange(other.mru_, nullptr))
{
}

SparseMemory &
SparseMemory::operator=(const SparseMemory &other)
{
    if (this != &other)
        *this = SparseMemory(other);
    return *this;
}

SparseMemory &
SparseMemory::operator=(SparseMemory &&other) noexcept
{
    if (this != &other) {
        slabs_ = std::exchange(other.slabs_, {});
        pages_ = std::exchange(other.pages_, {});
        numPages_ = std::exchange(other.numPages_, 0);
        dirKeys_ = std::exchange(other.dirKeys_, {});
        dirVals_ = std::exchange(other.dirVals_, {});
        mru_ = std::exchange(other.mru_, nullptr);
    }
    return *this;
}

std::size_t
SparseMemory::dirSlot(std::uint64_t page_id) const
{
    std::size_t mask = dirKeys_.size() - 1;
    std::size_t i = mixPageId(page_id) & mask;
    while (dirVals_[i] != 0 && dirKeys_[i] != page_id)
        i = (i + 1) & mask;
    return i;
}

SparseMemory::Page *
SparseMemory::lookup(std::uint64_t page_id) const
{
    if (dirKeys_.empty())
        return nullptr;
    std::uint32_t v = dirVals_[dirSlot(page_id)];
    return v == 0 ? nullptr : pages_[v - 1];
}

const SparseMemory::Page *
SparseMemory::findPage(std::uint64_t page_id) const
{
    if (mru_ && mru_->id == page_id)
        return mru_;
    Page *p = lookup(page_id);
    if (p)
        mru_ = p;
    return p;
}

void
SparseMemory::addSlab(std::size_t num_pages)
{
    slabs_.push_back(std::make_unique_for_overwrite<Page[]>(num_pages));
    Page *slab = slabs_.back().get();
    for (std::size_t i = 0; i < num_pages; ++i)
        pages_.push_back(slab + i);
}

SparseMemory::Page &
SparseMemory::carvePage(std::uint64_t page_id)
{
    if (numPages_ == pages_.size())
        addSlab(std::clamp<std::size_t>(pages_.size(), 1, kMaxSlabPages));
    Page &p = *pages_[numPages_++];
    p.words.fill(0);
    p.present.fill(0);
    p.id = page_id;
    return p;
}

SparseMemory::Page &
SparseMemory::getPage(std::uint64_t page_id)
{
    if (mru_ && mru_->id == page_id)
        return *mru_;
    if (dirKeys_.empty()) {
        dirKeys_.assign(64, kNoPage);
        dirVals_.assign(64, 0);
    }
    std::size_t i = dirSlot(page_id);
    if (dirVals_[i] == 0) {
        if ((numPages_ + 1) * 10 > dirKeys_.size() * 7) {
            growDirectory();
            i = dirSlot(page_id);
        }
        carvePage(page_id);
        dirKeys_[i] = page_id;
        dirVals_[i] = static_cast<std::uint32_t>(numPages_);
    }
    mru_ = pages_[dirVals_[i] - 1];
    return *mru_;
}

void
SparseMemory::growDirectory()
{
    std::size_t cap = dirKeys_.size() * 2;
    dirKeys_.assign(cap, kNoPage);
    dirVals_.assign(cap, 0);
    std::size_t mask = cap - 1;
    for (std::size_t idx = 0; idx < numPages_; ++idx) {
        std::uint64_t id = pages_[idx]->id;
        std::size_t i = mixPageId(id) & mask;
        while (dirVals_[i] != 0)
            i = (i + 1) & mask;
        dirKeys_[i] = id;
        dirVals_[i] = static_cast<std::uint32_t>(idx + 1);
    }
}

Word
SparseMemory::read(Addr addr) const
{
    cwsp_assert((addr & 7) == 0, "misaligned read at ", addr);
    const Page *p = findPage(addr >> kPageShift);
    if (!p)
        return 0;
    unsigned w = static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    return p->words[w];
}

void
SparseMemory::write(Addr addr, Word value)
{
    cwsp_assert((addr & 7) == 0, "misaligned write at ", addr);
    Page &p = getPage(addr >> kPageShift);
    unsigned w = static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    p.words[w] = value;
    p.present[w >> 6] |= 1ull << (w & 63);
}

std::size_t
SparseMemory::footprintWords() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < numPages_; ++i)
        for (std::uint64_t bits : pages_[i]->present)
            n += static_cast<std::size_t>(std::popcount(bits));
    return n;
}

std::size_t
SparseMemory::residentBytes() const
{
    return pages_.size() * sizeof(Page) +
           pages_.capacity() * sizeof(Page *) +
           slabs_.capacity() * sizeof(slabs_[0]) +
           dirKeys_.capacity() * sizeof(std::uint64_t) +
           dirVals_.capacity() * sizeof(std::uint32_t);
}

void
SparseMemory::clear()
{
    numPages_ = 0;
    std::fill(dirKeys_.begin(), dirKeys_.end(), kNoPage);
    std::fill(dirVals_.begin(), dirVals_.end(), 0);
    mru_ = nullptr;
}

std::vector<const SparseMemory::Page *>
SparseMemory::sortedPages() const
{
    std::vector<const Page *> sorted(pages_.begin(),
                                     pages_.begin() + numPages_);
    std::sort(sorted.begin(), sorted.end(),
              [](const Page *a, const Page *b) { return a->id < b->id; });
    return sorted;
}

bool
SparseMemory::diffPage(const Page *a, const Page *b, std::uint64_t id,
                       unsigned wlo, unsigned whi,
                       const DiffVisitor &visit)
{
    static constexpr std::array<Word, kPageWords> kZeroWords{};
    const Word *aw = a ? a->words.data() : kZeroWords.data();
    const Word *bw = b ? b->words.data() : kZeroWords.data();
    if (wlo == 0 && whi == kPageWords &&
        std::memcmp(aw, bw, kPageWords * sizeof(Word)) == 0)
        return true;
    const Addr base = id << kPageShift;
    for (unsigned w = wlo; w < whi; ++w) {
        if (aw[w] != bw[w] &&
            !visit(base + w * kWordBytes, aw[w], bw[w]))
            return false;
    }
    return true;
}

bool
SparseMemory::diffRange(const SparseMemory &other, Addr lo, Addr hi,
                        const DiffVisitor &visit) const
{
    cwsp_assert((lo & 7) == 0, "misaligned range start at ", lo);
    if (lo >= hi)
        return true;
    // Word numbers [first, end): a word straddling hi is in range.
    const std::uint64_t first = lo >> 3;
    const std::uint64_t end = (hi >> 3) + ((hi & 7) != 0);
    for (std::uint64_t id = first >> kPageWordShift;
         id <= (end - 1) >> kPageWordShift; ++id) {
        const Page *a = lookup(id);
        const Page *b = other.lookup(id);
        if (!a && !b)
            continue;
        const std::uint64_t base = id << kPageWordShift;
        const unsigned wlo =
            first > base ? static_cast<unsigned>(first - base) : 0;
        const unsigned whi =
            end - base < kPageWords ? static_cast<unsigned>(end - base)
                                    : kPageWords;
        if (!diffPage(a, b, id, wlo, whi, visit))
            return false;
    }
    return true;
}

bool
SparseMemory::equals(const SparseMemory &other) const
{
    // Pages absent on one side compare against zeros: present-bitmap
    // differences alone (e.g. an explicitly written zero) are not
    // value differences.
    const DiffVisitor stop = [](Addr, Word, Word) { return false; };
    for (std::size_t i = 0; i < numPages_; ++i) {
        const Page *p = pages_[i];
        if (!diffPage(p, other.lookup(p->id), p->id, 0, kPageWords,
                      stop))
            return false;
    }
    for (std::size_t i = 0; i < other.numPages_; ++i) {
        const Page *p = other.pages_[i];
        if (!lookup(p->id) &&
            !diffPage(nullptr, p, p->id, 0, kPageWords, stop))
            return false;
    }
    return true;
}

} // namespace cwsp::interp
