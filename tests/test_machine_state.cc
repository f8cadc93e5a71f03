/**
 * @file
 * SparseMemory's page-granular storage and compare: checkGlobals
 * against a per-word reference, value equality, copy/move/clear
 * semantics, ordered iteration across slab boundaries, resident-byte
 * accounting, and compares on one image shared by several threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "compiler/baseline_lowering.hh"
#include "core/consistency_checker.hh"
#include "interp/interpreter.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

constexpr Addr kPageBytes = 4096;
/** A page's 4 KiB of words plus generous room for its bookkeeping. */
constexpr std::size_t kPageBudget = kPageBytes + 256;

/** The checker's per-word loop, as it was before the page compare. */
core::CheckResult
referenceCheck(const ir::Module &module,
               const interp::SparseMemory &expected,
               const interp::SparseMemory &actual)
{
    core::CheckResult result;
    for (const auto &g : module.globals()) {
        for (Addr a = g.base; a < g.base + g.sizeBytes;
             a += kWordBytes) {
            Word e = expected.read(a);
            Word v = actual.read(a);
            if (e != v) {
                result.consistent = false;
                ++result.totalDivergences;
                if (result.divergences.size() < 16) {
                    result.divergences.push_back(
                        core::Divergence{a, e, v, g.name});
                }
            }
        }
    }
    return result;
}

void
expectSameResult(const core::CheckResult &got,
                 const core::CheckResult &want)
{
    EXPECT_EQ(got.consistent, want.consistent);
    EXPECT_EQ(got.totalDivergences, want.totalDivergences);
    ASSERT_EQ(got.divergences.size(), want.divergences.size());
    for (std::size_t i = 0; i < want.divergences.size(); ++i) {
        const auto &g = got.divergences[i];
        const auto &w = want.divergences[i];
        EXPECT_EQ(g.addr, w.addr) << "divergence " << i;
        EXPECT_EQ(g.expected, w.expected) << "divergence " << i;
        EXPECT_EQ(g.actual, w.actual) << "divergence " << i;
        EXPECT_EQ(g.global, w.global) << "divergence " << i;
    }
}

/** Page numbers holding at least one written word of @p m. */
std::set<Addr>
pagesOf(const interp::SparseMemory &m)
{
    std::set<Addr> pages;
    m.forEach([&](Addr a, Word) { pages.insert(a / kPageBytes); });
    return pages;
}

struct AstarGolden
{
    std::unique_ptr<ir::Module> mod;
    interp::SparseMemory memory;
};

/** astar's golden image: 64 MiB of globals, thousands of pages. */
const AstarGolden &
astarGolden()
{
    static const AstarGolden golden = [] {
        AstarGolden g;
        g.mod = workloads::buildApp(workloads::appByName("astar"),
                                    compiler::cwspOptions());
        interp::runToCompletion(*g.mod, g.memory, "main", {});
        return g;
    }();
    return golden;
}

/**
 * A copy of astar's golden image with more than 16 divergences across
 * every global, a page only it holds, explicit zeros over words the
 * golden image never wrote, and (through @p expected) a page only the
 * golden side holds. @p salt varies the injected values.
 */
interp::SparseMemory
corruptAstar(interp::SparseMemory &expected, Word salt)
{
    const auto &g = astarGolden();
    interp::SparseMemory actual = g.memory;
    const std::set<Addr> present = pagesOf(g.memory);
    for (const auto &gl : g.mod->globals()) {
        // Flip up to six written words of this global.
        std::vector<Addr> written;
        g.memory.forEach([&](Addr a, Word) {
            if (a >= gl.base && a < gl.base + gl.sizeBytes &&
                written.size() < 6)
                written.push_back(a);
        });
        for (Addr a : written)
            actual.write(a, g.memory.read(a) ^ (salt | 1));
        // An unwritten word of a written page: a zero is no change, a
        // value is.
        for (Addr a = gl.base; a < gl.base + gl.sizeBytes;
             a += kWordBytes) {
            if (present.count(a / kPageBytes) && g.memory.read(a) == 0) {
                actual.write(a, 0);
                if (a + kWordBytes < gl.base + gl.sizeBytes)
                    actual.write(a + kWordBytes, salt + 7);
                break;
            }
        }
        // Pages the golden image never touched: one holds only an
        // explicit zero (equal), one a value on the actual side, one a
        // value on the expected side.
        int absent = 0;
        for (Addr p = gl.base / kPageBytes;
             p * kPageBytes < gl.base + gl.sizeBytes && absent < 3;
             ++p) {
            if (present.count(p) || p * kPageBytes < gl.base)
                continue;
            Addr a = p * kPageBytes + 8 * kWordBytes;
            if (absent == 0)
                actual.write(a, 0);
            else if (absent == 1)
                actual.write(a, salt + 11);
            else
                expected.write(a, salt + 13);
            ++absent;
        }
    }
    return actual;
}

TEST(CheckGlobals, MatchesPerWordReferenceOnAstar)
{
    const auto &g = astarGolden();
    ASSERT_GE(g.mod->globals().size(), 3u);
    ASSERT_GT(pagesOf(g.memory).size(), 1000u);

    interp::SparseMemory same = g.memory;
    auto clean = core::checkGlobals(*g.mod, g.memory, same);
    EXPECT_TRUE(clean.consistent);
    expectSameResult(clean, referenceCheck(*g.mod, g.memory, same));

    interp::SparseMemory expected = g.memory;
    interp::SparseMemory actual = corruptAstar(expected, 0x5a5a);
    // Pages present on one side only, both ways.
    const auto expected_pages = pagesOf(expected);
    const auto actual_pages = pagesOf(actual);
    EXPECT_FALSE(std::includes(expected_pages.begin(),
                               expected_pages.end(),
                               actual_pages.begin(), actual_pages.end()));
    EXPECT_FALSE(std::includes(actual_pages.begin(), actual_pages.end(),
                               expected_pages.begin(),
                               expected_pages.end()));
    auto got = core::checkGlobals(*g.mod, expected, actual);
    auto want = referenceCheck(*g.mod, expected, actual);
    EXPECT_FALSE(got.consistent);
    EXPECT_GT(want.totalDivergences, 16u);
    std::set<std::string> names;
    for (const auto &d : want.divergences)
        names.insert(d.global);
    EXPECT_GE(names.size(), 2u);
    expectSameResult(got, want);
    // And with the roles swapped.
    expectSameResult(core::checkGlobals(*g.mod, actual, expected),
                     referenceCheck(*g.mod, actual, expected));
}

TEST(CheckGlobals, MatchesPerWordReferenceOnRandomImages)
{
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&](std::uint64_t n) { return rng() % n; };
        ir::Module mod;
        // Cacheline-aligned globals that start and end mid-page, some
        // spanning several pages, some with a trailing partial word.
        int n = 1 + static_cast<int>(pick(6));
        for (int i = 0; i < n; ++i) {
            std::uint64_t size = 8 * (1 + pick(3 * 512));
            if (pick(4) == 0)
                size += 1 + pick(7);
            mod.addGlobal("g" + std::to_string(i), size);
        }
        mod.layoutMemory();
        const auto &last = mod.globals().back();
        const Addr lo = ir::Module::kGlobalBase;
        const Addr span = last.base + last.sizeBytes + 2 * kPageBytes - lo;

        interp::SparseMemory expected, actual;
        auto randomAddr = [&] {
            return lo + (pick(span) & ~Addr{7});
        };
        for (int i = 0; i < 400; ++i) {
            Addr a = randomAddr();
            Word v = pick(3) == 0 ? 0 : rng();
            switch (pick(5)) {
            case 0: // one side only
                expected.write(a, v);
                break;
            case 1:
                actual.write(a, v);
                break;
            case 2: // both sides, equal
                expected.write(a, v);
                actual.write(a, v);
                break;
            case 3: // both sides, different
                expected.write(a, v);
                actual.write(a, v + 1);
                break;
            default: // an explicit zero
                expected.write(a, 0);
                break;
            }
        }
        // Differences in the cacheline gaps between globals and just
        // past the last one, where a page-wide compare would see them.
        for (const auto &g : mod.globals()) {
            Addr end = (g.base + g.sizeBytes + 7) & ~Addr{7};
            actual.write(end, 0x77);
            if (g.base >= lo + kWordBytes)
                expected.write(g.base - kWordBytes, 0x99);
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameResult(core::checkGlobals(mod, expected, actual),
                         referenceCheck(mod, expected, actual));
        expectSameResult(core::checkGlobals(mod, actual, expected),
                         referenceCheck(mod, actual, expected));
    }
}

TEST(CheckGlobals, SharedGoldenImageFromFourThreads)
{
    // Four threads compare against the one golden image, thread t
    // with corrupted image t % 2, and must all see the serial result.
    const auto &g = astarGolden();
    constexpr int kThreads = 4;
    interp::SparseMemory unused;
    std::vector<interp::SparseMemory> actual;
    std::vector<core::CheckResult> want;
    for (int i = 0; i < 2; ++i) {
        actual.push_back(corruptAstar(unused, 0x100 * (i + 1)));
        want.push_back(core::checkGlobals(*g.mod, g.memory, actual[i]));
        ASSERT_FALSE(want.back().consistent);
    }
    std::vector<std::vector<core::CheckResult>> got(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep) {
                got[t].push_back(core::checkGlobals(*g.mod, g.memory,
                                                    actual[t % 2]));
            }
        });
    }
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        for (const auto &r : got[t])
            expectSameResult(r, want[t % 2]);
    }
}

TEST(SparseMemory, EqualsUnderZeroDefault)
{
    const Addr base = 0x2000'0000;
    interp::SparseMemory a, b;
    EXPECT_TRUE(a.equals(b));

    // An explicit zero equals an absent word.
    a.write(base, 0);
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));

    // A page present on one side only, all zeros, is equal.
    for (Addr w = 0; w < kPageBytes; w += kWordBytes)
        b.write(base + 5 * kPageBytes + w, 0);
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));

    // One differing word is unequal, on a shared page...
    a.write(base + 8, 42);
    b.write(base + 8, 42);
    EXPECT_TRUE(a.equals(b));
    b.write(base + 4088, 1);
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
    a.write(base + 4088, 1);
    EXPECT_TRUE(a.equals(b));

    // ...and on a page only one side holds.
    a.write(base + 9 * kPageBytes, 3);
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

TEST(SparseMemory, CopyMoveAndClear)
{
    const Addr base = 0x2000'0000;
    interp::SparseMemory a;
    for (Addr p = 0; p < 40; ++p)
        a.write(base + p * kPageBytes + 8 * p, p + 1);
    const std::size_t words = a.footprintWords();

    // A copy is deep both ways.
    interp::SparseMemory b = a;
    EXPECT_TRUE(b.equals(a));
    EXPECT_EQ(b.footprintWords(), words);
    a.write(base, 100);
    EXPECT_EQ(b.read(base), 1u);
    b.write(base + 8, 200);
    EXPECT_EQ(a.read(base + 8), 0u);
    EXPECT_EQ(b.read(base + 39 * kPageBytes + 8 * 39), 40u);

    // Copy-assign over a non-empty image replaces it.
    interp::SparseMemory c;
    c.write(base + 1000 * kPageBytes, 9);
    c = a;
    EXPECT_TRUE(c.equals(a));
    EXPECT_EQ(c.read(base + 1000 * kPageBytes), 0u);
    EXPECT_EQ(c.footprintWords(), a.footprintWords());

    // A moved-from image is empty and usable.
    interp::SparseMemory d = std::move(c);
    EXPECT_TRUE(d.equals(a));
    EXPECT_EQ(c.read(base), 0u);
    EXPECT_EQ(c.footprintWords(), 0u);
    c.write(base + 16, 5);
    EXPECT_EQ(c.read(base + 16), 5u);
    EXPECT_EQ(c.footprintWords(), 1u);
    interp::SparseMemory e;
    e.write(base, 1);
    e = std::move(d);
    EXPECT_TRUE(e.equals(a));
    EXPECT_EQ(d.read(base), 0u);
    d.write(base, 6);
    EXPECT_EQ(d.read(base), 6u);

    // clear() empties the image; reused pages come back zeroed.
    const std::size_t resident = e.residentBytes();
    e.clear();
    EXPECT_EQ(e.footprintWords(), 0u);
    EXPECT_EQ(e.read(base + 39 * kPageBytes + 8 * 39), 0u);
    EXPECT_TRUE(e.equals(interp::SparseMemory{}));
    EXPECT_EQ(e.residentBytes(), resident);
    for (Addr p = 0; p < 40; ++p)
        e.write(base + (p + 100) * kPageBytes, 7);
    EXPECT_EQ(e.footprintWords(), 40u);
    EXPECT_EQ(e.read(base + 100 * kPageBytes + 8), 0u);
    EXPECT_EQ(e.read(base + 8 * 39), 0u);
    EXPECT_EQ(e.residentBytes(), resident);
}

TEST(SparseMemory, ForEachAscendsAcrossSlabs)
{
    // 600 pages, written in shuffled order, span several slabs.
    const Addr base = 0x3000'0000;
    std::vector<Addr> pages(600);
    std::iota(pages.begin(), pages.end(), 0);
    std::shuffle(pages.begin(), pages.end(), std::mt19937_64(7));
    interp::SparseMemory m;
    std::set<Addr> written;
    for (Addr p : pages) {
        for (Addr w : {p % 512, (p * 7 + 3) % 512, 511 - p % 512}) {
            Addr a = base + p * kPageBytes + w * kWordBytes;
            m.write(a, p % 3 == 0 ? 0 : a);
            written.insert(a);
        }
    }
    EXPECT_EQ(m.footprintWords(), written.size());

    const interp::SparseMemory &grown = m;
    const interp::SparseMemory copy = m; // one slab
    for (const interp::SparseMemory *img : {&grown, &copy}) {
        std::vector<Addr> seen;
        img->forEach([&](Addr a, Word v) {
            EXPECT_EQ(v, (a - base) / kPageBytes % 3 == 0 ? 0 : a);
            seen.push_back(a);
        });
        EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
        EXPECT_EQ(std::set<Addr>(seen.begin(), seen.end()), written);
        EXPECT_EQ(seen.size(), written.size());
    }
}

TEST(SparseMemory, ResidentBytesCarryNoDoublingSlack)
{
    // 1,300 pages: a doubling vector would hold 2,048.
    const std::size_t n = 1300;
    interp::SparseMemory grown;
    for (Addr p = 0; p < n; ++p)
        grown.write(0x4000'0000 + p * kPageBytes, p);
    EXPECT_GE(grown.residentBytes(), n * kPageBytes);
    EXPECT_LE(grown.residentBytes(), n * kPageBudget * 5 / 4);

    // A copy holds exactly its pages.
    interp::SparseMemory copy = grown;
    EXPECT_GE(copy.residentBytes(), n * kPageBytes);
    EXPECT_LE(copy.residentBytes(), n * kPageBudget);
    EXPECT_LT(copy.residentBytes(), grown.residentBytes());

    // astar's golden image and its copy, the campaign's case.
    const auto &g = astarGolden();
    const std::size_t pages = pagesOf(g.memory).size();
    interp::SparseMemory golden_copy = g.memory;
    EXPECT_LE(golden_copy.residentBytes(), pages * kPageBudget);
    EXPECT_LE(g.memory.residentBytes(),
              golden_copy.residentBytes() + 256 * kPageBudget);
}

} // namespace
} // namespace cwsp
