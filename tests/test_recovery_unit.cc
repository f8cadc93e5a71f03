/**
 * @file
 * Unit tests for the recovery machinery in isolation: recovery-slice
 * execution, crash-state computation from hand-made persistence
 * records (persisted prefix, undo-log retention/reversal rules,
 * resume-point selection), the checkpoint-log retention rule that
 * protects the oldest unpersisted region's recovery inputs, and the
 * convergence check of an undo replay re-entered after a nested
 * failure.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/crash_injection.hh"
#include "core/recovery_engine.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"

namespace cwsp {
namespace {

using arch::RegionEvent;
using arch::StoreRecord;
using core::computeCrashState;

StoreRecord
store(Addr addr, Word value, Tick persist, RegionId region,
      bool logged = false, bool is_ckpt = false, CoreId core = 0)
{
    StoreRecord s;
    s.addr = addr;
    s.value = value;
    s.persistTime = persist;
    s.ackTime = persist; // unit tests treat admit == ack
    s.region = region;
    s.core = core;
    s.mc = 0;
    s.logged = logged;
    s.isCkpt = is_ckpt;
    return s;
}

RegionEvent
region(RegionId id, Tick begin, Tick spec_end,
       ir::StaticRegionId sid = 0, CoreId core = 0)
{
    RegionEvent e;
    e.region = id;
    e.core = core;
    e.begin = begin;
    e.specEnd = spec_end;
    e.func = 0;
    e.staticRegion = sid;
    return e;
}

TEST(CrashState, PersistedPrefixApplied)
{
    std::vector<StoreRecord> stores = {
        store(0x100, 1, 10, 1),
        store(0x108, 2, 20, 1),
        store(0x110, 3, 99, 2), // persists after the crash
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0),
                                        region(2, 15, 25)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    EXPECT_EQ(cs.nvm.read(0x100), 1u);
    EXPECT_EQ(cs.nvm.read(0x108), 2u);
    EXPECT_EQ(cs.nvm.read(0x110), 0u);
    EXPECT_EQ(cs.persistedStores, 2u);
}

TEST(CrashState, SpeculativeStoresReverted)
{
    // Region 2 is speculative at the crash (specEnd=100 > 50): its
    // persisted store is rolled back to the pre-store value.
    std::vector<StoreRecord> stores = {
        store(0x100, 1, 10, 1),
        store(0x100, 2, 30, 2, /*logged=*/true),
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0),
                                        region(2, 20, 100)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    EXPECT_EQ(cs.nvm.read(0x100), 1u);
    EXPECT_EQ(cs.revertedStores, 1u);
}

TEST(CrashState, ReclaimedLogsAreNotReverted)
{
    // Region 2 became non-speculative before the crash: its logs were
    // reclaimed, the speculative update stands.
    std::vector<StoreRecord> stores = {
        store(0x100, 1, 10, 1),
        store(0x100, 2, 30, 2, /*logged=*/true),
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0),
                                        region(2, 20, 40)};
    auto cs = computeCrashState(50, stores, regions, 1, {45});
    EXPECT_EQ(cs.nvm.read(0x100), 2u);
    EXPECT_EQ(cs.revertedStores, 0u);
}

TEST(CrashState, ReverseRegionOrderRestoresOldest)
{
    // Two speculative regions updated the same word; reversal must
    // end at the oldest pre-image.
    std::vector<StoreRecord> stores = {
        store(0x100, 10, 5, 1),
        store(0x100, 20, 15, 2, true),
        store(0x100, 30, 25, 3, true),
    };
    std::vector<RegionEvent> regions = {
        region(1, 0, 0), region(2, 10, 100), region(3, 20, 120)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    EXPECT_EQ(cs.nvm.read(0x100), 10u);
    EXPECT_EQ(cs.revertedStores, 2u);
}

TEST(CrashState, CheckpointLogsLiveUntilRegionPersists)
{
    // A checkpoint store of region 1 persisted, but region 1 itself
    // is the oldest unpersisted region (a data store is still in
    // flight): the checkpoint must be reverted even though region 1
    // is non-speculative — the rule that protects RS(R)'s inputs.
    std::vector<StoreRecord> stores = {
        store(0x200, 7, 10, 1, /*logged=*/true, /*is_ckpt=*/true),
        store(0x100, 1, 99, 1), // unpersisted data store
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0),
                                        region(2, 20, 99)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    EXPECT_EQ(cs.nvm.read(0x200), 0u) << "slot must be reverted";
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_EQ(cs.resume[0].region, 1u);
}

TEST(CrashState, CheckpointLogsReclaimedAfterRegionPersists)
{
    // Region 1 fully persisted before the crash: its checkpoint logs
    // were reclaimed and the slot value stands for RS(2) to read.
    std::vector<StoreRecord> stores = {
        store(0x200, 7, 10, 1, true, true),
        store(0x100, 1, 12, 1),
        store(0x108, 2, 99, 2), // region 2 unpersisted
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0),
                                        region(2, 20, 15)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    EXPECT_EQ(cs.nvm.read(0x200), 7u);
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_EQ(cs.resume[0].region, 2u);
}

TEST(CrashState, ResumeSkipsPersistedCompleteRegions)
{
    std::vector<StoreRecord> stores = {
        store(0x100, 1, 10, 1),
        store(0x108, 2, 30, 2),
        store(0x110, 3, 200, 3),
    };
    std::vector<RegionEvent> regions = {
        region(1, 0, 0, 11), region(2, 20, 12, 12),
        region(3, 40, 35, 13)};
    auto cs = computeCrashState(100, stores, regions, 1,
                                {kTickNever});
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_EQ(cs.resume[0].region, 3u);
    EXPECT_EQ(cs.resume[0].staticRegion, 13u);
    EXPECT_FALSE(cs.resume[0].restart);
}

TEST(CrashState, RunningRegionIsUnpersistedEvenIfStoresLanded)
{
    // The last region has all issued stores persisted but was still
    // executing at the crash: it must be the resume point.
    std::vector<StoreRecord> stores = {
        store(0x100, 1, 10, 1),
        store(0x108, 2, 30, 2),
    };
    std::vector<RegionEvent> regions = {region(1, 0, 0, 11),
                                        region(2, 20, 12, 12)};
    auto cs = computeCrashState(100, stores, regions, 1,
                                {kTickNever});
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_EQ(cs.resume[0].region, 2u);
}

TEST(CrashState, CrashBeforeFirstBoundaryRestarts)
{
    std::vector<StoreRecord> stores = {
        store(0x200, 7, 3, 0, true, true), // pre-main arg spill
    };
    std::vector<RegionEvent> regions = {region(1, 10, 0)};
    auto cs =
        computeCrashState(5, stores, regions, 1, {kTickNever});
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_TRUE(cs.resume[0].restart);
}

TEST(CrashState, UnpersistedArgSpillForcesRestart)
{
    std::vector<StoreRecord> stores = {
        store(0x200, 7, 90, 0, true, true), // spill persists late
        store(0x100, 1, 10, 1),
    };
    std::vector<RegionEvent> regions = {region(1, 5, 0),
                                        region(2, 20, 12)};
    auto cs = computeCrashState(50, stores, regions, 1,
                                {kTickNever});
    ASSERT_TRUE(cs.resume[0].hasWork);
    EXPECT_TRUE(cs.resume[0].restart);
}

TEST(CrashState, FinishedAndDrainedCoreNeedsNoWork)
{
    std::vector<StoreRecord> stores = {store(0x100, 1, 10, 1)};
    std::vector<RegionEvent> regions = {region(1, 0, 0)};
    auto cs = computeCrashState(100, stores, regions, 1, {50});
    EXPECT_FALSE(cs.resume[0].hasWork);
}

// ---- recovery-slice execution ------------------------------------------

TEST(RecoverySlice, LoadSlotSetImmApply)
{
    ir::Module m;
    m.layoutMemory();
    auto &f = m.addFunction("main", 0);
    ir::IRBuilder b(f);
    b.setBlock(b.newBlock());
    b.ret();

    interp::SparseMemory mem;
    interp::NullCommitSink sink;
    interp::Interpreter it(m, mem, 0);
    it.start("main", {}, sink);

    // Slot for r3 of frame depth 0 holds 40.
    mem.write(interp::ckptSlotAddr(0, 0, 3), 40);

    ir::RecoverySlice slice;
    {
        ir::RsOp op; // r3 = slot[3]
        op.kind = ir::RsOp::Kind::LoadSlot;
        op.dst = 3;
        op.slot = 3;
        slice.ops.push_back(op);
    }
    {
        ir::RsOp op; // r4 = 100
        op.kind = ir::RsOp::Kind::SetImm;
        op.dst = 4;
        op.imm = 100;
        slice.ops.push_back(op);
    }
    {
        ir::RsOp op; // r5 = slot[3] << 1 (via r3 already restored)
        op.kind = ir::RsOp::Kind::Apply;
        op.op = ir::Opcode::Shl;
        op.dst = 5;
        op.srcA = 3;
        op.bIsImm = true;
        op.imm = 1;
        slice.ops.push_back(op);
    }
    core::runRecoverySlice(it, slice);
    EXPECT_EQ(it.reg(3), 40u);
    EXPECT_EQ(it.reg(4), 100u);
    EXPECT_EQ(it.reg(5), 80u);
}

TEST(RecoverySlice, FrameDepthSelectsSlotArea)
{
    ir::Module m;
    m.layoutMemory();
    auto &callee = m.addFunction("callee", 0);
    {
        ir::IRBuilder b(callee);
        b.setBlock(b.newBlock());
        b.movImm(0, 0);
        b.ret(0);
    }
    auto &f = m.addFunction("main", 0);
    {
        ir::IRBuilder b(f);
        b.setBlock(b.newBlock());
        b.call(1, callee.id(), {});
        b.ret(1);
    }
    interp::SparseMemory mem;
    interp::NullCommitSink sink;
    interp::Interpreter it(m, mem, 0);
    it.start("main", {}, sink);
    it.step(sink); // execute the call: now inside callee (depth 2)
    ASSERT_EQ(it.depth(), 2u);

    mem.write(interp::ckptSlotAddr(0, 1, 6), 1234);
    ir::RecoverySlice slice;
    ir::RsOp op;
    op.kind = ir::RsOp::Kind::LoadSlot;
    op.dst = 6;
    op.slot = 6;
    slice.ops.push_back(op);
    core::runRecoverySlice(it, slice);
    EXPECT_EQ(it.reg(6), 1234u);
}

/**
 * The whole-image formulation undoReplayConverges stands for: rewind
 * steps k.. of a copy of @p durable, newest first, re-apply every
 * step, and compare the whole images.
 */
bool
convergesWholeImage(const interp::SparseMemory &durable,
                    const std::vector<core::ReplayStep> &steps,
                    std::size_t k)
{
    interp::SparseMemory partial = durable;
    for (std::size_t i = steps.size(); i-- > k;)
        partial.write(steps[i].addr, steps[i].before);
    for (const auto &st : steps)
        partial.write(st.addr, st.after);
    return partial.equals(durable);
}

TEST(UndoReplayConvergence, NonConvergenceOffTheLastAddress)
{
    // The replay wrote A then B; the image then lost A's value. Only
    // A differs after a second pass, and B is the last address.
    const Addr a = 0x2000, b = 0x2008;
    std::vector<core::ReplayStep> steps = {{1, a, 5, 1}, {1, b, 6, 2}};
    interp::SparseMemory durable;
    durable.write(a, 7);
    durable.write(b, 2);
    for (std::size_t k = 0; k <= steps.size(); ++k) {
        EXPECT_FALSE(convergesWholeImage(durable, steps, k));
        EXPECT_FALSE(core::undoReplayConverges(durable, steps, k));
    }
    durable.write(a, 1);
    for (std::size_t k = 0; k <= steps.size(); ++k)
        EXPECT_TRUE(core::undoReplayConverges(durable, steps, k));
}

TEST(UndoReplayConvergence, MatchesWholeImageCheck)
{
    // Random images, and a replay recorded over each: every step
    // overwrites a word (often one an earlier step wrote) with a
    // logged old value. Every third image then moves off the replay at
    // a replayed address other than the last step's, as a write after
    // the replay would, so no second pass converges there.
    std::mt19937_64 rng(20261019);
    auto word = [&rng] { return Addr{0x10000} + (rng() % 64) * 8; };
    std::size_t converged = 0, diverged = 0;
    for (int trial = 0; trial < 300; ++trial) {
        interp::SparseMemory durable;
        for (int w = 0; w < 48; ++w)
            durable.write(word(), rng());
        std::vector<core::ReplayStep> steps(1 + rng() % 24);
        for (core::ReplayStep &st : steps) {
            st.addr = word();
            st.before = durable.read(st.addr);
            st.after = rng() % 4 == 0 ? 0 : rng();
            durable.write(st.addr, st.after);
        }
        bool perturbed = false;
        if (trial % 3 == 0) {
            for (const core::ReplayStep &st : steps) {
                if (st.addr != steps.back().addr) {
                    durable.write(st.addr, durable.read(st.addr) ^ 1);
                    perturbed = true;
                    break;
                }
            }
        }
        for (std::size_t k = 0; k <= steps.size(); ++k) {
            const bool whole = convergesWholeImage(durable, steps, k);
            EXPECT_EQ(whole, !perturbed);
            EXPECT_EQ(core::undoReplayConverges(durable, steps, k), whole)
                << "trial " << trial << ", k " << k;
            ++(whole ? converged : diverged);
        }
    }
    EXPECT_GT(converged, 0u);
    EXPECT_GT(diverged, 0u);
}

} // namespace
} // namespace cwsp
