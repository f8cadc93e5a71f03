/**
 * @file
 * Batched interpretation against single-stepping. The loops that feed
 * a sink which ignores register-only commits (the timed driver, the
 * commit-stream recorder, sink-less functional runs) execute runs of
 * register-only instructions through Interpreter::runBatch and retire
 * them in one call. Interpreter::step() one commit at a time stays
 * the reference, with every fast path off: each case here holds a
 * batched path to it — the functional state, the per-kind commit
 * counts, a per-step copy of the min-clock scheduler with a counter
 * sampler attached, and the recorded stream decoded step by step.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/scheme.hh"
#include "core/commit_stream.hh"
#include "core/interleave.hh"
#include "core/whole_system_sim.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "sim/telemetry.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

using interp::CommitKind;

const std::vector<std::string> kSchemes = {
    "baseline", "cwsp", "capri", "ido", "replaycache", "psp",
};

/** One scheme per compiler profile: psp compiles like baseline, and
 *  replaycache like ido. */
const std::vector<std::string> kProfiles = {
    "baseline", "cwsp", "capri", "ido",
};

constexpr std::size_t kKinds =
    static_cast<std::size_t>(CommitKind::Boundary) + 1;

/** Counts commits by kind. */
class KindCounter final : public interp::CommitSink
{
  public:
    void
    onCommit(const interp::CommitInfo &info) override
    {
        ++counts[static_cast<std::size_t>(info.kind)];
    }

    std::uint64_t
    operator[](CommitKind kind) const
    {
        return counts[static_cast<std::size_t>(kind)];
    }

    std::array<std::uint64_t, kKinds> counts{};
};

/** The outcome of one functional run. */
struct FunctionalRun
{
    interp::SparseMemory memory;
    Word returnValue = 0;
    std::uint64_t committed = 0;
    KindCounter kinds;
    std::uint64_t batched = 0; ///< steps runBatch executed
};

/**
 * Run @p thread of @p mod on core 0 to its end. @p limits empty
 * single-steps; otherwise runBatch runs before each step, its limit
 * cycling through @p limits (0 standing for no limit).
 */
std::unique_ptr<FunctionalRun>
runFunctional(const ir::Module &mod, const core::ThreadSpec &thread,
              const std::vector<std::uint64_t> &limits)
{
    auto run = std::make_unique<FunctionalRun>();
    interp::Interpreter core(mod, run->memory, 0);
    core.start(thread.entry, thread.args, run->kinds);
    std::size_t k = 0;
    while (!core.finished()) {
        if (!limits.empty()) {
            const std::uint64_t limit = limits[k++ % limits.size()];
            run->batched += core.runBatch(limit ? limit : ~std::uint64_t{0});
        }
        core.step(run->kinds);
    }
    run->returnValue = core.returnValue();
    run->committed = core.committed();
    return run;
}

/**
 * A batched run matches the single-stepped @p ref: the same image,
 * return value and committed count, the same commits of every kind a
 * batch cannot hold, and as many register-only steps, batched or not.
 */
void
expectSameFunctional(const FunctionalRun &ref, const FunctionalRun &got)
{
    EXPECT_TRUE(ref.memory.equals(got.memory));
    EXPECT_EQ(ref.returnValue, got.returnValue);
    EXPECT_EQ(ref.committed, got.committed);
    for (std::size_t k = 0; k < kKinds; ++k) {
        const auto kind = static_cast<CommitKind>(k);
        if (kind != CommitKind::Alu && kind != CommitKind::Branch) {
            EXPECT_EQ(ref.kinds.counts[k], got.kinds.counts[k]) << k;
        }
    }
    EXPECT_EQ(ref.kinds[CommitKind::Alu] + ref.kinds[CommitKind::Branch],
              got.batched + got.kinds[CommitKind::Alu] +
                  got.kinds[CommitKind::Branch]);
}

/** Unlimited batches leave step() no register-only commit at all. */
void
expectAllBatched(const FunctionalRun &ref, const FunctionalRun &got)
{
    expectSameFunctional(ref, got);
    EXPECT_EQ(got.kinds[CommitKind::Alu], 0u);
    EXPECT_EQ(got.kinds[CommitKind::Branch], 0u);
    EXPECT_EQ(got.batched,
              ref.kinds[CommitKind::Alu] + ref.kinds[CommitKind::Branch]);
    EXPECT_GT(got.batched, 0u);
}

/**
 * Every register-only opcode, register and immediate forms, on the
 * operands where their semantics split: signed against unsigned
 * compares, a zero divisor, shift counts of 64 and more, and a
 * signed branch condition. Operand pair p's op k stores its register
 * form at word 28p + 2k of `out` and its immediate form after it; the
 * branch stores its direction at word 255. main returns the sum of
 * every result.
 */
std::unique_ptr<ir::Module>
buildOpcodeProgram()
{
    using Op = ir::Opcode;
    auto mod = std::make_unique<ir::Module>();
    auto &out = mod->addGlobal("out", 256 * 8);
    mod->layoutMemory();
    auto &f = mod->addFunction("main", 0);
    ir::IRBuilder b(f);
    const ir::BlockId entry = b.newBlock();
    const ir::BlockId taken = b.newBlock();
    const ir::BlockId other = b.newBlock();
    const ir::BlockId done = b.newBlock();

    const ir::Reg rOut = 20, rSum = 21, rT = 22;
    const std::vector<std::int64_t> operands = {-1, 0, 1, 2, 63, 64,
                                                -64, 0x7fff'ffff'ffff};
    const Op ops[] = {Op::Add,  Op::Sub,  Op::Mul,   Op::DivU,
                      Op::RemU, Op::And,  Op::Or,    Op::Xor,
                      Op::Shl,  Op::Shr,  Op::CmpEq, Op::CmpNe,
                      Op::CmpUlt, Op::CmpSlt};
    b.setBlock(entry);
    b.movImm(rOut, static_cast<std::int64_t>(out.base));
    b.movImm(rSum, 0);
    b.nop();
    std::int64_t slot = 0;
    for (std::size_t x = 0; x < operands.size(); x += 2) {
        b.movImm(1, operands[x]);
        b.movImm(2, operands[x + 1]);
        for (const Op op : ops) {
            b.binOp(op, 3, 1, 2);
            b.binOpImm(op, 4, 2, operands[x]);
            b.mov(5, 3);
            b.store(5, rOut, 8 * slot++);
            b.store(4, rOut, 8 * slot++);
            b.add(rSum, rSum, 5);
            b.add(rSum, rSum, 4);
        }
    }
    b.movImm(1, -5);
    b.binOpImm(Op::CmpSlt, rT, 1, 3);
    b.condBr(rT, taken, other);
    for (const auto &[block, mark] : {std::pair{taken, 1}, {other, 2}}) {
        b.setBlock(block);
        b.movImm(rT, mark);
        b.store(rT, rOut, 8 * 255);
        b.br(done);
    }
    b.setBlock(done);
    b.ret(rSum);
    return mod;
}

/** Word @p index of the opcode program's `out`. */
Word
outWord(const FunctionalRun &run, const ir::Module &mod, Addr index)
{
    return run.memory.read(mod.globals().front().base + 8 * index);
}

TEST(BatchEquiv, EveryRegisterOpcode)
{
    const auto mod = buildOpcodeProgram();
    const core::ThreadSpec main;
    const auto ref = runFunctional(*mod, main, {});
    expectAllBatched(*ref, *runFunctional(*mod, main, {0}));
    // Split batches: every limit lands a cut somewhere else.
    expectSameFunctional(*ref, *runFunctional(*mod, main, {1, 2, 3, 5}));
    // The semantics themselves, where the opcodes split.
    EXPECT_EQ(outWord(*ref, *mod, 2 * 3), 0u);      // DivU(-1, 0)
    EXPECT_EQ(outWord(*ref, *mod, 2 * 4), ~Word{0}); // RemU(-1, 0)
    EXPECT_EQ(outWord(*ref, *mod, 2 * 12), 0u);     // CmpUlt(-1, 0)
    EXPECT_EQ(outWord(*ref, *mod, 2 * 13), 1u);     // CmpSlt(-1, 0)
    EXPECT_EQ(outWord(*ref, *mod, 56 + 2 * 8), 63u); // Shl(63, 64)
    EXPECT_EQ(outWord(*ref, *mod, 255), 1u);        // -5 < 3 branches
}

/** The 38 roster apps under every compiler profile. */
TEST(BatchEquiv, AllAppsAllProfiles)
{
    const core::ThreadSpec main;
    for (const auto &app : workloads::appTable()) {
        for (const auto &scheme : kProfiles) {
            SCOPED_TRACE(app.name + "/" + scheme);
            const auto cfg = core::makeSystemConfig(scheme);
            const auto mod = workloads::buildApp(app, cfg.compiler);
            const auto ref = runFunctional(*mod, main, {});
            expectAllBatched(*ref, *runFunctional(*mod, main, {0}));
        }
    }
    // One program with batches split at varying limits.
    const auto cfg = core::makeSystemConfig("cwsp");
    const auto mod =
        workloads::buildApp(workloads::appByName("fft"), cfg.compiler);
    expectSameFunctional(*runFunctional(*mod, main, {}),
                         *runFunctional(*mod, main, {1, 7, 2, 64, 3}));
}

/** Each concurrent worker alone, under every compiler profile. */
TEST(BatchEquiv, ConcurrentWorkersAllProfiles)
{
    for (const char *name : {"cstack", "cqueue", "chash"}) {
        const auto *app = workloads::findConcurrentApp(name);
        ASSERT_NE(app, nullptr) << name;
        for (const auto &scheme : kProfiles) {
            const auto cfg = core::makeSystemConfig(scheme);
            const auto mod = workloads::buildConcurrentApp(*app, cfg.compiler);
            for (std::uint32_t t = 0; t < app->params.numWorkers; ++t) {
                SCOPED_TRACE(std::string(name) + "/" + scheme + " worker " +
                             std::to_string(t));
                const core::ThreadSpec worker{"worker", {Word{t}}};
                const auto ref = runFunctional(*mod, worker, {});
                expectAllBatched(*ref, *runFunctional(*mod, worker, {0}));
            }
        }
    }
}

/** A sink-less runToCompletion batches; it matches a stepped one. */
TEST(BatchEquiv, RunToCompletionWithoutSink)
{
    const auto cfg = core::makeSystemConfig("cwsp");
    const auto mod =
        workloads::buildApp(workloads::appByName("bzip2"), cfg.compiler);
    const auto ref = runFunctional(*mod, core::ThreadSpec{}, {});
    KindCounter every;
    interp::SparseMemory stepped;
    EXPECT_EQ(interp::runToCompletion(*mod, stepped, "main", {},
                                      100'000'000, &every),
              ref->returnValue);
    EXPECT_EQ(every.counts, ref->kinds.counts);
    interp::SparseMemory batched;
    EXPECT_EQ(interp::runToCompletion(*mod, batched, "main", {}),
              ref->returnValue);
    EXPECT_TRUE(ref->memory.equals(batched));

    // The budget still counts every instruction: a run one short of
    // the program's length is refused.
    interp::SparseMemory cut;
    EXPECT_THROW(interp::runToCompletion(*mod, cut, "main", {},
                                         ref->committed - 1),
                 std::runtime_error);
    interp::SparseMemory whole;
    EXPECT_EQ(interp::runToCompletion(*mod, whole, "main", {},
                                      ref->committed),
              ref->returnValue);
}

/**
 * The scheduler the timed driver had before it batched: step the
 * unfinished core with the smallest clock (the lowest index on a
 * tie) into the scheme, one step at a time. Runs on @p sim's scheme
 * and hierarchy (and so its attached sampler) over @p memory.
 */
std::vector<Word>
runPerStep(core::WholeSystemSim &sim, const ir::Module &mod,
           interp::SparseMemory &memory,
           const std::vector<core::ThreadSpec> &threads)
{
    arch::Scheme &scheme = sim.scheme();
    std::vector<std::unique_ptr<interp::Interpreter>> cores;
    for (std::size_t c = 0; c < threads.size(); ++c) {
        cores.push_back(std::make_unique<interp::Interpreter>(
            mod, memory, static_cast<CoreId>(c)));
        cores[c]->start(threads[c].entry, threads[c].args, scheme);
    }
    while (true) {
        interp::Interpreter *next = nullptr;
        Tick best = kTickNever;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            const Tick t = scheme.cycles(static_cast<CoreId>(c));
            if (!cores[c]->finished() && t < best) {
                best = t;
                next = cores[c].get();
            }
        }
        if (!next)
            break;
        next->step(scheme);
    }
    std::vector<Word> returns;
    for (const auto &core : cores)
        returns.push_back(core->returnValue());
    return returns;
}

std::string
statsJson(core::WholeSystemSim &sim)
{
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/**
 * WholeSystemSim::run against the per-step scheduler, both with a
 * counter sampler at @p period: per-core cycles and instructions,
 * every component counter and sampled track (the stats JSON holds
 * them all), return values and the memory image.
 */
void
expectTimedMatchesPerStep(const ir::Module &mod,
                          const core::SystemConfig &cfg,
                          const std::vector<core::ThreadSpec> &threads,
                          Tick period)
{
    sim::CounterSampler refSampler(period);
    core::WholeSystemSim ref(mod, cfg);
    ref.attachSampler(&refSampler);
    interp::SparseMemory refMemory;
    const std::vector<Word> refReturns =
        runPerStep(ref, mod, refMemory, threads);

    sim::CounterSampler gotSampler(period);
    core::WholeSystemSim got(mod, cfg);
    got.attachSampler(&gotSampler);
    const core::RunResult result = got.run(threads);

    for (std::size_t c = 0; c < threads.size(); ++c) {
        const auto id = static_cast<CoreId>(c);
        EXPECT_EQ(ref.scheme().cycles(id), got.scheme().cycles(id)) << c;
        EXPECT_EQ(ref.scheme().instrs(id), got.scheme().instrs(id)) << c;
    }
    EXPECT_EQ(refReturns, result.returnValues);
    EXPECT_TRUE(refMemory.equals(got.memory()));
    EXPECT_GT(gotSampler.sampleCount(), 0u);
    EXPECT_EQ(refSampler.sampleTicks(), gotSampler.sampleTicks());
    ASSERT_EQ(refSampler.trackCount(), gotSampler.trackCount());
    for (std::size_t k = 0; k < refSampler.trackCount(); ++k) {
        EXPECT_EQ(refSampler.track(k).values, gotSampler.track(k).values)
            << refSampler.track(k).name;
    }
    EXPECT_EQ(statsJson(ref), statsJson(got));
}

TEST(BatchEquiv, TimedSingleCoreMatchesPerStep)
{
    for (const char *app : {"fft", "bzip2", "tatp", "astar"}) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(std::string(app) + "/" + scheme);
            const auto cfg = core::makeSystemConfig(scheme);
            const auto mod =
                workloads::buildApp(workloads::appByName(app), cfg.compiler);
            expectTimedMatchesPerStep(*mod, cfg, {core::ThreadSpec{}},
                                      core::defaultSamplePeriod(cfg));
        }
    }
}

/**
 * Multicore lockstep under every scheme and interleaving schedules
 * 0-2. The sampler's period is short, so a batch that ran a core past
 * its turn would sample another core's state before that core's
 * step.
 */
TEST(BatchEquiv, TimedMulticoreMatchesPerStep)
{
    for (const char *name : {"cstack", "cqueue", "chash"}) {
        const auto *app = workloads::findConcurrentApp(name);
        ASSERT_NE(app, nullptr) << name;
        std::vector<core::ThreadSpec> threads;
        for (std::uint32_t t = 0; t < app->params.numWorkers; ++t)
            threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
        for (const auto &scheme : kSchemes) {
            const auto base = core::makeSystemConfig(scheme);
            const auto mod = workloads::buildConcurrentApp(*app, base.compiler);
            for (std::uint32_t ilv = 0; ilv < 3; ++ilv) {
                SCOPED_TRACE(std::string(name) + "/" + scheme + " ilv" +
                             std::to_string(ilv));
                auto cfg = base;
                cfg.numCores = app->params.numWorkers;
                cfg.scheme.interleave = core::interleaveSchedule(1, ilv);
                expectTimedMatchesPerStep(*mod, cfg, threads, 7);
            }
        }
    }
}

/** Every commit of a single-stepped run, and where each step began. */
class StepLog final : public interp::CommitSink
{
  public:
    void
    onCommit(const interp::CommitInfo &info) override
    {
        commits.push_back(info);
    }

    /** Mark the next commit as its step's first. */
    void openStep() { stepBegin.push_back(commits.size()); }

    std::vector<interp::CommitInfo> commits;
    /** Per step, its first commit; start()'s spills precede step 0. */
    std::vector<std::size_t> stepBegin;
};

/**
 * Decode @p stream against the single-stepped @p log: a kBatch1 op
 * covers steps of one Alu or Branch commit each, a kBatch2 op steps
 * of one CallRet each, and every other op is the next commit, opening
 * a step exactly where kFlagNewStep says.
 */
void
expectStreamMatchesSteps(const core::CommitStream &stream,
                         const StepLog &log)
{
    using Stream = core::CommitStream;
    const std::size_t steps = log.stepBegin.size();
    auto stepEnd = [&](std::size_t s) {
        return s + 1 < steps ? log.stepBegin[s + 1] : log.commits.size();
    };
    std::size_t next = 0; // next step to open
    std::size_t commit = 0; // next commit to match
    for (std::size_t k = 0; k < stream.ops.size(); ++k) {
        SCOPED_TRACE("op " + std::to_string(k));
        const Stream::Op &op = stream.ops[k];
        const bool opens = op.kind == Stream::kBatch1 ||
                           op.kind == Stream::kBatch2 ||
                           (op.flags & Stream::kFlagNewStep);
        if (opens) {
            ASSERT_LT(next, steps);
            ASSERT_EQ(commit, log.stepBegin[next]) << "a step ended early";
        } else {
            ASSERT_TRUE(next == 0 || commit < stepEnd(next - 1))
                << "a step ran past its commits";
        }
        if (op.kind == Stream::kBatch1 || op.kind == Stream::kBatch2) {
            for (std::uint32_t s = 0; s < op.aux; ++s, ++next) {
                ASSERT_LT(next, steps);
                ASSERT_EQ(stepEnd(next) - log.stepBegin[next], 1u);
                const CommitKind kind = log.commits[log.stepBegin[next]].kind;
                if (op.kind == Stream::kBatch1) {
                    EXPECT_TRUE(kind == CommitKind::Alu ||
                                kind == CommitKind::Branch);
                } else {
                    EXPECT_EQ(kind, CommitKind::CallRet);
                }
            }
            commit = log.stepBegin[next - 1] + 1;
            continue;
        }
        if (opens)
            ++next;
        ASSERT_LT(commit, log.commits.size());
        const interp::CommitInfo &info = log.commits[commit++];
        EXPECT_EQ(op.kind, static_cast<std::uint8_t>(info.kind));
        EXPECT_EQ(op.addr, info.addr);
        EXPECT_EQ(op.value, info.storeValue);
        EXPECT_EQ(op.func, info.func);
        EXPECT_EQ((op.flags & Stream::kFlagCkpt) != 0, info.isCheckpoint);
    }
    EXPECT_EQ(next, steps);
    EXPECT_EQ(commit, log.commits.size());
}

/**
 * The recorder batches register-only runs as it interprets; its
 * stream decodes to the single-stepped commit sequence, and its
 * commit and step counts are the stepped run's.
 */
TEST(BatchEquiv, RecordedStreamIsTheSteppedRun)
{
    for (const char *app : {"fft", "bzip2", "tatp", "gobmk", "radix"}) {
        for (const auto &scheme : kProfiles) {
            SCOPED_TRACE(std::string(app) + "/" + scheme);
            const auto cfg = core::makeSystemConfig(scheme);
            const auto mod =
                workloads::buildApp(workloads::appByName(app), cfg.compiler);
            const auto stream = core::recordCommitStream(*mod, "main", {});

            StepLog log;
            interp::SparseMemory memory;
            interp::Interpreter core(*mod, memory, 0);
            core.start("main", {}, log);
            while (!core.finished()) {
                log.openStep();
                core.step(log);
            }
            EXPECT_EQ(stream.steps, log.stepBegin.size());
            EXPECT_EQ(stream.commits, log.commits.size());
            EXPECT_EQ(stream.returnValue, core.returnValue());
            expectStreamMatchesSteps(stream, log);
        }
    }
}

} // namespace
} // namespace cwsp
