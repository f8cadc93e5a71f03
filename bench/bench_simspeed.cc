/**
 * @file
 * Simulator-throughput micro-bench: how many whole-system
 * simulations per second the engine sustains, and how many
 * nanoseconds one committed instruction costs, per scheme and for
 * the sweep patterns that dominate real bench/campaign time
 * (config sweeps over one module, crash sweeps over one golden run).
 *
 * Unlike the figure table (figures.hh) this bench deliberately
 * bypasses the BatchRunner result cache: the object under test is
 * the simulator hot path itself, so every iteration constructs and
 * runs a fresh WholeSystemSim. Module compilation happens once,
 * outside the timed loops.
 *
 * The `simspeed/aggregate` counter `sims_per_sec` is the pinned
 * before/after number for the hot-path overhaul (BENCH_trajectory
 * tracks it across PRs); keep the case composition stable.
 */

#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/commit_stream.hh"
#include "core/config.hh"
#include "core/sim_checkpoint.hh"
#include "fault/fault_model.hh"
#include "sim/arena.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

constexpr std::uint64_t kMaxInstrs = 50'000'000;

/** Compiled module for @p app under @p config, built once. */
std::shared_ptr<const ir::Module>
moduleFor(const workloads::AppProfile &app,
          const core::SystemConfig &config)
{
    return std::shared_ptr<const ir::Module>(
        workloads::buildApp(app, config.compiler));
}

struct SchemeCase
{
    std::string name;
    core::SystemConfig config;
    std::shared_ptr<const ir::Module> module;
};

/** One fresh interpreted run; returns committed instructions. */
std::uint64_t
runOnce(const SchemeCase &c)
{
    core::WholeSystemSim sim(*c.module, c.config);
    auto r = sim.run("main", {}, kMaxInstrs);
    benchmark::DoNotOptimize(r.cycles);
    return r.instructions;
}

void
reportThroughput(benchmark::State &state, double sims,
                 double instrs)
{
    state.counters["sims_per_sec"] =
        benchmark::Counter(sims, benchmark::Counter::kIsRate);
    // value*1e-9 as an inverted rate == elapsed_ns / instrs.
    state.counters["ns_per_instr"] = benchmark::Counter(
        instrs * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** The six pbCapacity points of the config-sweep case. */
std::vector<core::SystemConfig>
sweepConfigs()
{
    std::vector<core::SystemConfig> out;
    for (std::uint32_t pb : {20u, 30u, 40u, 50u, 60u, 80u}) {
        auto cfg = core::makeSystemConfig("cwsp");
        cfg.scheme.pbCapacity = pb;
        out.push_back(cfg);
    }
    return out;
}

/** Crash ticks at even fractions of the golden run's cycle count. */
std::vector<Tick>
crashTicks(Tick golden_cycles, std::size_t n)
{
    std::vector<Tick> out;
    for (std::size_t i = 1; i <= n; ++i)
        out.push_back(golden_cycles * i / (n + 1));
    return out;
}

const char *const kSchemes[] = {"baseline", "cwsp",        "capri",
                                "ido",      "replaycache", "psp"};

/**
 * fft compiled under each scheme of kSchemes, in that order. Built on
 * first use, outside any timed loop.
 */
const std::vector<SchemeCase> &
schemeCases()
{
    static const std::vector<SchemeCase> cases = [] {
        const auto &app = workloads::appByName("fft");
        std::vector<SchemeCase> out;
        for (const char *s : kSchemes) {
            auto cfg = core::makeSystemConfig(s);
            out.push_back(SchemeCase{s, cfg, moduleFor(app, cfg)});
        }
        return out;
    }();
    return cases;
}

bool
registerCases()
{
    // Per-scheme fresh-run throughput.
    for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
        benchmark::RegisterBenchmark(
            (std::string("simspeed/interp/") + kSchemes[i]).c_str(),
            [i](benchmark::State &state) {
                const auto &c = schemeCases()[i];
                std::uint64_t instrs = 0;
                for (auto _ : state)
                    instrs += runOnce(c);
                reportThroughput(
                    state, static_cast<double>(state.iterations()),
                    static_cast<double>(instrs));
            });
    }

    // Config sweep: many design points over one compiled module —
    // the autotuner/sensitivity pattern. Runs the way the batch
    // engine now runs it: the commit stream is recorded once per
    // iteration (amortized over the sweep, as streamFor amortizes it
    // over a campaign), every point replays it, and all sims share
    // one warm arena.
    {
        benchmark::RegisterBenchmark(
            "simspeed/config_sweep/cwsp", [](benchmark::State &state) {
                const auto &module = schemeCases()[1].module; // cwsp
                const auto configs = sweepConfigs();
                sim::SimArena arena;
                std::uint64_t instrs = 0;
                std::uint64_t sims = 0;
                for (auto _ : state) {
                    auto stream = core::recordCommitStream(
                        *module, "main", {}, kMaxInstrs);
                    for (const auto &cfg : configs) {
                        core::WholeSystemSim sim(*module, cfg,
                                                 &arena);
                        auto r = sim.runReplay(stream, kMaxInstrs);
                        benchmark::DoNotOptimize(r.cycles);
                        instrs += r.instructions;
                        ++sims;
                    }
                }
                reportThroughput(state,
                                 static_cast<double>(sims),
                                 static_cast<double>(instrs));
            });
    }

    // Crash sweep: one golden run plus eight crash-and-recover runs
    // at spread-out crash ticks — the --crash-sweep / fault-campaign
    // pattern, run the way those tools now run it: the golden pass
    // captures a checkpoint at every crash tick, and each case forks
    // from its checkpoint instead of re-executing the prefix.
    {
        benchmark::RegisterBenchmark(
            "simspeed/crash_sweep/cwsp", [](benchmark::State &state) {
                const auto *c = &schemeCases()[1]; // cwsp
                sim::SimArena arena;
                // The commit stream is recorded once, outside the
                // timed loop — a campaign records each context once
                // and shares the stream across every crash case, so
                // the sweep's steady-state cost starts at the golden
                // capture pass. Crash ticks depend on the golden
                // cycle count; probe it from the same stream.
                auto stream = core::recordCommitStream(
                    *c->module, "main", {}, c->config.hierarchy,
                    kMaxInstrs);
                Tick goldenCycles;
                {
                    core::WholeSystemSim sim(*c->module, c->config,
                                             &arena);
                    goldenCycles =
                        sim.runReplay(stream, kMaxInstrs).cycles;
                }
                auto ticks = crashTicks(goldenCycles, 8);
                std::uint64_t instrs = 0;
                std::uint64_t sims = 0;
                for (auto _ : state) {
                    core::CheckpointRun cr;
                    {
                        core::WholeSystemSim sim(*c->module,
                                                 c->config, &arena);
                        cr = sim.captureCheckpoints(
                            {core::ThreadSpec{}}, ticks, kMaxInstrs,
                            &stream);
                        benchmark::DoNotOptimize(cr.result.cycles);
                        instrs += cr.result.instructions;
                        ++sims;
                    }
                    for (std::size_t i = 0; i < ticks.size(); ++i) {
                        core::WholeSystemSim crashSim(
                            *c->module, c->config, &arena);
                        auto r = crashSim.runWithCrashes(
                            {core::ThreadSpec{}},
                            fault::CrashSchedule{ticks[i]}, {},
                            kMaxInstrs, &stream,
                            cr.checkpoints[i].get());
                        benchmark::DoNotOptimize(r.result.cycles);
                        instrs += r.result.instructions;
                        ++sims;
                    }
                }
                reportThroughput(state,
                                 static_cast<double>(sims),
                                 static_cast<double>(instrs));
            });
    }

    // Forked-case marginal cost: checkpoints captured once outside
    // the timed loop, the loop runs only the eight forked
    // crash-and-recover tails — the steady-state cost a campaign
    // pays per case once its golden pass is amortized.
    for (std::size_t idx : {std::size_t{1}, std::size_t{3},
                            std::size_t{4}}) { // cwsp ido replaycache
        benchmark::RegisterBenchmark(
            (std::string("simspeed/crash_sweep_forked/") + kSchemes[idx])
                .c_str(),
            [idx](benchmark::State &state) {
                const auto *c = &schemeCases()[idx];
                sim::SimArena arena;
                auto stream = std::make_shared<core::CommitStream>(
                    core::recordCommitStream(*c->module, "main", {},
                                             c->config.hierarchy,
                                             kMaxInstrs));
                Tick goldenCycles;
                {
                    core::WholeSystemSim sim(*c->module, c->config,
                                             &arena);
                    goldenCycles =
                        sim.runReplay(*stream, kMaxInstrs).cycles;
                }
                auto ticks = crashTicks(goldenCycles, 8);
                core::CheckpointRun cr;
                {
                    core::WholeSystemSim sim(*c->module, c->config,
                                             &arena);
                    cr = sim.captureCheckpoints({core::ThreadSpec{}},
                                                ticks, kMaxInstrs,
                                                stream.get());
                }
                std::uint64_t instrs = 0;
                std::uint64_t sims = 0;
                for (auto _ : state) {
                    for (std::size_t i = 0; i < ticks.size(); ++i) {
                        core::WholeSystemSim crashSim(
                            *c->module, c->config, &arena);
                        auto r = crashSim.runWithCrashes(
                            {core::ThreadSpec{}},
                            fault::CrashSchedule{ticks[i]}, {},
                            kMaxInstrs, stream.get(),
                            cr.checkpoints[i].get());
                        benchmark::DoNotOptimize(r.result.cycles);
                        instrs += r.result.instructions;
                        ++sims;
                    }
                }
                reportThroughput(state,
                                 static_cast<double>(sims),
                                 static_cast<double>(instrs));
            });
    }

    // Aggregate mix: the pinned cross-PR number. One iteration =
    // 6 scheme runs + 6 config-sweep points + (1 golden + 8 crash)
    // = 21 simulations.
    {
        benchmark::RegisterBenchmark(
            "simspeed/aggregate", [](benchmark::State &state) {
                const auto &cases = schemeCases();
                const auto configs = sweepConfigs();
                sim::SimArena arena;
                std::uint64_t instrs = 0;
                std::uint64_t sims = 0;
                for (auto _ : state) {
                    // Fresh interpreted run per scheme (cold path —
                    // each scheme's module differs, no stream reuse).
                    for (const auto &c : cases) {
                        instrs += runOnce(c);
                        ++sims;
                    }
                    // Sweeps run replay-accelerated, as the batch
                    // engine and campaign now run them.
                    const auto &cw = cases[1];
                    auto stream = core::recordCommitStream(
                        *cw.module, "main", {}, kMaxInstrs);
                    for (const auto &cfg : configs) {
                        core::WholeSystemSim sim(*cw.module, cfg,
                                                 &arena);
                        auto r = sim.runReplay(stream, kMaxInstrs);
                        instrs += r.instructions;
                        ++sims;
                    }
                    Tick goldenCycles;
                    {
                        core::WholeSystemSim sim(*cw.module,
                                                 cw.config, &arena);
                        auto golden =
                            sim.runReplay(stream, kMaxInstrs);
                        goldenCycles = golden.cycles;
                        instrs += golden.instructions;
                        ++sims;
                    }
                    for (Tick t : crashTicks(goldenCycles, 8)) {
                        core::WholeSystemSim crashSim(
                            *cw.module, cw.config, &arena);
                        auto r = crashSim.runWithCrashes(
                            {core::ThreadSpec{}},
                            fault::CrashSchedule{t}, {},
                            kMaxInstrs, &stream);
                        instrs += r.result.instructions;
                        ++sims;
                    }
                }
                reportThroughput(state,
                                 static_cast<double>(sims),
                                 static_cast<double>(instrs));
            });
    }
    return true;
}

[[maybe_unused]] const bool kRegistered = registerCases();

} // namespace

BENCHMARK_MAIN();
