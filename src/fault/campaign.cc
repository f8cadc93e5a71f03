#include "fault/campaign.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "core/consistency_checker.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "core/interleave.hh"
#include "driver/batch_runner.hh"
#include "obs/durable_lin.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cwsp::fault {

namespace {

using core::recovery_timing::kBootCycles;

static_assert(kRecoveryPhases == core::kNumRecoveryPhases,
              "campaign phase accounting mirrors core::RecoveryPhase");

/** JSON keys of the per-phase cycle totals, RecoveryPhase order. */
constexpr const char *kPhaseJsonKeys[kRecoveryPhases] = {
    "detect", "scan", "undo_replay", "slice_reexec", "resume"};

/**
 * Schemes with NVM undo-log media a fault can target. Battery-backed
 * Capri keeps no log (its redo buffer flushes on failure), and
 * baseline/psp record nothing, so torn/bit-flip/stale-slot cases
 * would be vacuous there.
 */
bool
schemeHasLogMedia(const std::string &scheme)
{
    return scheme == "cwsp" || scheme == "ido" ||
           scheme == "replaycache";
}

std::string
faultBrief(const MediaFault &f)
{
    std::ostringstream os;
    os << faultKindName(f.kind) << "@" << f.crashIndex;
    return os.str();
}

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char ch : s) {
        switch (ch) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                os << ' ';
            else
                os << ch;
        }
    }
    os << '"';
}

void
writeFaultStatsJson(std::ostream &os, const FaultStats &s)
{
    os << "{\"crashes_injected\": " << s.crashesInjected
       << ", \"nested_crashes\": " << s.nestedCrashes
       << ", \"recovery_crashes\": " << s.recoveryCrashes
       << ", \"undo_replay_passes\": " << s.undoReplayPasses
       << ", \"partial_replay_records\": " << s.partialReplayRecords
       << ", \"faults_requested\": " << s.faultsRequested
       << ", \"faults_applied\": " << s.faultsApplied
       << ", \"corrupt_records_detected\": "
       << s.corruptRecordsDetected
       << ", \"torn_tails_dropped\": " << s.tornTailsDropped
       << ", \"region_restarts\": " << s.regionRestarts
       << ", \"full_restarts\": " << s.fullRestarts
       << ", \"stale_slots_detected\": " << s.staleSlotsDetected
       << ", \"atomic_resumes\": " << s.atomicResumes << "}";
}

void
writeCaseJson(std::ostream &os, const CaseResult &r)
{
    os << "{\"app\": ";
    jsonEscape(os, r.c.app);
    os << ", \"scheme\": ";
    jsonEscape(os, r.c.scheme);
    os << ", \"schedule\": ";
    jsonEscape(os, r.c.schedule.describe());
    os << ", \"point_kind\": ";
    jsonEscape(os, crashPointKindName(r.c.pointKind));
    os << ", \"ilv\": " << r.c.ilvIndex;
    if (!r.dlVerdict.empty()) {
        os << ", \"dl_verdict\": ";
        jsonEscape(os, r.dlVerdict);
        os << ", \"dl_invoked\": " << r.dlInvokedOps
           << ", \"dl_completed\": " << r.dlCompletedOps;
    }
    os << ", \"faults\": [";
    for (std::size_t i = 0; i < r.c.plan.faults.size(); ++i) {
        if (i)
            os << ", ";
        jsonEscape(os, faultBrief(r.c.plan.faults[i]));
    }
    os << "], \"pass\": " << (r.pass ? "true" : "false")
       << ", \"ran\": " << (r.ran ? "true" : "false")
       << ", \"crashed\": " << (r.crashed ? "true" : "false")
       << ", \"consistent\": " << (r.consistent ? "true" : "false")
       << ", \"result_match\": "
       << (r.resultMatch ? "true" : "false")
       << ", \"io_checked\": " << (r.ioChecked ? "true" : "false")
       << ", \"io_match\": " << (r.ioMatch ? "true" : "false")
       << ", \"faults_detected\": "
       << (r.faultsDetected ? "true" : "false")
       << ", \"divergences\": " << r.divergences
       << ", \"lost_work\": " << r.lostWork
       << ", \"recovery_windows\": [";
    for (std::size_t i = 0; i < r.recoveryWindows.size(); ++i)
        os << (i ? ", " : "") << r.recoveryWindows[i];
    os << "], \"recovery_phases\": {";
    for (std::size_t p = 0; p < kRecoveryPhases; ++p) {
        os << (p ? ", " : "") << "\"" << kPhaseJsonKeys[p]
           << "\": " << r.recoveryPhaseCycles[p];
    }
    os << "}, \"stats\": ";
    writeFaultStatsJson(os, r.faults);
    if (!r.detail.empty()) {
        os << ", \"detail\": ";
        jsonEscape(os, r.detail);
    }
    os << "}";
}

/** Shortest round-trippable decimal for a JSON number. */
void
writeDouble(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    os << buf;
}

void
writeHistogramJson(std::ostream &os, const RecoveryHistogram &h)
{
    os << "{\"samples\": " << h.samples << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"total\": " << h.total
       << ", \"mean\": ";
    writeDouble(os, h.mean());
    os << ", \"bucket_width\": " << h.bucketWidth
       << ", \"counts\": [";
    // Trim trailing empty buckets: the width is fixed, so readers
    // rebuild the tail as zeros.
    std::size_t last = h.counts.size();
    while (last > 0 && h.counts[last - 1] == 0)
        --last;
    for (std::size_t i = 0; i < last; ++i)
        os << (i ? ", " : "") << h.counts[i];
    os << "]}";
}

void
writeSchemeRecoveryJson(std::ostream &os,
                        const SchemeRecoveryStats &st)
{
    os << "{\"name\": ";
    jsonEscape(os, st.scheme);
    os << ", \"crashes\": " << st.crashes << ", \"latency\": ";
    writeHistogramJson(os, st.latency);
    os << ", \"lost_work\": ";
    writeHistogramJson(os, st.lostWork);
    os << ", \"phases\": {";
    for (std::size_t p = 0; p < kRecoveryPhases; ++p) {
        os << (p ? ", " : "") << "\"" << kPhaseJsonKeys[p]
           << "\": " << st.phaseCycles[p];
    }
    os << "}, \"runtime_overhead\": ";
    writeDouble(os, st.runtimeOverhead);
    os << ", \"durable_lin\": {\"checked\": " << st.dlChecked
       << ", \"pass\": " << st.dlPass
       << ", \"violation\": " << st.dlViolation
       << ", \"vacuous\": " << st.dlVacuous << "}";
    os << ", \"golden_cycles\": [";
    for (std::size_t i = 0; i < st.goldenCycles.size(); ++i) {
        os << (i ? ", " : "") << "{\"name\": ";
        jsonEscape(os, st.goldenCycles[i].first);
        os << ", \"cycles\": " << st.goldenCycles[i].second << "}";
    }
    os << "]}";
}

/** Per-(app, scheme) golden context shared read-only by its cases. */
struct Context
{
    std::string app;
    std::string scheme;
    core::SystemConfig config;
    std::shared_ptr<const ir::Module> module;
    /**
     * Golden facts, the commit stream this context's cases replay, and
     * the crash points with the fault-free golden run they came from:
     * runCycles is the overhead axis of the Pareto report, runInstrs
     * sizes every case's crash-recording logs. A concurrent context
     * keeps only the result and the points.
     */
    GoldenRun golden;
    /** Campaign-wide checkpoint cache (null = forking disabled). */
    core::CheckpointCache *ckptCache = nullptr;
    /**
     * Concurrent contexts (one per interleaving schedule): thread
     * roster, structure spec, and per-worker op sequences for the
     * durable-linearizability verdict. Stream replay is single-core
     * machinery; checkpoint forking works on any core count but is
     * not enabled for these contexts.
     */
    bool concurrent = false;
    std::uint32_t ilvIndex = 0;
    std::vector<core::ThreadSpec> threads{core::ThreadSpec{}};
    workloads::ConcurrentSpec cspec;
    std::vector<std::vector<workloads::ConcurrentOp>> cops;
};

/** Cache key prefix of @p ctx's checkpoints ("<app>|<scheme>"). */
std::string
ckptKeyBaseOf(const Context &ctx)
{
    return ctx.app + "|" + ctx.scheme;
}

GoldenRef
refOf(const Context &ctx)
{
    GoldenRef g;
    g.module = ctx.module.get();
    g.config = &ctx.config;
    g.result = ctx.golden.result;
    g.memory = &ctx.golden.memory;
    g.ioStream = &ctx.golden.io;
    g.instrs = ctx.golden.points.runInstrs;
    g.stream = ctx.golden.hasStream ? &ctx.golden.stream : nullptr;
    g.ckptCache = ctx.ckptCache;
    if (ctx.ckptCache)
        g.ckptKeyBase = ckptKeyBaseOf(ctx);
    g.threads = &ctx.threads;
    if (ctx.concurrent) {
        g.dlSpec = &ctx.cspec;
        g.dlOps = &ctx.cops;
    }
    return g;
}

/**
 * Build this context's case list. Deterministic: depends only on the
 * enumerated points and the options.
 */
std::vector<CampaignCase>
casesFor(const Context &ctx, const CampaignOptions &opt)
{
    std::vector<CampaignCase> cases;
    const auto &pts = ctx.golden.points.points;
    if (pts.empty())
        return cases;

    auto base = [&](const CrashPoint &p) {
        CampaignCase c;
        c.app = ctx.app;
        c.scheme = ctx.scheme;
        c.pointKind = p.kind;
        c.ilvIndex = ctx.ilvIndex;
        c.interleave = ctx.config.scheme.interleave;
        return c;
    };

    for (const auto &p : pts) {
        CampaignCase c = base(p);
        c.schedule = CrashSchedule{p.tick};
        cases.push_back(std::move(c));
    }

    // Pivot for nested/media cases: a mid-run point, preferring an
    // undo-append edge (live log records guaranteed at the crash).
    CrashPoint pivot = pts[pts.size() / 2];
    for (const auto &p : pts)
        if (p.kind == CrashPointKind::UndoAppend)
            pivot = p;

    if (opt.nested) {
        // Mid-boot: the second failure lands before log scan ends.
        CampaignCase c1 = base(pivot);
        c1.pointKind = CrashPointKind::MidRecovery;
        c1.schedule = CrashSchedule{pivot.tick, 1};
        cases.push_back(std::move(c1));
        // Mid-replay: just past boot, inside undo-record replay
        // whenever the first crash left live records.
        CampaignCase c2 = base(pivot);
        c2.pointKind = CrashPointKind::MidRecovery;
        c2.schedule = CrashSchedule{pivot.tick, kBootCycles + 2};
        cases.push_back(std::move(c2));
        // Post-recovery: a second failure during re-execution.
        CampaignCase c3 = base(pivot);
        c3.schedule = CrashSchedule{pivot.tick, 4096};
        cases.push_back(std::move(c3));
    }

    if (opt.mediaFaults && schemeHasLogMedia(ctx.scheme)) {
        CampaignCase torn = base(pivot);
        torn.schedule = CrashSchedule{pivot.tick};
        torn.plan.faults.push_back(
            MediaFault{FaultKind::TornAppend, 0, 0, 0, 0});
        cases.push_back(std::move(torn));

        CampaignCase flip = base(pivot);
        flip.schedule = CrashSchedule{pivot.tick};
        flip.plan.faults.push_back(
            MediaFault{FaultKind::BitFlip, 0, 0, 0, 17});
        cases.push_back(std::move(flip));

        CampaignCase stale = base(pivot);
        stale.schedule = CrashSchedule{pivot.tick};
        stale.plan.faults.push_back(
            MediaFault{FaultKind::StaleCheckpointSlot, 0, 0, 0, 0});
        cases.push_back(std::move(stale));

        // Torn append *and* a nested mid-replay failure: the hardened
        // scan must hold up across a recovery re-entry.
        CampaignCase both = base(pivot);
        both.pointKind = CrashPointKind::MidRecovery;
        both.schedule = CrashSchedule{pivot.tick, kBootCycles + 2};
        both.plan.faults.push_back(
            MediaFault{FaultKind::TornAppend, 0, 0, 0, 0});
        cases.push_back(std::move(both));
    }
    return cases;
}

/**
 * Greedy auto-shrink: drop trailing schedule entries and individual
 * faults while the case still fails. Returns the minimal repro.
 */
CaseResult
shrinkCase(const CaseResult &failing, const GoldenRef &golden,
           std::uint64_t max_instrs, std::size_t &runs)
{
    CaseResult best = failing;
    bool improved = true;
    while (improved && runs < 32) {
        improved = false;
        std::vector<CampaignCase> candidates;
        if (best.c.schedule.size() > 1) {
            CampaignCase c = best.c;
            c.schedule.ticks.pop_back();
            candidates.push_back(std::move(c));
        }
        if (best.c.interleave.seed != 0) {
            // Is the interleaving schedule part of the minimal
            // repro, or does the failure reproduce under the
            // unjittered legacy timing too?
            CampaignCase c = best.c;
            c.ilvIndex = 0;
            c.interleave = arch::InterleaveConfig{};
            candidates.push_back(std::move(c));
        }
        for (std::size_t i = 0; i < best.c.plan.faults.size(); ++i) {
            CampaignCase c = best.c;
            c.plan.faults.erase(c.plan.faults.begin() +
                                static_cast<std::ptrdiff_t>(i));
            candidates.push_back(std::move(c));
        }
        for (const auto &cand : candidates) {
            ++runs;
            CaseResult r = runCase(cand, golden, max_instrs);
            if (!r.pass) {
                best = std::move(r);
                improved = true;
                break;
            }
            if (runs >= 32)
                break;
        }
    }
    return best;
}

} // namespace

void
RecoveryHistogram::add(std::uint64_t v)
{
    if (counts.empty())
        counts.assign(kRecoveryHistBuckets, 0);
    std::size_t b = static_cast<std::size_t>(
        v / (bucketWidth ? bucketWidth : 1));
    if (b >= counts.size())
        b = counts.size() - 1; // overflow bucket
    ++counts[b];
    if (samples == 0 || v < min)
        min = v;
    if (v > max)
        max = v;
    total += v;
    ++samples;
}

const std::vector<std::string> &
allSchemeNames()
{
    static const std::vector<std::string> names = {
        "baseline", "cwsp", "capri", "ido", "replaycache", "psp"};
    return names;
}

std::string
CampaignCase::label() const
{
    std::ostringstream os;
    os << app << "/" << scheme << " @" << schedule.describe();
    if (ilvIndex != 0)
        os << " ilv" << ilvIndex;
    for (const auto &f : plan.faults)
        os << " " << faultBrief(f);
    return os.str();
}

CaseResult
runCase(const CampaignCase &c, const GoldenRef &golden,
        std::uint64_t max_instrs)
{
    cwsp_assert(golden.module && golden.config && golden.memory &&
                    golden.ioStream,
                "runCase needs a complete golden reference");
    CaseResult r;
    r.c = c;
    try {
        // The case carries its own interleave config (the shrinker
        // may have zeroed it); everything else follows the golden
        // context's config exactly.
        core::SystemConfig cfg = *golden.config;
        cfg.scheme.interleave = c.interleave;
        core::WholeSystemSim sim(*golden.module, cfg,
                                 driver::workerArena());
        sim.setExpectedInstrs(golden.instrs);
        static const std::vector<core::ThreadSpec> kMainThread{
            core::ThreadSpec{}};
        const auto &threads =
            golden.threads ? *golden.threads : kMainThread;
        if (golden.dlSpec)
            sim.setCaptureFirstCrash(true);
        // Forked mode: restore the pre-crash prefix from the golden
        // pass's checkpoint instead of re-executing it. A miss
        // (evicted under the byte cap, or never captured) or a
        // checkpoint the simulator refuses degrades to from-scratch
        // execution — identical verdict, more cycles — and the ledger
        // counts the source that actually ran.
        std::shared_ptr<const core::SimCheckpoint> fork;
        const bool consultCache = golden.ckptCache && !c.schedule.empty();
        if (consultCache) {
            fork = golden.ckptCache->get(
                golden.ckptKeyBase + ":" +
                std::to_string(c.schedule.ticks[0]));
        }
        auto out =
            sim.runWithCrashes(threads, c.schedule, c.plan,
                               max_instrs, golden.stream, fork.get());
        if (consultCache) {
            if (out.source == core::ExecSource::Fork)
                golden.ckptCache->noteFork();
            else
                golden.ckptCache->noteFallback(
                    fork ? out.refusal : core::SourceRefusal::None);
        }
        r.ran = true;
        r.crashed = out.crashed;
        r.faults = out.faults;
        r.lostWork = out.lostWork;
        r.recoveryWindows.assign(out.recoveryWindows.begin(),
                                 out.recoveryWindows.end());
        for (const auto &b : out.recoveryBreakdowns) {
            for (std::size_t p = 0; p < kRecoveryPhases; ++p)
                r.recoveryPhaseCycles[p] += b.phase[p];
        }

        // Every media fault that was actually injected must have been
        // detected somewhere (silent corruption fails the case even
        // when the state happens to converge).
        r.faultsDetected =
            out.faults.faultsApplied == 0 ||
            out.faults.corruptRecordsDetected +
                    out.faults.staleSlotsDetected >=
                out.faults.faultsApplied;

        if (golden.dlSpec) {
            // Concurrent verdict: the crash may legally change which
            // worker wins each post-recovery race, so the golden
            // final state is not a reference — durable
            // linearizability of the pre-crash history against the
            // recovered image is.
            obs::DlResult dl;
            if (out.hasFirstCrash) {
                dl = obs::checkDurableLinearizability(
                    *golden.dlSpec, *golden.dlOps, out.firstStores,
                    out.firstDurableImage, out.firstFullRestart);
            } else {
                dl.outcome = obs::DlOutcome::Vacuous;
                dl.reason = "program finished before the crash";
            }
            r.dlVerdict = obs::dlOutcomeName(dl.outcome);
            r.dlInvokedOps = dl.invokedOps;
            r.dlCompletedOps = dl.completedOps;
            r.consistent = true; // differential check not applicable
            r.resultMatch = true;
            for (std::uint32_t t = 0;
                 t < out.result.returnValues.size(); ++t) {
                r.resultMatch &=
                    out.result.returnValues[t] == golden.result;
            }
            r.pass = r.resultMatch && r.faultsDetected &&
                     dl.outcome != obs::DlOutcome::Violation;
            if (!r.pass) {
                std::ostringstream os;
                if (dl.outcome == obs::DlOutcome::Violation)
                    os << "durable linearizability: " << dl.reason
                       << "; ";
                if (!r.resultMatch)
                    os << "post-recovery worker result differs; ";
                if (!r.faultsDetected)
                    os << "seeded media fault went undetected; ";
                r.detail = os.str();
            }
            return r;
        }

        auto check = core::checkGlobals(*golden.module,
                                        *golden.memory, sim.memory());
        r.consistent = check.consistent;
        r.divergences = check.totalDivergences;
        r.resultMatch = !out.result.returnValues.empty() &&
                        out.result.returnValues[0] == golden.result;

        // Exactly-once device output — except across a full restart,
        // where re-execution from entry necessarily re-issues output
        // (the documented cost of degradation step 3).
        if (out.faults.fullRestarts == 0) {
            r.ioChecked = true;
            r.ioMatch =
                out.ioStream.size() == golden.ioStream->size();
            for (std::size_t i = 0; r.ioMatch &&
                                    i < out.ioStream.size();
                 ++i) {
                const auto &a = out.ioStream[i];
                const auto &b = (*golden.ioStream)[i];
                r.ioMatch = a.device == b.device &&
                            a.payload == b.payload &&
                            a.core == b.core;
            }
        }

        r.pass = r.consistent && r.resultMatch &&
                 (!r.ioChecked || r.ioMatch) && r.faultsDetected;
        if (!r.pass) {
            std::ostringstream os;
            if (!r.consistent)
                os << "globals diverge (" << r.divergences
                   << " words, first in "
                   << (check.divergences.empty()
                           ? std::string("?")
                           : check.divergences[0].global)
                   << "); ";
            if (!r.resultMatch)
                os << "return value differs; ";
            if (r.ioChecked && !r.ioMatch)
                os << "device output not exactly-once; ";
            if (!r.faultsDetected)
                os << "seeded media fault went undetected; ";
            r.detail = os.str();
        }
    } catch (const std::exception &e) {
        r.ran = false;
        r.pass = false;
        r.detail = std::string("exception: ") + e.what();
    }
    return r;
}

GoldenRun
prepareGoldenRun(const ir::Module &module, const core::SystemConfig &config,
                 std::size_t max_per_kind, std::uint64_t max_instrs,
                 std::uint64_t expected_instrs)
{
    GoldenRun g;
    g.stream = core::recordCommitStream(module, "main", {},
                                        config.hierarchy, max_instrs,
                                        expected_instrs, &g.memory);
    g.hasStream = true;
    g.result = g.stream.returnValue;
    g.io = core::collectIoStream(g.stream);
    g.points = enumerateCrashPoints(module, config, {core::ThreadSpec{}},
                                    max_per_kind, max_instrs, &g.stream);
    return g;
}

CampaignReport
runCampaign(const CampaignOptions &options)
{
    cwsp_assert(!options.apps.empty(),
                "fault campaign needs at least one app");
    const std::vector<std::string> &schemes =
        options.schemes.empty() ? allSchemeNames() : options.schemes;

    driver::BatchConfig bc;
    bc.jobs = options.jobs;
    bc.useDiskCache = false;
    driver::BatchRunner pool(bc);

    // One campaign-wide checkpoint cache (the pool's, shared
    // read-only across its workers); every context's golden pass
    // populates it, every case forks from it. Byte-capped by
    // CWSP_CKPT_CACHE_MB; evictions surface as fallbacks.
    core::CheckpointCache *ckptCache =
        options.forkCheckpoints ? &pool.checkpointCache() : nullptr;

    // Phase 1: golden runs + crash-point enumeration, one context per
    // (app, scheme) slot — concurrent apps get one slot per
    // interleaving schedule — parallel, each self-contained. Contexts
    // that run the same program (app, compiler options) share one
    // module from the pool's cache: a concurrent campaign's 3 apps x
    // 6 schemes x 32 schedules compile 12 programs, not 576. A
    // single-core context interprets its program once: recording the
    // commit stream yields the golden facts, and replaying it yields
    // the crash points and the golden timed run (prepareGoldenRun).
    // Every pass stops at the campaign's instruction budget.
    std::vector<Context> contexts;
    for (std::size_t a = 0; a < options.apps.size(); ++a) {
        const bool conc =
            workloads::findConcurrentApp(options.apps[a]) != nullptr;
        const std::uint32_t slots =
            conc ? std::max<std::uint32_t>(1, options.numSchedules)
                 : 1;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            for (std::uint32_t k = 0; k < slots; ++k) {
                Context ctx;
                ctx.app = options.apps[a];
                ctx.scheme = schemes[s];
                ctx.concurrent = conc;
                ctx.ilvIndex = k;
                contexts.push_back(std::move(ctx));
            }
        }
    }
    {
        std::vector<std::function<void()>> prep;
        for (Context &ctx : contexts) {
            prep.push_back([&ctx, &options, &pool, cache = ckptCache]() {
                ctx.config = core::makeSystemConfig(ctx.scheme);
                GoldenRun &golden = ctx.golden;
                if (ctx.concurrent) {
                    // Multicore golden run: the enumeration pass times
                    // it, and each worker deterministically finishes
                    // opsPerWorker ops (the reference return value).
                    // Commit-stream replay (single-core machinery) and
                    // checkpoint forking (not enabled here) stay off;
                    // the durable-lin verdict replaces the
                    // differential checks.
                    const auto *cp = workloads::findConcurrentApp(ctx.app);
                    ctx.config.numCores = cp->params.numWorkers;
                    ctx.config.scheme.interleave = core::interleaveSchedule(
                        options.interleaveSeed, ctx.ilvIndex);
                    ctx.config.scheme.bugCasSkipPersist =
                        options.seedCasBug;
                    ctx.module = pool.moduleFor(*cp, ctx.config.compiler);
                    ctx.cspec = workloads::concurrentSpec(*ctx.module, *cp);
                    ctx.threads.clear();
                    for (std::uint32_t t = 0; t < cp->params.numWorkers;
                         ++t) {
                        ctx.cops.push_back(workloads::concurrentOps(*cp, t));
                        ctx.threads.push_back(
                            core::ThreadSpec{"worker", {Word{t}}});
                    }
                    golden.result = cp->params.opsPerWorker;
                    golden.points = enumerateCrashPoints(
                        *ctx.module, ctx.config, ctx.threads,
                        options.pointsPerKind, options.maxInstrs);
                    return;
                }
                const auto &profile = workloads::appByName(ctx.app);
                ctx.module = pool.moduleFor(profile, ctx.config.compiler);
                golden = prepareGoldenRun(
                    *ctx.module, ctx.config, options.pointsPerKind,
                    options.maxInstrs,
                    workloads::estimatedInstrs(profile));
                if (!cache || golden.points.points.empty())
                    return;
                // Forked mode: one more pass over the golden schedule
                // captures a checkpoint at every first crash tick any
                // of this context's cases will use (nested/media cases
                // all pivot on an enumerated point, so the point ticks
                // cover them). Cost: one run per context, amortized
                // over its ~dozen cases.
                std::vector<Tick> ticks;
                for (const auto &p : golden.points.points)
                    ticks.push_back(p.tick);
                std::sort(ticks.begin(), ticks.end());
                ticks.erase(std::unique(ticks.begin(), ticks.end()),
                            ticks.end());
                core::WholeSystemSim sim(*ctx.module, ctx.config);
                auto cr = sim.captureCheckpoints(
                    {core::ThreadSpec{}}, ticks, options.maxInstrs,
                    &golden.stream);
                // The capture pass re-runs the golden schedule, driven
                // by the same stream as the enumeration run. It must
                // land on the enumeration run's counts. (That
                // replay reproduces interpretation is tier-1's check:
                // test_fault_campaign, EnumerationRunIsThePlainRun.)
                cwsp_assert(cr.result.cycles == golden.points.runCycles &&
                                cr.result.instructions ==
                                    golden.points.runInstrs,
                            ckptKeyBaseOf(ctx), ": capture pass ran ",
                            cr.result.cycles, " cycles / ",
                            cr.result.instructions,
                            " instrs, enumeration ",
                            golden.points.runCycles, " / ",
                            golden.points.runInstrs);
                const std::string base = ckptKeyBaseOf(ctx);
                for (auto &ck : cr.checkpoints)
                    cache->insert(
                        base + ":" + std::to_string(ck->crashTick), ck);
                ctx.ckptCache = cache;
            });
        }
        pool.runTasks(prep);
    }

    // Phase 2: build the deterministic case list and run it across
    // the pool; results land by index, so the report's order is
    // independent of the jobs count.
    CampaignReport report;
    report.interleaveSeed = options.interleaveSeed;
    report.modulesCompiled = pool.stats().modulesCompiled;
    report.contexts = contexts.size();
    for (const auto &ctx : contexts) {
        if (ctx.golden.points.source == core::ExecSource::Stream) {
            ++report.enumerations.stream;
        } else {
            ++report.enumerations.interpret;
            report.enumerations.interpretCauses.note(
                core::streamRefusal(ctx.threads.size()));
        }
    }
    std::vector<const Context *> caseCtx;
    for (const auto &ctx : contexts) {
        auto cs = casesFor(ctx, options);
        for (auto &c : cs) {
            report.cases.push_back(CaseResult{});
            report.cases.back().c = std::move(c);
            caseCtx.push_back(&ctx);
        }
    }
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(report.cases.size());
        for (std::size_t i = 0; i < report.cases.size(); ++i) {
            tasks.push_back([i, &report, &caseCtx, &options]() {
                report.cases[i] =
                    runCase(report.cases[i].c, refOf(*caseCtx[i]),
                            options.maxInstrs);
            });
        }
        pool.runTasks(tasks);
    }

    // Phase 3: aggregate; auto-shrink failures to minimal repros.
    for (std::size_t i = 0; i < report.cases.size(); ++i) {
        const CaseResult &r = report.cases[i];
        ++report.casesRun;
        report.totals.mergeFrom(r.faults);
        if (r.pass) {
            ++report.casesPassed;
            continue;
        }
        if (options.shrink && r.ran) {
            report.failures.push_back(shrinkCase(
                r, refOf(*caseCtx[i]), options.maxInstrs,
                report.shrinkRuns));
        } else {
            report.failures.push_back(r);
        }
    }
    // Per-scheme recovery aggregation (latency / lost-work
    // histograms, phase totals, runtime overhead): the raw material
    // of the --recovery-report Pareto table. Campaign scheme order.
    {
        report.recovery.resize(schemes.size());
        std::map<std::string, std::size_t> idxOf;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            SchemeRecoveryStats &st = report.recovery[s];
            st.scheme = schemes[s];
            st.latency.bucketWidth = 64;
            st.latency.counts.assign(kRecoveryHistBuckets, 0);
            st.lostWork.bucketWidth = 1024;
            st.lostWork.counts.assign(kRecoveryHistBuckets, 0);
            idxOf[schemes[s]] = s;
        }
        for (const CaseResult &r : report.cases) {
            if (!r.ran)
                continue;
            SchemeRecoveryStats &st =
                report.recovery[idxOf.at(r.c.scheme)];
            for (std::uint64_t w : r.recoveryWindows) {
                ++st.crashes;
                st.latency.add(w);
            }
            for (std::size_t p = 0; p < kRecoveryPhases; ++p)
                st.phaseCycles[p] += r.recoveryPhaseCycles[p];
            if (r.crashed)
                st.lostWork.add(r.lostWork);
            if (!r.dlVerdict.empty()) {
                ++st.dlChecked;
                if (r.dlVerdict == "pass")
                    ++st.dlPass;
                else if (r.dlVerdict == "violation")
                    ++st.dlViolation;
                else
                    ++st.dlVacuous;
            }
        }
        for (const Context &ctx : contexts) {
            // Jittered schedules measure the same binary under
            // perturbed timing; only schedule 0 (legacy, unjittered)
            // feeds the fault-free overhead axis.
            if (ctx.ilvIndex != 0)
                continue;
            report.recovery[idxOf.at(ctx.scheme)]
                .goldenCycles.emplace_back(ctx.app,
                                           ctx.golden.points.runCycles);
        }
        // Runtime overhead: gmean over apps of this scheme's
        // fault-free cycles vs. the baseline scheme's. Unavailable
        // (0) unless baseline was swept.
        auto bl = idxOf.find("baseline");
        if (bl != idxOf.end()) {
            std::map<std::string, std::uint64_t> base;
            for (const auto &[app, cyc] :
                 report.recovery[bl->second].goldenCycles)
                base[app] = cyc;
            for (SchemeRecoveryStats &st : report.recovery) {
                double logSum = 0.0;
                std::size_t apps = 0;
                for (const auto &[app, cyc] : st.goldenCycles) {
                    auto it = base.find(app);
                    if (it == base.end() || it->second == 0 ||
                        cyc == 0) {
                        continue;
                    }
                    logSum +=
                        std::log(static_cast<double>(cyc) /
                                 static_cast<double>(it->second));
                    ++apps;
                }
                if (apps)
                    st.runtimeOverhead =
                        std::exp(logSum /
                                 static_cast<double>(apps));
            }
        }
    }
    if (ckptCache) {
        auto cs = ckptCache->stats();
        report.ckptCache.enabled = true;
        report.ckptCache.captures = cs.captures;
        report.ckptCache.forks = cs.forks;
        report.ckptCache.evictions = cs.evictions;
        report.ckptCache.fallbacks = cs.fallbacks;
        report.ckptCache.fallbackCauses = cs.fallbackCauses;
        report.ckptCache.bytesResident = cs.bytesResident;
        report.ckptCache.logBytesResident = cs.logBytesResident;
        report.ckptCache.entries = cs.entries;
    }
    return report;
}

void
CampaignReport::writeJson(std::ostream &os) const
{
    os << "{\n  \"cases_run\": " << casesRun
       << ",\n  \"cases_passed\": " << casesPassed
       << ",\n  \"failure_count\": " << failures.size()
       << ",\n  \"shrink_runs\": " << shrinkRuns
       << ",\n  \"interleave_seed\": \"" << interleaveSeed << "\""
       << ",\n  \"totals\": ";
    writeFaultStatsJson(os, totals);
    os << ",\n  \"checkpoint_cache\": {\"enabled\": "
       << (ckptCache.enabled ? "true" : "false")
       << ", \"captures\": " << ckptCache.captures
       << ", \"forks\": " << ckptCache.forks
       << ", \"evictions\": " << ckptCache.evictions
       << ", \"fallbacks\": " << ckptCache.fallbacks
       << ", \"fallback_causes\": {";
    const char *sep = "";
    ckptCache.fallbackCauses.forEach(
        [&](const char *cause, std::uint64_t n) {
            os << sep << '"' << cause << "\": " << n;
            sep = ", ";
        });
    os << "}, \"bytes_resident\": " << ckptCache.bytesResident
       << ", \"log_bytes_resident\": " << ckptCache.logBytesResident
       << ", \"entries\": " << ckptCache.entries << "}";
    os << ",\n  \"recovery\": [";
    for (std::size_t i = 0; i < recovery.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        writeSchemeRecoveryJson(os, recovery[i]);
    }
    os << (recovery.empty() ? "]" : "\n  ]");
    os << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        writeCaseJson(os, failures[i]);
    }
    os << (failures.empty() ? "]" : "\n  ]");
    os << ",\n  \"cases\": [";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        writeCaseJson(os, cases[i]);
    }
    os << (cases.empty() ? "]" : "\n  ]");
    os << "\n}\n";
}

void
CampaignReport::fillStats(StatsRegistry &reg) const
{
    reg.counter("fault_campaign.cases_run").inc(casesRun);
    reg.counter("fault_campaign.cases_passed").inc(casesPassed);
    reg.counter("fault_campaign.failures").inc(failures.size());
    reg.counter("fault_campaign.shrink_runs").inc(shrinkRuns);
    reg.counter("fault_campaign.crashes_injected")
        .inc(totals.crashesInjected);
    reg.counter("fault_campaign.nested_crashes")
        .inc(totals.nestedCrashes);
    reg.counter("fault_campaign.recovery_crashes")
        .inc(totals.recoveryCrashes);
    reg.counter("fault_campaign.undo_replay_passes")
        .inc(totals.undoReplayPasses);
    reg.counter("fault_campaign.partial_replay_records")
        .inc(totals.partialReplayRecords);
    reg.counter("fault_campaign.faults_requested")
        .inc(totals.faultsRequested);
    reg.counter("fault_campaign.faults_applied")
        .inc(totals.faultsApplied);
    reg.counter("fault_campaign.corrupt_records_detected")
        .inc(totals.corruptRecordsDetected);
    reg.counter("fault_campaign.torn_tails_dropped")
        .inc(totals.tornTailsDropped);
    reg.counter("fault_campaign.region_restarts")
        .inc(totals.regionRestarts);
    reg.counter("fault_campaign.full_restarts")
        .inc(totals.fullRestarts);
    reg.counter("fault_campaign.stale_slots_detected")
        .inc(totals.staleSlotsDetected);
    reg.counter("fault_campaign.atomic_resumes")
        .inc(totals.atomicResumes);
    reg.counter("fault_campaign.modules_compiled").inc(modulesCompiled);
    reg.counter("fault_campaign.contexts").inc(contexts);
    reg.counter("fault_campaign.enumerations.stream")
        .inc(enumerations.stream);
    reg.counter("fault_campaign.enumerations.interpret")
        .inc(enumerations.interpret);
    enumerations.interpretCauses.forEach(
        [&](const char *cause, std::uint64_t n) {
            reg.counter(std::string("fault_campaign.enumerations."
                                    "interpret_causes.") +
                        cause)
                .inc(n);
        });
    if (ckptCache.enabled) {
        reg.counter("ckpt.captures").inc(ckptCache.captures);
        reg.counter("ckpt.forks").inc(ckptCache.forks);
        reg.counter("ckpt.evictions").inc(ckptCache.evictions);
        reg.counter("ckpt.fallbacks").inc(ckptCache.fallbacks);
        ckptCache.fallbackCauses.forEach(
            [&](const char *cause, std::uint64_t n) {
                reg.counter(std::string("ckpt.fallback_causes.") + cause)
                    .inc(n);
            });
        reg.counter("ckpt.bytes_resident")
            .inc(ckptCache.bytesResident);
        reg.counter("ckpt.log_bytes_resident")
            .inc(ckptCache.logBytesResident);
        reg.counter("ckpt.entries").inc(ckptCache.entries);
    }
    for (const SchemeRecoveryStats &st : recovery) {
        const std::string p = "recovery." + st.scheme + ".";
        reg.counter(p + "crashes").inc(st.crashes);
        for (std::size_t i = 0; i < kRecoveryPhases; ++i) {
            reg.counter(p + "phases." + kPhaseJsonKeys[i])
                .inc(st.phaseCycles[i]);
        }
        if (st.runtimeOverhead > 0.0) {
            reg.average(p + "runtime_overhead")
                .sample(st.runtimeOverhead);
        }
        for (const auto &[app, cycles] : st.goldenCycles)
            reg.counter(p + "golden_cycles." + app).inc(cycles);
        if (st.dlChecked) {
            reg.counter(p + "durable_lin.checked").inc(st.dlChecked);
            reg.counter(p + "durable_lin.pass").inc(st.dlPass);
            reg.counter(p + "durable_lin.violation")
                .inc(st.dlViolation);
            reg.counter(p + "durable_lin.vacuous").inc(st.dlVacuous);
        }
        // Touch the histograms so zero-crash schemes still export an
        // (empty) series with the canonical shape.
        reg.histogram(p + "latency", st.latency.bucketWidth,
                      kRecoveryHistBuckets);
        reg.histogram(p + "lost_work", st.lostWork.bucketWidth,
                      kRecoveryHistBuckets);
    }
    // Refill the histograms from the raw per-case windows: exact
    // moments (mean/max/percentiles), not bucket-quantized ones.
    for (const CaseResult &r : cases) {
        if (!r.ran)
            continue;
        const std::string p = "recovery." + r.c.scheme + ".";
        for (std::uint64_t w : r.recoveryWindows) {
            reg.histogram(p + "latency", 64, kRecoveryHistBuckets)
                .sample(w);
        }
        if (r.crashed) {
            reg.histogram(p + "lost_work", 1024,
                          kRecoveryHistBuckets)
                .sample(r.lostWork);
        }
    }
}

} // namespace cwsp::fault
