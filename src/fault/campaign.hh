/**
 * @file
 * The fault-injection campaign engine. For a set of apps and schemes
 * it enumerates semantically interesting crash points from a traced
 * run (fault/crash_points.hh), decorates them into single, nested,
 * and media-faulted crash schedules, runs every case differentially
 * against a golden uninterrupted run, auto-shrinks failing cases to a
 * minimal (app, scheme, schedule, faults) repro, and emits a
 * machine-readable report (tools/cwsp_faultcampaign front-end).
 *
 * Pass criteria per case:
 *  - recovered globals bit-identical to the golden run,
 *  - the program's return value matches,
 *  - the device-output stream is exactly-once (skipped when recovery
 *    degraded to a full restart: re-execution from entry necessarily
 *    re-issues output — the documented cost of degradation step 3),
 *  - every media fault that was actually injected was *detected*
 *    (silent corruption is a failure even when the final state
 *    happens to converge).
 *
 * Concurrent apps (workloads::concurrentAppTable) swap the first
 * three criteria for a durable-linearizability verdict
 * (obs/durable_lin.hh) plus per-worker return validation: post-crash
 * interleavings legitimately diverge from the golden final state, so
 * the recovered image is judged against the pre-crash history
 * instead. Each (app, scheme) sweeps one context per deterministic
 * interleaving schedule, and the shrinker additionally tries
 * dropping the schedule from a failing case's repro.
 */

#ifndef CWSP_FAULT_CAMPAIGN_HH
#define CWSP_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/sim_checkpoint.hh"
#include "fault/crash_points.hh"
#include "fault/fault_model.hh"
#include "workloads/concurrent.hh"

namespace cwsp {
class StatsRegistry; // sim/stats.hh
}

namespace cwsp::core {
class CheckpointCache; // core/sim_checkpoint.hh
}

namespace cwsp::fault {

/** What to sweep. */
struct CampaignOptions
{
    /** Workload names (workloads::appByName); required, non-empty. */
    std::vector<std::string> apps;
    /** Scheme presets; empty = all six. */
    std::vector<std::string> schemes;
    /** Crash points kept per kind per (app, scheme). */
    std::size_t pointsPerKind = 3;
    /** Add nested-crash schedules (mid-boot / mid-replay / later). */
    bool nested = true;
    /** Add torn-append / bit-flip / stale-slot cases. */
    bool mediaFaults = true;
    /** Auto-shrink failing cases to a minimal repro. */
    bool shrink = true;
    /**
     * Fork every case from a SimCheckpoint captured during the golden
     * pass instead of re-executing its pre-crash prefix. Verdicts are
     * bit-identical either way (tests/test_ckpt_equiv.cc); disable to
     * cross-check or to bound memory below CWSP_CKPT_CACHE_MB.
     */
    bool forkCheckpoints = true;
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    std::uint64_t maxInstrs = 200'000'000;
    /**
     * Concurrent apps (workloads::concurrentAppTable) only: base seed
     * of the deterministic interleaving schedules (--seed) and how
     * many schedules to sweep per (app, scheme) (--schedules).
     * Schedule 0 is always the unjittered legacy timing; schedule
     * k >= 1 derives a distinct jitter seed (core/interleave.hh).
     * Single-threaded apps ignore both.
     */
    std::uint64_t interleaveSeed = 1;
    std::uint32_t numSchedules = 2;
    /**
     * Inject the seeded CAS-ordering bug (arch::SchemeConfig::
     * bugCasSkipPersist: the CAS becomes visible but never durable)
     * into every concurrent context. The checker's self-test target:
     * the campaign must catch it as a durable-linearizability
     * violation and shrink a minimal repro (--seed-cas-bug).
     */
    bool seedCasBug = false;
};

/** One differential crash run. */
struct CampaignCase
{
    std::string app;
    std::string scheme;
    CrashSchedule schedule;
    FaultPlan plan;
    /** Kind of the point the initial crash tick came from. */
    CrashPointKind pointKind = CrashPointKind::RegionBegin;
    /**
     * Concurrent campaign: interleaving schedule index and its
     * resolved jitter config. The config rides in the case so the
     * shrinker can retry a failing case with jitter disabled (is the
     * schedule part of the minimal repro?) without a context rebuild.
     */
    std::uint32_t ilvIndex = 0;
    arch::InterleaveConfig interleave;

    /** "bzip2/cwsp @1042+65 torn_append@0" (for logs and reports). */
    std::string label() const;
};

/** Phase count of core::RecoveryPhase (campaign.cc pins the match). */
constexpr std::size_t kRecoveryPhases = 5;

/** Outcome of one case. */
struct CaseResult
{
    CampaignCase c;
    bool ran = false;        ///< false: exception (detail says what)
    bool crashed = false;    ///< the first crash fired in-run
    bool consistent = false; ///< globals match golden
    bool resultMatch = false;
    bool ioChecked = false; ///< exactly-once comparison performed
    bool ioMatch = true;
    /** Injected media faults were all detected (vacuous when none). */
    bool faultsDetected = true;
    bool pass = false;
    std::uint64_t divergences = 0; ///< total divergent words
    FaultStats faults;
    /** Timed recovery window of every injected failure, cycles, in
     *  schedule order (nested failures absorbed by a window do not
     *  open one of their own). */
    std::vector<std::uint64_t> recoveryWindows;
    /** Cycles per recovery phase summed over this case's windows,
     *  core::RecoveryPhase order (detect, scan, undo replay, slice
     *  re-execution, resume). The five always tile the windows
     *  exactly: their sum equals the sum of recoveryWindows. */
    std::uint64_t recoveryPhaseCycles[kRecoveryPhases] = {0, 0, 0, 0,
                                                          0};
    /** Instructions committed past the resume point at the first
     *  failure — work the crash destroyed. */
    std::uint64_t lostWork = 0;
    /**
     * Durable-linearizability verdict of a concurrent case ("pass",
     * "violation", "vacuous"; empty for single-threaded cases, whose
     * verdict is the differential check instead).
     */
    std::string dlVerdict;
    std::uint32_t dlInvokedOps = 0;   ///< ops with committed inv
    std::uint32_t dlCompletedOps = 0; ///< ops durably acknowledged
    std::string detail; ///< human-readable failure explanation
};

/**
 * Checkpoint-cache behaviour over a forked campaign. Fallbacks > 0
 * means the CWSP_CKPT_CACHE_MB byte cap (or an identity mismatch)
 * degraded part of the sweep to from-scratch execution — slower,
 * never wrong. fallbackCauses says which: a missing checkpoint
 * (evicted or never captured) or each reason the simulator refused
 * one.
 */
struct CkptCacheReport
{
    bool enabled = false;
    std::uint64_t captures = 0;
    std::uint64_t forks = 0;
    std::uint64_t evictions = 0;
    std::uint64_t fallbacks = 0;
    core::FallbackCauses fallbackCauses;
    std::uint64_t bytesResident = 0;
    std::uint64_t logBytesResident = 0; ///< shared logs' share
    std::uint64_t entries = 0;
};

/**
 * Fixed-width bucket histogram: bucket i counts samples in
 * [i*bucketWidth, (i+1)*bucketWidth); the last bucket absorbs
 * overflow. Filled from the deterministic case order, so it is
 * independent of the jobs count.
 */
struct RecoveryHistogram
{
    std::uint64_t bucketWidth = 64;
    std::vector<std::uint64_t> counts;
    std::uint64_t samples = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t total = 0;

    void add(std::uint64_t v);
    double
    mean() const
    {
        return samples ? static_cast<double>(total) /
                             static_cast<double>(samples)
                       : 0.0;
    }
};

/** Histogram resolution (buckets per histogram). */
constexpr std::size_t kRecoveryHistBuckets = 64;

/**
 * Per-scheme recovery observability aggregated over a campaign: the
 * raw material of the recovery-latency vs. runtime-overhead Pareto
 * report (cwsp_analyze --recovery-report).
 */
struct SchemeRecoveryStats
{
    std::string scheme;
    std::uint64_t crashes = 0; ///< recovery windows observed
    /** Recovery-window length, cycles (bucket width 64). */
    RecoveryHistogram latency;
    /** Lost work per crashed case, instructions (bucket width 1024). */
    RecoveryHistogram lostWork;
    /** Cycles per phase summed over every window, core::RecoveryPhase
     *  order; the five sum to latency.total. */
    std::uint64_t phaseCycles[kRecoveryPhases] = {0, 0, 0, 0, 0};
    /**
     * Geometric-mean fault-free runtime of this scheme over the
     * campaign's apps, relative to the baseline scheme's. 0 when the
     * campaign did not sweep baseline (overhead unavailable).
     */
    double runtimeOverhead = 0.0;
    /** Fault-free timed cycles per app (campaign app order). */
    std::vector<std::pair<std::string, std::uint64_t>> goldenCycles;
    /** Durable-linearizability verdict totals over this scheme's
     *  concurrent cases (all zero for single-threaded campaigns). */
    std::uint64_t dlChecked = 0;
    std::uint64_t dlPass = 0;
    std::uint64_t dlViolation = 0;
    std::uint64_t dlVacuous = 0;
};

/**
 * Where the campaign's contexts took their crash points from: a
 * commit-stream replay, or an interpreted run, counted by why no
 * stream drove it (multicore).
 */
struct EnumerationSources
{
    std::size_t stream = 0;
    std::size_t interpret = 0;
    core::RefusalCounts interpretCauses;
};

/** Aggregate outcome. */
struct CampaignReport
{
    std::vector<CaseResult> cases; ///< deterministic order
    /** Minimal repros of every failing case (post-shrink). */
    std::vector<CaseResult> failures;
    FaultStats totals;
    std::size_t casesRun = 0;
    std::size_t casesPassed = 0;
    std::size_t shrinkRuns = 0; ///< extra runs the shrinker spent
    /**
     * CampaignOptions::interleaveSeed: with a case's ilvIndex it names
     * the case's schedule, so a repro replays from the report. Written
     * as a JSON string, since it can exceed 2^53.
     */
    std::uint64_t interleaveSeed = 1;
    /**
     * Golden contexts (one per app x scheme, times the schedules of a
     * concurrent app) and the distinct programs compiled for them:
     * contexts with the same app and compiler options share a module.
     * Exported by fillStats(), not part of the JSON report.
     */
    std::size_t contexts = 0;
    std::size_t modulesCompiled = 0;
    /** Each context's enumeration source (fillStats(), not JSON). */
    EnumerationSources enumerations;
    CkptCacheReport ckptCache;  ///< forked-mode cache behaviour
    /** Per-scheme recovery aggregates, campaign scheme order. */
    std::vector<SchemeRecoveryStats> recovery;

    bool allPassed() const { return failures.empty(); }

    /** Machine-readable report (stable schema, see internals.md). */
    void writeJson(std::ostream &os) const;

    /**
     * Register the campaign outcome in @p reg — counters under
     * "fault_campaign." (outcomes, contexts, modules_compiled,
     * enumerations.{stream,interpret} with the interpret causes) and
     * "ckpt.", per-scheme recovery histograms and phase totals
     * under "recovery.<scheme>." — so the
     * cwsp_faultcampaign --stats-json export nests hierarchically
     * exactly like cwsp_run's. Histograms are refilled from the raw
     * per-case windows (exact moments, not bucket-quantized).
     */
    void fillStats(StatsRegistry &reg) const;
};

/**
 * Build and run the campaign described by @p options. Cases run
 * across a BatchRunner worker pool; results are deterministic and
 * independent of the jobs count. Contexts that run the same program
 * share one compiled module from the pool's cache, which lives for
 * this call only.
 */
CampaignReport runCampaign(const CampaignOptions &options);

/**
 * Run one case differentially and fill a CaseResult (exposed for the
 * shrinker, tests, and the --crash-at-event CLI path). @p golden_*
 * describe the uninterrupted run of the same module.
 */
struct GoldenRef
{
    const ir::Module *module = nullptr;
    const core::SystemConfig *config = nullptr;
    Word result = 0;
    const interp::SparseMemory *memory = nullptr;
    const std::vector<arch::IoRecord> *ioStream = nullptr;
    /**
     * Committed instructions of the golden run, summed over cores
     * (CrashPointSet::runInstrs); 0 = unknown. runCase() passes it to
     * WholeSystemSim::setExpectedInstrs, so crash epochs reserve
     * their logs for this program rather than for max_instrs.
     */
    std::uint64_t instrs = 0;
    /**
     * Optional compiled commit stream of the golden run. When set,
     * replay-eligible epochs of every case skip re-interpretation
     * (bit-identical results, see WholeSystemSim::runWithCrashes).
     */
    const core::CommitStream *stream = nullptr;
    /**
     * Optional checkpoint cache populated during the golden pass.
     * runCase() then looks up "<ckptKeyBase>:<first crash tick>" and
     * forks the case from the checkpoint; a miss (evicted or never
     * captured) or a checkpoint the simulator refuses falls back to
     * from-scratch execution and is counted as a fallback.
     */
    core::CheckpointCache *ckptCache = nullptr;
    std::string ckptKeyBase;
    /**
     * Concurrent campaign: thread roster (null = the single-threaded
     * {ThreadSpec{}} default) plus the structure spec and per-worker
     * op sequences driving the durable-linearizability verdict. When
     * dlSpec is set, runCase() swaps the differential globals/IO
     * checks for the checker's verdict (post-crash interleavings
     * legitimately diverge from the golden run's final state).
     */
    const std::vector<core::ThreadSpec> *threads = nullptr;
    const workloads::ConcurrentSpec *dlSpec = nullptr;
    const std::vector<std::vector<workloads::ConcurrentOp>> *dlOps =
        nullptr;
};

CaseResult runCase(const CampaignCase &c, const GoldenRef &golden,
                   std::uint64_t max_instrs = 200'000'000);

/** The data a single-core GoldenRef points into, owned. */
struct GoldenRun
{
    Word result = 0;
    interp::SparseMemory memory;
    std::vector<arch::IoRecord> io;
    /** The run's commit stream; recorded only when hasStream. */
    core::CommitStream stream;
    bool hasStream = false;
    /** Crash points, and the golden timed run they came from. */
    CrashPointSet points;
};

/**
 * Prepare the golden reference of @p module's "main" under @p config
 * with one interpreted pass, under every scheme: that pass records
 * the commit stream, with the cache outcomes of config.hierarchy, and
 * ends holding every golden fact: the return value, the final memory
 * image and the device output. Replaying the stream then times the
 * golden run and enumerates its crash points (at most
 * @p max_per_kind per kind). Every pass stops at @p max_instrs steps;
 * @p expected_instrs pre-sizes the recording
 * (workloads::estimatedInstrs).
 */
GoldenRun prepareGoldenRun(const ir::Module &module,
                           const core::SystemConfig &config,
                           std::size_t max_per_kind,
                           std::uint64_t max_instrs,
                           std::uint64_t expected_instrs = 0);

/** The six scheme presets, figure order. */
const std::vector<std::string> &allSchemeNames();

} // namespace cwsp::fault

#endif // CWSP_FAULT_CAMPAIGN_HH
