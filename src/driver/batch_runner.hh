/**
 * @file
 * BatchRunner: the parallel batch simulation engine. Evaluates a
 * list of (AppProfile, SystemConfig) design points across a worker
 * thread pool with results bit-identical to a sequential run — each
 * point's simulation is single-threaded and self-contained, the pool
 * only schedules whole points — and layers two caches underneath:
 *
 *  1. a compiled-module cache keyed by (app parameters, compiler
 *     options), so one workloads::buildApp compile is shared
 *     read-only by every scheme config of a sweep instead of being
 *     redone per design point (an ir::Module is immutable once laid
 *     out; the interpreter only reads it), and
 *
 *  2. a persistent on-disk result cache keyed by a content hash over
 *     the canonical app-profile + SystemConfig serialization plus a
 *     code-version stamp, so e.g. the 38-app baseline sweep is
 *     simulated once across *all* bench binaries and repeat
 *     invocations rather than once per process.
 *
 * Identical design points submitted concurrently are de-duplicated
 * in flight: the first caller computes, the rest wait on the same
 * future. Everything here is thread-safe; the previous bench-local
 * `static std::map` memoization it replaces was not.
 *
 * Cache invalidation: entries embed BatchConfig::versionStamp
 * (default kResultCacheVersion). Bump kResultCacheVersion whenever a
 * change to the simulator can alter any RunResult; stale entries are
 * then ignored (and overwritten on the next store). Entries also
 * echo their full canonical key, so a hash collision degrades to a
 * cache miss, never a wrong result.
 */

#ifndef CWSP_DRIVER_BATCH_RUNNER_HH
#define CWSP_DRIVER_BATCH_RUNNER_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "obs/invariant_monitor.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cwsp::driver {

/**
 * Code-version stamp baked into every persistent cache entry. Bump
 * the suffix whenever simulator timing or semantics change in a way
 * that can alter results.
 */
inline constexpr const char *kResultCacheVersion = "cwsp-results-v1";

/**
 * Fewest distinct design points of one runAll() batch that must share
 * a stream (module + entry + cache tag geometry) before it is
 * recorded and replayed rather than each point interpreted. Measured
 * single-threaded over the 38-app roster x 6 schemes (Release, host
 * ns per committed instruction, medians of 4 runs alternating with
 * the unbatched interpreter): recording R ~ 51, interpreted run()
 * I ~ 37, runReplay P ~ 12, with register-only runs batched in both
 * interpreted passes (before: R ~ 67, I ~ 48, P ~ 12 on the same
 * host). A stream for n points costs R + n*P against n*I, so it pays
 * once n > R / (I - P) ~ 2.0: at n = 2 it breaks even, for a
 * stream's resident bytes; at n = 3 it saves about 23 %.
 */
inline constexpr std::size_t kMinStreamUsers = 3;

/** One unit of work: run @p app under @p config to completion. */
struct DesignPoint
{
    workloads::AppProfile app;
    core::SystemConfig config;
    /** Entry point (part of the cache identity). */
    std::string entry = "main";
    /** Instruction budget (part of the cache identity). */
    std::uint64_t maxInstrs = 2'000'000'000;
};

/** Runner configuration. */
struct BatchConfig
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Consult/populate the persistent on-disk result cache. */
    bool useDiskCache = true;
    /**
     * Result-cache directory. Empty = $CWSP_CACHE_DIR, falling back
     * to ".cwsp-cache" in the working directory. Created on demand.
     */
    std::string cacheDir;
    /** Version stamp for cache entries (tests override this). */
    std::string versionStamp = kResultCacheVersion;
    /**
     * Attach an obs::InvariantMonitor to every simulation this
     * runner performs and collect protocol violations
     * (invariantViolations()). Implies bypassing disk-cache *loads*
     * for the batch — a cached result would skip the simulation and
     * leave its event stream unchecked — while stores still happen.
     */
    bool checkInvariants = false;
    /**
     * Let runAll() drive a program's simulations from a recorded
     * commit stream instead of the interpreter when at least
     * kMinStreamUsers distinct points of the batch run that program
     * on one cache tag geometry (results, stats, and traces are
     * bit-identical either way — the
     * disk cache stays valid). A recording costs more than two
     * replays save over interpreting, so a stream shared by fewer
     * points is slower than interpreting them; those points, and
     * every lone run(), interpret.
     */
    bool useStreamReplay = true;
    /**
     * In-memory commit-stream cache bound in MiB; 0 = the
     * CWSP_STREAM_CACHE_MB environment variable, falling back to 256.
     * Oldest streams are evicted first (in-flight users keep theirs).
     */
    std::size_t streamCacheMb = 0;
    /**
     * Simulator-checkpoint cache bound in MiB (checkpoint-fork crash
     * sweeps, core/sim_checkpoint.hh); 0 = the CWSP_CKPT_CACHE_MB
     * environment variable, falling back to 256. LRU checkpoints are
     * evicted first; an evicted case re-executes from scratch.
     */
    std::size_t ckptCacheMb = 0;
};

/** Where results came from (all counters are cumulative). */
struct BatchStats
{
    std::uint64_t simulated = 0;      ///< actually ran the simulator
    std::uint64_t memoryHits = 0;     ///< in-process result cache
    std::uint64_t diskHits = 0;       ///< persistent result cache
    std::uint64_t modulesCompiled = 0;
    std::uint64_t moduleCacheHits = 0;
    std::uint64_t streamsRecorded = 0;  ///< commit streams compiled
    std::uint64_t streamCacheHits = 0;
    std::uint64_t replayedRuns = 0;     ///< sims driven from a stream
    std::uint64_t interpretedRuns = 0;  ///< sims run by the interpreter
    std::uint64_t invariantEventsChecked = 0;
    std::uint64_t invariantViolations = 0;
    std::uint64_t ckptCaptures = 0;  ///< simulator checkpoints taken
    std::uint64_t ckptForks = 0;     ///< crash cases forked from one
    std::uint64_t ckptEvictions = 0; ///< dropped by the byte cap
    std::uint64_t ckptFallbacks = 0; ///< cases re-run from scratch
};

/**
 * The calling thread's simulator allocation arena. Batch workers and
 * fault-campaign cases run one simulation at a time per thread, so
 * each construction reuses the previous run's warm chunks. The arena
 * holds at most one live simulator (WholeSystemSim panics on a
 * second), so a thread must destroy its sim before building the
 * next. A worker thread's arena dies with the thread.
 */
sim::SimArena *workerArena();

/** The parallel batch engine. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchConfig config = {});
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /**
     * Evaluate one design point through the cache stack (thread-safe;
     * concurrent identical points are computed once). A lone point
     * is a batch of one, so it interprets.
     */
    core::RunResult run(const DesignPoint &point);

    /**
     * Evaluate @p points across the worker pool. Results are returned
     * in input order and are bit-identical to calling run() on each
     * point sequentially, for any jobs count. Before dispatching,
     * the batch is planned: a program and tag geometry shared by at
     * least kMinStreamUsers distinct points is recorded once and
     * replayed for each of them; every other point interprets.
     */
    std::vector<core::RunResult>
    runAll(const std::vector<DesignPoint> &points);

    /**
     * Run arbitrary independent @p tasks across the same worker-pool
     * discipline runAll() uses (BatchConfig::jobs, first exception
     * rethrown after the pool drains). Tasks must be self-contained:
     * they may call back into this runner (run()/moduleFor() are
     * thread-safe) but must synchronize any other shared state
     * themselves. Used by the fault-campaign engine, whose unit of
     * work (a differential crash run) is not a cacheable DesignPoint.
     */
    void runTasks(const std::vector<std::function<void()>> &tasks);

    /**
     * Compiled-module cache lookup: build-and-compile once per
     * (app parameters, compiler options), then share read-only.
     * Concurrent callers of one key wait for the single build.
     */
    std::shared_ptr<const ir::Module>
    moduleFor(const workloads::AppProfile &app,
              const compiler::CompilerOptions &options);

    /** The same cache for a concurrent kernel (buildConcurrentApp). */
    std::shared_ptr<const ir::Module>
    moduleFor(const workloads::ConcurrentProfile &app,
              const compiler::CompilerOptions &options);

    /**
     * Commit-stream cache lookup: record the commit stream of
     * (module, entry), with the cache outcomes of @p config's tag
     * geometry, once, then share it read-only across every design
     * point that simulates the same program on the same geometry
     * (thread-safe, in-flight de-duplicated, LRU-bounded by
     * BatchConfig::streamCacheMb).
     *
     * @param mod the already-resolved module for (app,
     * config.compiler), if the caller holds one; null falls back to
     * moduleFor().
     */
    std::shared_ptr<const core::CommitStream>
    streamFor(const workloads::AppProfile &app,
              const core::SystemConfig &config,
              const std::string &entry, std::uint64_t max_instrs,
              std::shared_ptr<const ir::Module> mod = nullptr);

    /**
     * Shared simulator-checkpoint cache (checkpoint-fork crash
     * sweeps). Thread-safe; the fault campaign's golden pass
     * populates it and every worker's cases fork from it, bounded by
     * BatchConfig::ckptCacheMb.
     */
    core::CheckpointCache &checkpointCache();

    /** Canonical cache identity of @p point (before hashing). */
    static std::string pointKey(const DesignPoint &point);

    /** On-disk path a point's result is stored at. */
    std::string cachePath(const DesignPoint &point) const;

    const BatchConfig &config() const { return config_; }
    std::string cacheDir() const { return cacheDir_; }
    BatchStats stats() const;

    /**
     * Component statistics aggregated over every point this runner
     * actually simulated (workers merge their per-sim registries in
     * thread-safely). Cache hits contribute nothing: their component
     * stats were aggregated when the point was first computed,
     * possibly by another process.
     */
    const StatsRegistry &aggregateStats() const { return aggregate_; }

    /** Export aggregateStats() as hierarchical JSON. */
    void exportAggregateJson(std::ostream &os) const;

    /**
     * Protocol violations collected across all simulated points when
     * BatchConfig::checkInvariants is set; each violation's detail is
     * prefixed with the offending design point's cache key. Capped at
     * a few hundred entries; BatchStats::invariantViolations has the
     * uncapped count.
     */
    std::vector<obs::InvariantViolation> invariantViolations() const;

    /** Drop the in-process caches (the disk cache is untouched). */
    void clearMemoryCaches();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    BatchConfig config_;
    std::string cacheDir_; ///< resolved from config/env
    StatsRegistry aggregate_; ///< merged per-sim stats (mutex inside)

    /** moduleFor() behind @p key: @p build runs once per key. */
    std::shared_ptr<const ir::Module> cachedModule(
        const std::string &key,
        const std::function<std::unique_ptr<ir::Module>()> &build);

    /** run() with the key precomputed and the replay plan decided. */
    core::RunResult runPoint(const DesignPoint &point,
                             const std::string &key, bool replay);
    core::RunResult compute(const DesignPoint &point,
                            const std::string &key, bool replay);
    bool loadFromDisk(const std::string &key,
                      core::RunResult &out) const;
    void storeToDisk(const std::string &key,
                     const core::RunResult &r) const;
    std::string pathForKey(const std::string &key) const;
};

} // namespace cwsp::driver

#endif // CWSP_DRIVER_BATCH_RUNNER_HH
