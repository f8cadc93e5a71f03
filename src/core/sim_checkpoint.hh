/**
 * @file
 * Simulator checkpoints for checkpoint-fork crash sweeps. A
 * SimCheckpoint captures the complete hot state of a WholeSystemSim
 * at one crash instant of the golden (uninterrupted) run: machine
 * identity, the recording up to that instant, the scheme and
 * hierarchy component state as one flat byte blob, the trace-ring
 * window, and — for battery-backed schemes — the exact memory image
 * and per-core control snapshots. A crash case *forks* from its
 * checkpoint: runWithCrashes() restores the capture-instant state
 * onto a freshly reset component tree and simulates only the crash,
 * the recovery, and the post-resume tail, instead of re-executing the
 * whole pre-crash prefix. Results are bit-identical to from-scratch
 * execution (pinned by tests/test_ckpt_equiv.cc).
 *
 * The checkpoints of one capture pass share that pass's recording
 * log: each holds the log, the length of the prefix its capture
 * instant saw, and its own copy of the boundary-snapshot window,
 * instead of a copy of the prefix.
 *
 * CheckpointCache is the sharing layer: a thread-safe, byte-capped
 * LRU map from sweep keys to immutable checkpoints, shared read-only
 * across BatchRunner workers. It charges a shared log once, while
 * any resident checkpoint reads it. When the CWSP_CKPT_CACHE_MB cap
 * evicts an entry, the affected case falls back to from-scratch
 * execution — slower, never wrong.
 */

#ifndef CWSP_CORE_SIM_CHECKPOINT_HH
#define CWSP_CORE_SIM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "interp/machine_state.hh"

namespace cwsp::core {

/** Where execution stands at a stop instant, per core: what crash
 *  handling reads, however the run got there. */
struct ExecPosition
{
    std::uint64_t steps = 0; ///< instruction budget consumed
    std::vector<Tick> finishedAt; ///< kTickNever while running
    std::vector<Word> coreReturns;
    std::vector<std::uint8_t> coreFinished;
    /** Running cores' exact control state (battery-backed only). */
    std::vector<interp::ControlSnapshot> exactSnaps;
};

/** Full hot state of a simulation at one pre-crash instant. */
struct SimCheckpoint
{
    // ---- Identity: a fork is only legal onto a sim with the same
    // program, configuration (systemConfigKey), thread set, and crash
    // tick; runWithCrashes() falls back to from-scratch execution on
    // any mismatch.
    const ir::Module *module = nullptr;
    std::string configKey;
    std::vector<ThreadSpec> threads;
    Tick crashTick = 0;

    /** Execution position at the capture instant. */
    ExecPosition position;

    // ---- The recording at the capture instant, read through
    // recording(). The capture pass's log is shared read-only by all
    // its checkpoints and their forks; this checkpoint reads the
    // first sharedStores stores of it, then its own storeTail, and
    // the first `regions` region events and `io` device ops. Resume
    // points built by a fork's crash handling index into it.
    std::shared_ptr<const RecordingLog> log;
    /** Leading stores the scheme had settled: no later record of the
     *  pass changes them. */
    std::size_t sharedStores = 0;
    std::size_t regions = 0;
    std::size_t io = 0;
    /**
     * The stores after the settled ones, as the capture instant saw
     * them. Only ReplayCache leaves any: it stamps a region's stores
     * when the region's next boundary replays them, after the capture.
     */
    std::vector<arch::StoreRecord> storeTail;
    /** The boundary-snapshot window at the capture instant (the pass
     *  erases old entries as it goes on, so it is a copy). */
    SnapshotMap snapshots;

    /** The recording as a view into log, storeTail and snapshots. */
    RecordingView recording() const;

    /**
     * Scheme + hierarchy component state (positional protocol of
     * sim/state_capture.hh): scheme core clocks, PB/RBT rings,
     * persist paths, line-persist maps, scheme extras (Capri redo
     * buffers, ReplayCache pending records), cache SoA slabs, write
     * buffers, MC slot/media rings and WPQ occupancy, and every
     * component statistic.
     *
     * A checkpoint captured while a stream replays its recorded cache
     * outcomes holds no cache tags (empty slab arrays, same format):
     * the replay never walked them. A fork never needs them: it
     * restores at this checkpoint's own crash tick, the crash empties
     * every cache, and the next epoch starts on freshly reset ones.
     */
    std::vector<std::uint8_t> componentBytes;

    // ---- Trace ring window (captured only when a trace buffer was
    // attached during the golden run). A fork with an attached trace
    // requires matching geometry, else it falls back.
    bool hasTrace = false;
    std::uint64_t traceCapacity = 0;
    std::uint32_t traceMask = 0;
    std::vector<std::uint8_t> traceBytes;

    // ---- Counter-sampler series (captured only when a sampler was
    // attached during the golden run). A fork with an attached
    // sampler requires matching geometry (period, track count), else
    // it falls back.
    bool hasSampler = false;
    Tick samplerPeriod = 0;
    std::uint64_t samplerTracks = 0;
    std::vector<std::uint8_t> samplerBytes;

    // ---- Battery-backed schemes (Capri): the crash handler reads
    // the live memory image and snapshots the execution context
    // (position.exactSnaps), so both are part of the checkpoint.
    // Null/empty otherwise (the non-battery crash path reconstructs
    // durable state from the recording alone).
    std::unique_ptr<interp::SparseMemory> memory;

    /** Resident size estimate of this checkpoint's own state, for
     *  the cache byte cap; the shared log is not counted (the cache
     *  charges it once, log->bytes()). */
    std::size_t bytes() const;
};

/** Why crash cases that offered a checkpoint ran from scratch. */
struct FallbackCauses
{
    /** No checkpoint under the case's key: evicted, or never
     *  captured. */
    std::uint64_t missing = 0;
    /** Checkpoints found but refused, by reason. */
    RefusalCounts refused;

    /** Visit ("missing", n), then every refusal reason as
     *  RefusalCounts::forEach does: a fixed order and key set. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        f("missing", missing);
        refused.forEach(f);
    }

    /** The nonzero causes, "42 missing, 3 config"; "none" if none. */
    std::string describe() const { return describeCounts(*this); }
};

/**
 * Thread-safe byte-capped LRU cache of immutable checkpoints, keyed
 * by a caller-composed sweep key (app|scheme|config|tick). Eviction
 * is least-recently-used; a miss after eviction is reported as a
 * fallback by the caller (noteFallback) so sweeps surface when the
 * byte cap degrades them. The resident bytes are every entry's own
 * bytes() plus each shared log once, charged while any entry reads it.
 */
class CheckpointCache
{
  public:
    /** @param max_bytes 0 = CWSP_CKPT_CACHE_MB env or 256 MB. */
    explicit CheckpointCache(std::size_t max_bytes = 0);

    /** Byte cap from CWSP_CKPT_CACHE_MB (256 MB default). */
    static std::size_t defaultCapBytes();

    std::size_t capBytes() const { return capBytes_; }

    /**
     * Insert (or replace) @p ckpt under @p key, then evict LRU
     * entries until the resident bytes fit the cap. A checkpoint
     * larger than the whole cap, its log included unless already
     * charged, is never resident (counts as an immediate eviction).
     */
    void insert(const std::string &key,
                std::shared_ptr<const SimCheckpoint> ckpt);

    /**
     * Fetch @p key, refreshing its LRU position. Null on miss — the
     * caller falls back to from-scratch execution and should call
     * noteFallback().
     */
    std::shared_ptr<const SimCheckpoint> get(const std::string &key);

    /** Drop everything (stats survive). */
    void clear();

    /** One successful fork from a cached checkpoint. */
    void noteFork();
    /** One case that ran from scratch: the simulator refused its
     *  checkpoint for @p why, or (None) there was none to offer. */
    void noteFallback(SourceRefusal why = SourceRefusal::None);

    struct Stats
    {
        std::uint64_t captures = 0;  ///< checkpoints inserted
        std::uint64_t forks = 0;     ///< cases forked from a hit
        std::uint64_t evictions = 0; ///< entries dropped by the cap
        std::uint64_t fallbacks = 0; ///< cases run from scratch
        FallbackCauses fallbackCauses; ///< fallbacks, split by cause
        std::size_t bytesResident = 0;
        /** The shared logs' share of bytesResident. */
        std::size_t logBytesResident = 0;
        std::size_t entries = 0;
    };
    Stats stats() const;

    /**
     * Report cache behaviour into @p reg as counters under
     * @p prefix (ckpt.captures, ckpt.forks, ckpt.evictions,
     * ckpt.fallbacks, ckpt.fallback_causes.<cause>,
     * ckpt.bytesResident, ckpt.logBytesResident).
     */
    void fillStats(StatsRegistry &reg,
                   const std::string &prefix = "") const;

  private:
    struct Entry
    {
        std::shared_ptr<const SimCheckpoint> ckpt;
        std::size_t bytes = 0; ///< the checkpoint's own
        std::list<std::string>::iterator lruIt;
    };
    /** One shared log's charge: the entries reading it, its bytes. */
    struct LogCharge
    {
        std::size_t readers = 0;
        std::size_t bytes = 0;
    };

    void evictToFitLocked();
    /** Drop @p it, and its log's charge with the log's last reader. */
    void eraseLocked(std::map<std::string, Entry>::iterator it);

    mutable std::mutex mu_;
    std::size_t capBytes_;
    std::size_t residentBytes_ = 0; ///< logs included
    std::size_t logBytes_ = 0;
    /** MRU-first recency list; entries point into it. */
    std::list<std::string> lru_;
    std::map<std::string, Entry> entries_;
    std::map<const RecordingLog *, LogCharge> logs_;
    Stats stats_;
};

} // namespace cwsp::core

#endif // CWSP_CORE_SIM_CHECKPOINT_HH
