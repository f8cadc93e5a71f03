/**
 * @file
 * Persistence schemes: the commit-level timing models that couple the
 * interpreter's instruction stream to the memory hierarchy and the
 * persistence hardware. One subclass per evaluated design point:
 * baseline (no persistence), cWSP, Capri, iDO, ReplayCache; the ideal
 * PSP point (BBB/eADR/LightPC) is the baseline scheme on a hierarchy
 * without the DRAM cache.
 */

#ifndef CWSP_ARCH_SCHEME_HH
#define CWSP_ARCH_SCHEME_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/persist_buffer.hh"
#include "arch/region_boundary_table.hh"
#include "interp/commit.hh"
#include "mem/hierarchy.hh"
#include "mem/persist_path.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace cwsp::arch {

/** cWSP feature toggles (the cumulative steps of Fig. 15). */
struct CwspFeatures
{
    bool persistPath = true;   ///< asynchronous store persistence
    bool mcSpeculation = true; ///< undo logging + RBT, no boundary wait
    bool wbDelay = true;       ///< stale-read writeback delay
    bool wpqDelay = true;      ///< WPQ-hit load delay
    /**
     * Prior-work behaviour (Section II-B): stall at every region
     * boundary until all prior stores persist. Off in every cWSP
     * configuration; used by the iDO model and ablations.
     */
    bool stallAtBoundaries = false;
};

/**
 * Counterfactual idealization overrides (the what-if profiler,
 * src/obs/whatif_profiler.hh). Each flag makes one hardware resource
 * "ideal" — its capacity or cost can never bind — while everything
 * else stays real, so the cycle delta against the un-idealized run
 * is the overhead that resource is responsible for. All flags
 * participate in the canonical config serialization: an idealized
 * design point memoizes under its own result-cache key.
 */
struct IdealizeConfig
{
    /**
     * The persist buffer (and Capri's redo buffer) never
     * backpressures store commit; occupancy gauges saturate at the
     * tracking-ring size in this mode.
     */
    bool infinitePb = false;
    /** The RBT never stalls a region boundary on capacity. */
    bool unboundedRbt = false;
    /**
     * Region-boundary commits cost zero cycles: the boundary
     * instruction itself and every scheme-side boundary stall
     * (drains, barriers, RBT waits) vanish. Checkpoint stores and
     * other compiler instrumentation still pay their way.
     */
    bool freeBoundary = false;

    bool
    any() const
    {
        return infinitePb || unboundedRbt || freeBoundary;
    }
};

/**
 * Deterministic interleaving-schedule knobs (the concurrent fault
 * campaign's scheduler, src/core/interleave.hh). When `seed` is
 * nonzero, every `every`-th Atomic commit on a core receives a
 * seed/core/sequence-keyed extra delay of up to `maxDelay` cycles,
 * perturbing which core wins each cross-core CAS race. Because the
 * delay is a pure function of (seed, core, atomic sequence number) it
 * replays bit-identically for any `--jobs`, and the knobs serialize
 * into the canonical config key so each schedule memoizes as its own
 * design point. Zero seed disables the jitter entirely (the legacy
 * bit-identical timing model).
 */
struct InterleaveConfig
{
    std::uint64_t seed = 0;    ///< 0 = disabled
    std::uint32_t every = 1;   ///< jitter every N-th atomic commit
    std::uint32_t maxDelay = 64; ///< max extra cycles per jitter
};

/** Configuration shared by all schemes. */
struct SchemeConfig
{
    std::string name = "baseline";
    mem::PersistPathConfig path;
    std::uint32_t pbCapacity = 50;
    std::uint32_t rbtCapacity = 16;
    CwspFeatures features;
    IdealizeConfig ideal;

    /**
     * Fraction of beyond-L1 load latency the out-of-order core fails
     * to hide (1.0 = fully serialized, 0 = perfectly overlapped).
     * Models gem5-O3-style memory-level parallelism at commit level.
     */
    double loadLatencyFactor = 0.5;

    /**
     * The scheme's persist structures are battery-backed (Capri,
     * Section II-C): on power failure the residual energy flushes
     * every committed store and the execution context, so a crash
     * loses nothing — recovery is an exact continuation after reboot,
     * never an undo replay or a region re-execution.
     */
    bool batteryBacked = false;

    /** Capri: redo-buffer capacity in cachelines (18 KB / 64 B). */
    std::uint32_t capriRedoLines = 288;
    /** ReplayCache: memory-level parallelism of the replay writes. */
    std::uint32_t replayMlp = 8;

    /** Deterministic cross-core interleaving jitter (0 = off). */
    InterleaveConfig interleave;

    /**
     * Seeded ordering bug for checker validation: CAS commits skip
     * the AtomicPrepare persist entirely (no WPQ admission, no undo
     * log, no durability record), so a CAS becomes architecturally
     * visible without ever being durable — the exact
     * visible-implies-durable violation the durable-linearizability
     * checker exists to catch. Never set outside tests.
     */
    bool bugCasSkipPersist = false;
};

/** One durable store, for the crash/recovery machinery. */
struct StoreRecord
{
    Addr addr = 0;        ///< word address
    Word value = 0;
    Tick persistTime = 0; ///< WPQ admission (durability instant)
    /**
     * MC acknowledgement time: the instant the RBT's PendingWrs
     * decrements. The recovery protocol's notion of "region
     * persisted" (resume selection, log reclamation) follows acks,
     * while raw durability follows WPQ admission.
     */
    Tick ackTime = 0;
    RegionId region = 0;
    CoreId core = 0;
    McId mc = 0;
    bool logged = false;  ///< undo-logged at the MC (speculative)
    /**
     * Checkpoint/argument-spill store. Checkpoint stores are always
     * undo-logged and their logs are reclaimed only when their region
     * is persisted (not merely non-speculative), so the oldest
     * unpersisted region can never observe a clobbered checkpoint
     * slot during recovery.
     */
    bool isCkpt = false;
    /**
     * Atomic read-modify-write. Atomics are not idempotent, so the
     * MC persists an atomic's region failure-atomically (an extension
     * of the Section V-B2 failure-atomic undo-log+write unit): once
     * the atomic reaches the WPQ, its whole region counts as
     * persisted and is never re-executed.
     */
    bool isAtomic = false;
};

/** One buffered irrevocable device operation (Section VIII). */
struct IoRecord
{
    std::uint64_t device = 0;
    Word payload = 0;
    RegionId region = 0;
    CoreId core = 0;
};

/** A dynamic region-begin event, for snapshot bookkeeping. */
struct RegionEvent
{
    RegionId region = 0;
    CoreId core = 0;
    Tick begin = 0;
    Tick specEnd = 0; ///< when the region becomes non-speculative
    ir::FuncId func = ir::kNoFunc;
    ir::StaticRegionId staticRegion = ir::kNoStaticRegion;
    /** Core's committed-instruction count at region entry. */
    std::uint64_t instrsAtBegin = 0;
};

/** Base class: owns per-core cycle accounting and common stats. */
class Scheme : public interp::CommitSink
{
  public:
    Scheme(const SchemeConfig &config, mem::Hierarchy &hierarchy,
           std::uint32_t num_cores);
    ~Scheme() override = default;

    void onCommit(const interp::CommitInfo &info) final;

    const SchemeConfig &config() const { return config_; }
    mem::Hierarchy &hierarchy() { return *hierarchy_; }

    /** Current cycle of @p core. */
    Tick cycles(CoreId core) const { return cores_[core].cycle; }
    /** Committed instructions on @p core. */
    std::uint64_t instrs(CoreId core) const
    {
        return cores_[core].instrs;
    }

    /** Dynamic region currently executing on @p core. */
    RegionId currentRegion(CoreId core) const
    {
        return cores_[core].rbt.currentRegion();
    }

    /**
     * Retire @p count constant-cost commits (Alu/Branch/bare CallRet)
     * on @p core in one arithmetic step: these kinds touch no scheme
     * state beyond the instruction counter and the core clock, so
     * commit-stream replay and interpreted runs (runs of register-only
     * instructions, see interp::Interpreter::runBatch) batch them
     * instead of dispatching each through onCommit(). @p cycle_sum
     * must be the exact total cost (1 per Alu/Branch, 2 per CallRet).
     */
    void
    retireBatch(CoreId core, std::uint64_t count, Tick cycle_sum)
    {
        CoreState &cs = cores_[core];
        cs.instrs += count;
        cs.cycle += cycle_sum;
        // Batched kinds never change gauge state, so noticing a
        // crossed sample boundary here records the same values a
        // per-commit dispatch would have.
        if (sampler_)
            sampler_->maybeSample(cs.cycle);
    }

    /** Mean dynamic instructions per region across all cores. */
    double meanRegionInstrs() const;

    /** Dynamic instructions per region, sampled at every boundary. */
    const Histogram &regionInstrHistogram() const
    {
        return regionInstrHist_;
    }
    /** PB back-pressure stall per persist-path round (cycles). */
    const Histogram &pbStallHistogram() const { return pbStallHist_; }

    /**
     * Persisted stores recorded when recording is enabled.
     *
     * @param expected_instrs instruction-budget estimate of the run;
     * when nonzero the recording vectors are reserve()d up front
     * (capped) so multi-million-store runs don't pay repeated
     * reallocation+copy of the logs mid-recording.
     */
    void enableRecording(std::vector<StoreRecord> *stores,
                         std::vector<RegionEvent> *regions,
                         std::vector<IoRecord> *io = nullptr,
                         std::uint64_t expected_instrs = 0);

    /**
     * Leading records of the store log this scheme will not change
     * again. Every scheme stamps a record as it pushes it, except
     * ReplayCache, which stamps a region's stores at the region's next
     * boundary: its settled records end at the oldest one waiting.
     */
    virtual std::size_t
    settledStores() const
    {
        return storeLog_ ? storeLog_->size() : 0;
    }

    std::uint64_t pbFullStalls() const;
    std::uint64_t rbtFullStalls() const;

    /**
     * Attach a trace sink; propagates to every core's persist buffer,
     * RBT, and persist path. Subclasses with private persist
     * machinery (Capri's redo buffers) extend the propagation.
     */
    virtual void setTrace(sim::TraceBuffer *trace);

    /**
     * Attach a counter sampler to the commit hot path (null
     * detaches). Probe binding stays with the caller — the scheme
     * only drives the cadence from its core clocks.
     */
    void setSampler(sim::CounterSampler *sampler)
    {
        sampler_ = sampler;
    }

    // Read-only component access for telemetry gauge probes.
    const PersistBuffer &pb(CoreId core) const
    {
        return cores_[core].pb;
    }
    const RegionBoundaryTable &rbt(CoreId core) const
    {
        return cores_[core].rbt;
    }
    const mem::PersistPath &path(CoreId core) const
    {
        return cores_[core].path;
    }

    /**
     * Checkpointing: every core's clocks, counters, and persist
     * machinery (PB, RBT, persist path, line-persist map), the shared
     * region-id counter, and the region/PB-stall histograms.
     * Subclasses append their private persist state through
     * captureExtraState(). The recording-log pointers and the trace
     * sink are deliberately NOT part of the state — the forking
     * caller re-attaches its own. Restore requires a scheme built
     * with the same config and core count.
     */
    void captureState(sim::StateWriter &w) const;
    void restoreState(sim::StateReader &r);

  protected:
    /** Subclass-private persist state (Capri redo, ReplayCache). */
    virtual void captureExtraState(sim::StateWriter &w) const
    {
        (void)w;
    }
    virtual void restoreExtraState(sim::StateReader &r) { (void)r; }

    sim::TraceBuffer *trace_ = nullptr;
    sim::CounterSampler *sampler_ = nullptr;
    struct CoreState
    {
        Tick cycle = 0;
        std::uint64_t instrs = 0;
        std::uint64_t stores = 0;
        std::uint64_t boundaries = 0;
        std::uint64_t regionInstrSum = 0;
        std::uint64_t regionStartInstr = 0;
        std::uint64_t storesInRegion = 0;
        Tick lastAckMax = 0; ///< max MC ack over all persists issued
        /** Cause classification of the persist that set lastAckMax. */
        sim::StallCause lastAckCause = sim::StallCause::PbFull;
        /** Atomic commits retired (drives interleave jitter). */
        std::uint64_t atomicSeq = 0;

        /** Timing computed at AtomicPrepare, consumed at Atomic. */
        struct PendingAtomic
        {
            bool valid = false;
            Tick admit = 0;
            Tick ack = 0;
            bool logged = false;
            McId mc = 0;
        } pendingAtomic;
        PersistBuffer pb;
        RegionBoundaryTable rbt;
        mem::PersistPath path;
        /** line addr -> latest persist (admit) time of its stores. */
        sim::FlatMap64 linePersist;
        std::uint64_t linePersistOps = 0;

        CoreState(const SchemeConfig &cfg, CoreId core,
                  std::uint32_t num_mcs);
    };

    SchemeConfig config_;
    mem::Hierarchy *hierarchy_;
    std::vector<CoreState> cores_;
    RegionId nextRegionId_ = 1; ///< shared hardware counter (Fig. 9)
    std::vector<StoreRecord> *storeLog_ = nullptr;
    std::vector<RegionEvent> *regionLog_ = nullptr;
    std::vector<IoRecord> *ioLog_ = nullptr;
    Histogram regionInstrHist_{8, 64};
    Histogram pbStallHist_{4, 64};
    CoreId hookCore_ = ~CoreId{0}; ///< core whose access is in flight

    // ---- subclass hooks; each returns extra cycles to charge ------

    /** A store (or checkpoint) committed; @p now is post-cache time. */
    virtual Tick onStore(CoreId core, const interp::CommitInfo &info,
                         Tick now) = 0;
    /** A region boundary committed. */
    virtual Tick onBoundary(CoreId core,
                            const interp::CommitInfo &info,
                            Tick now) = 0;
    /** A fence committed (atomics use onAtomicPrepare instead). */
    virtual Tick onSync(CoreId core, Tick now) = 0;

    /**
     * Pre-execution phase of an atomic (Section VIII): reserve the
     * persist machinery for the atomic's address and stall until the
     * atomic and everything before it is acknowledged. Default: no
     * persistence, no stall.
     */
    virtual Tick
    onAtomicPrepare(CoreId core, const interp::CommitInfo &info,
                    Tick now)
    {
        (void)core;
        (void)info;
        (void)now;
        return 0;
    }

    // ---- shared helpers for persist-path schemes -------------------

    /** Outcome of one persist-path round (no record emission). */
    struct PersistOutcome
    {
        Tick stall = 0; ///< PB back-pressure on the core
        Tick admit = 0; ///< WPQ admission (durability)
        Tick ack = 0;   ///< MC acknowledgement
        bool logged = false;
        McId mc = 0;
        /** Dominant reason the entry's ack is as late as it is. */
        sim::StallCause cause = sim::StallCause::PbFull;
    };

    /**
     * Charge one persist round's lateness to a single cause: WPQ
     * admission wait dominates (undo-log amplified when @p logged),
     * else persist-path link queueing, else only PB capacity itself
     * could have been binding.
     */
    static sim::StallCause
    classifyPersistCause(Tick path_wait, Tick wpq_wait, bool logged)
    {
        if (wpq_wait > 0 && wpq_wait >= path_wait) {
            return logged ? sim::StallCause::McUndoLog
                          : sim::StallCause::WpqFull;
        }
        if (path_wait > 0)
            return sim::StallCause::PathBandwidth;
        return sim::StallCause::PbFull;
    }

    /**
     * Run one @p bytes-sized entry for @p addr through PB → persist
     * path → WPQ on behalf of @p core's current region, updating the
     * RBT, the line-persist map, and lastAckMax.
     */
    PersistOutcome persistEntry(CoreId core, Addr addr, Tick now,
                                std::uint32_t bytes,
                                bool speculation_enabled,
                                bool is_checkpoint = false);

    /**
     * persistEntry plus a store-record emission (plain stores and
     * checkpoints).
     *
     * @return core stall cycles (PB back-pressure).
     */
    Tick persistThroughPath(CoreId core, const interp::CommitInfo &info,
                            Tick now, std::uint32_t bytes,
                            bool speculation_enabled);

    /** Stall until every issued persist has been acknowledged. */
    Tick drainPersists(CoreId core, Tick now) const;

    /** Begin a new dynamic region on @p core; returns stall cycles. */
    Tick beginRegion(CoreId core, const interp::CommitInfo &info,
                     Tick now, bool use_rbt_capacity);

    /**
     * Record a SchemeDrain stall event of @p stall cycles on @p core,
     * attributed to the cause of the last acknowledged persist (a
     * drain waits on outstanding acks, so a latency-bound last ack is
     * charged to the persist path, never to PB capacity).
     */
    void traceDrain(CoreId core, Tick now, Tick stall);

    /** Persist-time hook for the write-buffer stale-read delay. */
    Tick linePersistReady(CoreId core, Addr line) const;
};

/** Build the scheme named by @p config (see scheme_*.cc). */
std::unique_ptr<Scheme> makeScheme(const SchemeConfig &config,
                                   mem::Hierarchy &hierarchy,
                                   std::uint32_t num_cores);

// Per-scheme factories (defined in the scheme_*.cc files).
std::unique_ptr<Scheme> makeBaselineScheme(const SchemeConfig &,
                                           mem::Hierarchy &,
                                           std::uint32_t num_cores);
std::unique_ptr<Scheme> makeCwspScheme(const SchemeConfig &,
                                       mem::Hierarchy &,
                                       std::uint32_t num_cores);
std::unique_ptr<Scheme> makeCapriScheme(const SchemeConfig &,
                                        mem::Hierarchy &,
                                        std::uint32_t num_cores);
std::unique_ptr<Scheme> makeIdoScheme(const SchemeConfig &,
                                      mem::Hierarchy &,
                                      std::uint32_t num_cores);
std::unique_ptr<Scheme> makeReplayCacheScheme(const SchemeConfig &,
                                              mem::Hierarchy &,
                                              std::uint32_t num_cores);
std::unique_ptr<Scheme> makeIdealPspScheme(const SchemeConfig &,
                                           mem::Hierarchy &,
                                           std::uint32_t num_cores);

} // namespace cwsp::arch

#endif // CWSP_ARCH_SCHEME_HH
