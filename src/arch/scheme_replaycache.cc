/**
 * @file
 * ReplayCache model (Section IX-A): a software-oriented WSP scheme
 * originally built for energy-harvesting systems and adapted by the
 * paper to the server-class processor, where it slows programs down
 * by ~4x. At each region boundary the scheme replays the region's
 * stores to NVM through the regular memory path and waits for them —
 * there is no hardware persist path, so every replayed store pays
 * media write latency, overlapped only by a modest memory-level
 * parallelism factor.
 */

#include "arch/scheme.hh"

#include <algorithm>

namespace cwsp::arch {

namespace {

class ReplayCacheScheme final : public Scheme
{
  public:
    ReplayCacheScheme(const SchemeConfig &config,
                      mem::Hierarchy &hierarchy,
                      std::uint32_t num_cores)
        : Scheme(config, hierarchy, num_cores),
          pendingRecords_(num_cores)
    {
    }

    std::size_t
    settledStores() const override
    {
        // Each core's pending indices ascend.
        std::size_t settled = Scheme::settledStores();
        for (const auto &pending : pendingRecords_) {
            if (!pending.empty())
                settled = std::min(settled, pending.front());
        }
        return settled;
    }

  protected:
    void
    captureExtraState(sim::StateWriter &w) const override
    {
        // Indexes into the recording's store log. A checkpoint holds
        // the records they name as the capture instant saw them
        // (SimCheckpoint::storeTail); a fork restores the indices but
        // records nothing, so they name nothing it reads.
        for (const auto &pending : pendingRecords_) {
            w.pod<std::uint64_t>(pending.size());
            for (std::size_t idx : pending)
                w.pod<std::uint64_t>(idx);
        }
    }

    void
    restoreExtraState(sim::StateReader &r) override
    {
        for (auto &pending : pendingRecords_) {
            pending.resize(
                static_cast<std::size_t>(r.pod<std::uint64_t>()));
            for (std::size_t &idx : pending)
                idx = static_cast<std::size_t>(r.pod<std::uint64_t>());
        }
    }

    Tick
    onStore(CoreId core, const interp::CommitInfo &info,
            Tick) override
    {
        // Stores wait in a volatile replay buffer; durability happens
        // at the boundary replay. Record now, stamp the persist time
        // when the replay runs.
        if (storeLog_) {
            storeLog_->push_back(StoreRecord{
                wordAlign(info.addr), info.storeValue, kTickNever,
                kTickNever, cores_[core].rbt.currentRegion(), core,
                hierarchy_->mcFor(info.addr), false,
                info.isCheckpoint,
                info.kind == interp::CommitKind::Atomic});
            pendingRecords_[core].push_back(storeLog_->size() - 1);
        }
        return 0;
    }

    Tick
    onBoundary(CoreId core, const interp::CommitInfo &info,
               Tick now) override
    {
        CoreState &cs = cores_[core];
        std::uint64_t stores = cs.storesInRegion;

        Tick stall = 0;
        if (stores > 0) {
            std::uint32_t wlat =
                hierarchy_->config().tech.totalWriteCycles();
            std::uint32_t mlp = std::max(1u, config_.replayMlp);
            // Trailing barrier plus MLP-overlapped replay writes.
            stall = wlat + (stores * wlat) / mlp;
            if (trace_) {
                // The replay serializes on media write bandwidth.
                trace_->record(
                    sim::TraceEventKind::SchemeDrain,
                    sim::coreLane(core), now, stall, stores,
                    static_cast<std::uint64_t>(
                        sim::StallCause::PathBandwidth));
            }
        }
        if (storeLog_) {
            for (std::size_t idx : pendingRecords_[core]) {
                (*storeLog_)[idx].persistTime = now + stall;
                (*storeLog_)[idx].ackTime = now + stall;
            }
            pendingRecords_[core].clear();
        }
        if (now + stall >= cs.lastAckMax) {
            cs.lastAckMax = now + stall;
            cs.lastAckCause = sim::StallCause::PathBandwidth;
        }
        stall += beginRegion(core, info, now + stall, false);
        return stall;
    }

    Tick
    onSync(CoreId core, Tick now) override
    {
        Tick stall = drainPersists(core, now);
        traceDrain(core, now, stall);
        return stall;
    }

    Tick
    onAtomicPrepare(CoreId core, const interp::CommitInfo &,
                    Tick now) override
    {
        // The software scheme replays and waits before the atomic
        // becomes visible.
        Tick stall = drainPersists(core, now);
        traceDrain(core, now, stall);
        return stall;
    }

  private:
    std::vector<std::vector<std::size_t>> pendingRecords_;
};

} // namespace

std::unique_ptr<Scheme>
makeReplayCacheScheme(const SchemeConfig &config,
                      mem::Hierarchy &hierarchy,
                      std::uint32_t num_cores)
{
    return std::make_unique<ReplayCacheScheme>(config, hierarchy,
                                               num_cores);
}

} // namespace cwsp::arch
