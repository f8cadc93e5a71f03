#include "core/crash_injection.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <utility>

#include "mem/undo_log.hh"
#include "sim/logging.hh"

namespace cwsp::core {

CrashState
computeCrashState(Tick crash_tick, StoreLogView stores,
                  std::span<const arch::RegionEvent> regions,
                  std::uint32_t num_cores,
                  const std::vector<Tick> &program_finished_at,
                  std::span<const arch::IoRecord> io,
                  sim::TraceBuffer *trace)
{
    CrashComputeOptions opts;
    opts.trace = trace;
    return computeCrashState(crash_tick, stores, regions, num_cores,
                             program_finished_at, io, std::move(opts));
}

bool
undoReplayConverges(const interp::SparseMemory &durable,
                    const std::vector<ReplayStep> &steps, std::size_t k)
{
    // The replayed addresses' words of the image the second pass
    // runs over, read from durable on first touch.
    std::unordered_map<Addr, Word> partial;
    auto word = [&](Addr addr) -> Word & {
        auto [it, fresh] = partial.try_emplace(addr);
        if (fresh)
            it->second = durable.read(addr);
        return it->second;
    };
    for (std::size_t i = steps.size(); i-- > k;)
        word(steps[i].addr) = steps[i].before;
    for (const ReplayStep &st : steps)
        word(st.addr) = st.after;
    for (const auto &[addr, value] : partial) {
        if (value != durable.read(addr))
            return false;
    }
    return true;
}

CrashState
computeCrashState(Tick crash_tick, StoreLogView stores,
                  std::span<const arch::RegionEvent> regions,
                  std::uint32_t num_cores,
                  const std::vector<Tick> &program_finished_at,
                  std::span<const arch::IoRecord> io,
                  CrashComputeOptions opts)
{
    CrashState state;
    state.resume.resize(num_cores);
    state.nvm = std::move(opts.baseNvm);
    sim::TraceBuffer *trace = opts.trace;
    fault::FaultStats *stats = opts.stats;
    auto core_done = [&opts](std::uint32_t c) {
        return c < opts.coreDone.size() && opts.coreDone[c];
    };
    auto core_resumed = [&opts](std::uint32_t c) {
        return c < opts.coreResumed.size() && opts.coreResumed[c];
    };

    if (trace)
        trace->record(sim::TraceEventKind::CrashInject, 0, crash_tick);

    // Dynamic region ids are assigned from a per-epoch sequential
    // counter, so the id space of one recording is dense: flat
    // vectors replace tree maps on every per-store path (this
    // function runs once per crash case over the whole persist log).
    RegionId maxRegion = 0;
    std::uint32_t maxCore = num_cores;
    for (const auto &ev : regions)
        maxRegion = std::max(maxRegion, ev.region);
    bool anyAtomic = false;
    for (const auto &s : stores) {
        maxRegion = std::max(maxRegion, s.region);
        maxCore = std::max(maxCore,
                           static_cast<std::uint32_t>(s.core) + 1);
        anyAtomic |= s.isAtomic && s.persistTime <= crash_tick;
    }
    cwsp_assert(maxRegion <= regions.size() + stores.size() + 1024,
                "region id space is not dense");
    const std::size_t nR = static_cast<std::size_t>(maxRegion) + 1;

    // Region metadata: begin events per core in program order (only
    // those that actually happened before the crash).
    std::vector<const arch::RegionEvent *> byId(nR, nullptr);
    std::vector<std::vector<const arch::RegionEvent *>> perCore(
        num_cores);
    for (const auto &ev : regions) {
        byId[ev.region] = &ev;
        if (ev.begin <= crash_tick)
            perCore[ev.core].push_back(&ev);
    }

    // Atomic regions persist failure-atomically (StoreRecord::
    // isAtomic): once the atomic reaches the WPQ, the whole region —
    // including its transition checkpoints — counts as durable and
    // complete; it is never re-executed. Realize this by clamping the
    // region's record timestamps to the atomic's admission and
    // remembering the region as force-complete.
    //
    // The records are only materialized (copied) when an adjustment
    // can actually happen — an admitted atomic, or a torn-append
    // fault bound to this failure; the common case reads `stores`
    // in place.
    bool tornRequested = false;
    if (opts.faults) {
        for (const auto &f :
             opts.faults->faultsFor(opts.crashIndex)) {
            tornRequested |= f.kind == fault::FaultKind::TornAppend;
        }
    }
    std::vector<arch::StoreRecord> adjustedStorage;
    if (anyAtomic || tornRequested)
        adjustedStorage = stores.copy();
    std::vector<arch::StoreRecord> &adjusted = adjustedStorage;
    const StoreLogView stores_adj =
        adjustedStorage.empty() ? stores : StoreLogView(adjustedStorage);
    std::vector<std::uint8_t> atomicDone;
    if (anyAtomic) {
        atomicDone.assign(maxCore * nR, 0);
        std::vector<Tick> atomicAdmit(maxCore * nR, kTickNever);
        for (const auto &s : adjusted) {
            if (s.isAtomic && s.persistTime <= crash_tick)
                atomicAdmit[s.core * nR + s.region] = s.persistTime;
        }
        for (auto &s : adjusted) {
            Tick at = atomicAdmit[s.core * nR + s.region];
            if (at == kTickNever)
                continue;
            s.persistTime = std::min(s.persistTime, at);
            s.ackTime = std::min(s.ackTime, at);
        }
        for (std::size_t i = 0; i < atomicAdmit.size(); ++i) {
            if (atomicAdmit[i] != kTickNever)
                atomicDone[i] = 1;
        }
    }
    auto atomic_done = [&](std::uint32_t c, RegionId r) {
        return !atomicDone.empty() && atomicDone[c * nR + r] != 0;
    };

    // Per-(core, region) max *acknowledgement* time: the protocol's
    // notion of region persistence (RBT PendingWrs) follows MC acks,
    // not raw WPQ admission — resume selection and log reclamation
    // must use the same clock the hardware does.
    //
    // Per-region departure ("persisted") time: the cascade maximum
    // over the core's region sequence; the region still open at the
    // crash never departs. Checkpoint-store undo logs live until this
    // instant (see StoreRecord::isCkpt). Recomputable because a torn
    // in-flight append retroactively removes its store from the
    // admitted prefix.
    std::vector<Tick> maxAck(maxCore * nR, 0);
    std::vector<Tick> freeTime(nR, kTickNever);
    std::vector<Tick> freeTime0(num_cores, kTickNever);
    auto max_ack_of = [&](std::uint32_t c, RegionId r) {
        return maxAck[c * nR + r];
    };
    auto recompute_timing = [&]() {
        maxAck.assign(maxCore * nR, 0);
        freeTime.assign(nR, kTickNever);
        freeTime0.assign(num_cores, kTickNever);
        for (const auto &s : stores_adj) {
            // A record that never reached the WPQ — a torn in-flight
            // append, or a replay-at-boundary store whose replay
            // never ran (ReplayCache) — pins its region unpersisted:
            // ack = kTickNever dominates the max, so the region
            // re-executes even when the core already finished and the
            // region otherwise looks complete.
            Tick &mp = maxAck[s.core * nR + s.region];
            mp = std::max(mp, s.ackTime);
        }
        for (std::uint32_t c = 0; c < num_cores; ++c) {
            Tick cascade = max_ack_of(c, 0); // pre-main spills
            if (!perCore[c].empty())
                freeTime0[c] = cascade; // departs once region 1 begins
            const auto &evs = perCore[c];
            for (std::size_t i = 0; i < evs.size(); ++i) {
                const auto *ev = evs[i];
                bool complete =
                    (i + 1 < evs.size()) ||
                    program_finished_at[c] <= crash_tick ||
                    atomic_done(c, ev->region);
                cascade = std::max(cascade,
                                   max_ack_of(c, ev->region));
                freeTime[ev->region] =
                    complete ? cascade : kTickNever;
                if (!complete)
                    cascade = kTickNever;
            }
        }
    };
    recompute_timing();

    auto log_live_at_crash = [&](const arch::StoreRecord &s) {
        if (!s.logged)
            return false;
        if (s.isCkpt) {
            if (s.region == 0) {
                return s.core >= num_cores ||
                       freeTime0[s.core] > crash_tick;
            }
            return freeTime[s.region] > crash_tick;
        }
        const arch::RegionEvent *ev = byId[s.region];
        return ev != nullptr && ev->specEnd > crash_tick;
    };

    // Torn-append fault: the failure cut the newest in-flight
    // multi-word log append between words. Log-before-accept ordering
    // means the guarded store had not yet been admitted to the WPQ,
    // so it retroactively leaves the persisted prefix (its region
    // stays unpersisted and re-executes); the half-written record
    // stays in the log area with a garbled payload.
    constexpr std::size_t kNoTorn = ~std::size_t{0};
    std::size_t tornIdx = kNoTorn;
    if (tornRequested) {
        for (const auto &f :
             opts.faults->faultsFor(opts.crashIndex)) {
            if (f.kind != fault::FaultKind::TornAppend)
                continue;
            if (stats)
                ++stats->faultsRequested;
            if (tornIdx != kNoTorn)
                continue; // one in-flight append per failure
            for (std::size_t i = adjusted.size(); i-- > 0;) {
                const auto &s = adjusted[i];
                if (s.persistTime <= crash_tick &&
                    log_live_at_crash(s)) {
                    tornIdx = i;
                    break;
                }
            }
            if (tornIdx != kNoTorn) {
                adjusted[tornIdx].persistTime = kTickNever;
                adjusted[tornIdx].ackTime = kTickNever;
                recompute_timing();
                if (stats)
                    ++stats->faultsApplied;
            }
        }
    }

    // 1. Apply the persisted prefix, building surviving undo logs and
    // the stamped checkpoint-slot image.
    mem::UndoLogArea logs;
    for (std::size_t i = 0; i < stores_adj.size(); ++i) {
        const auto &s = stores_adj[i];
        if (i == tornIdx) {
            // The interrupted append: address word durable, value
            // word never written — reads back garbage.
            logs.append(s.region, s.addr,
                        state.nvm.read(s.addr) ^
                            0xdeadbeefdeadbeefULL,
                        s.isCkpt);
            logs.tearNewestRecord();
            continue;
        }
        if (s.persistTime > crash_tick)
            continue;
        ++state.persistedStores;
        if (log_live_at_crash(s))
            logs.append(s.region, s.addr, state.nvm.read(s.addr),
                        s.isCkpt);
        if (s.isCkpt) {
            auto &entry = state.ckptSlotImage[s.addr];
            entry.prev = state.nvm.read(s.addr);
            entry.value = s.value;
        }
        state.nvm.write(s.addr, s.value);
    }
    state.liveLogRegions = logs.liveRegions();

    if (std::getenv("CWSP_CRASH_DEBUG")) {
        std::fprintf(stderr, "crash@%llu: %zu records, %zu events\n",
                     (unsigned long long)crash_tick,
                     stores_adj.size(), regions.size());
        for (std::size_t i = stores_adj.size() > 12
                                 ? stores_adj.size() - 12
                                 : 0;
             i < stores_adj.size(); ++i) {
            const auto &s = stores_adj[i];
            std::fprintf(stderr,
                         "  st[%zu] rgn=%llu addr=0x%llx "
                         "persist=%llu ack=%llu log=%d ck=%d at=%d\n",
                         i, (unsigned long long)s.region,
                         (unsigned long long)s.addr,
                         (unsigned long long)s.persistTime,
                         (unsigned long long)s.ackTime, s.logged,
                         s.isCkpt, s.isAtomic);
        }
        for (std::uint32_t c = 0; c < maxCore; ++c) {
            for (RegionId r = 0; r <= maxRegion && r <= 6; ++r) {
                if (maxAck[c * nR + r] == 0)
                    continue;
                std::fprintf(
                    stderr, "  maxAck core%u rgn%llu = %llu\n", c,
                    (unsigned long long)r,
                    (unsigned long long)maxAck[c * nR + r]);
            }
        }
    }

    // 2. Locate each core's oldest unpersisted region (before the
    // replay: the degradation ladder needs to know which regions
    // resume in order to classify corrupt records).
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        const auto &evs = perCore[c];
        ResumePoint &rp = state.resume[c];
        if (core_done(c)) {
            rp.hasWork = false;
            continue;
        }
        if (evs.empty()) {
            // Crash before the first boundary committed: restart.
            rp.hasWork = true;
            rp.restart = true;
            continue;
        }
        bool found = false;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const auto *ev = evs[i];
            bool complete = (i + 1 < evs.size()) ||
                            program_finished_at[c] <= crash_tick ||
                            atomic_done(c, ev->region);
            if (!complete ||
                max_ack_of(c, ev->region) > crash_tick) {
                rp.hasWork = true;
                rp.region = ev->region;
                rp.func = ev->func;
                rp.staticRegion = ev->staticRegion;
                // The program's first region restarts from scratch:
                // its inputs are the ABI argument spills re-issued by
                // start(). On a *resumed* core the recording's first
                // region is instead the continuation of the previous
                // epoch's resume region: its live-in slots were
                // spilled pre-boundary (region-0-attributed) in this
                // recording, so it resumes normally once every
                // pre-boundary store is acknowledged — an unacked one
                // means the slot undo logs are still live and the
                // replay rewinds the slots to the *old* region's
                // values, which only a re-resume there can use.
                rp.restart =
                    (i == 0) && (!core_resumed(c) ||
                                 freeTime0[c] > crash_tick);
                found = true;
                break;
            }
        }
        if (!found) {
            if (program_finished_at[c] > crash_tick) {
                // The core was still running but its last begun
                // region force-completed via a persisted atomic and
                // the next boundary never committed: resume inside
                // that region, skipping the atomic.
                const auto *ev = evs.back();
                rp.hasWork = true;
                rp.region = ev->region;
                rp.func = ev->func;
                rp.staticRegion = ev->staticRegion;
                rp.resumeAfterAtomic = true;
            } else {
                rp.hasWork = false;
            }
        }
    }

    // Pre-main spills (region 0) that did not persist force a restart
    // of the affected core even when its first region looked
    // persisted.
    for (const auto &s : stores_adj) {
        if (s.region == 0 && s.persistTime > crash_tick &&
            s.core < num_cores && !core_done(s.core)) {
            state.resume[s.core].hasWork = true;
            state.resume[s.core].restart = true;
        }
    }

    // Bit-flip faults: media retention failure of an older, fully
    // written record. The injector never targets the area's globally
    // newest record — that would present as a torn tail, a different
    // degradation class (and dropping a real store's revert record is
    // only safe under the torn-append attribution).
    if (opts.faults) {
        std::set<RegionId> resumeData;
        for (const auto &rp : state.resume) {
            if (rp.hasWork && !rp.restart)
                resumeData.insert(rp.region);
        }
        auto flip_near = [&](RegionId region, std::size_t want,
                             unsigned bit, bool data_only) {
            auto it = logs.logs().find(region);
            if (it == logs.logs().end() || it->second.empty())
                return false;
            const auto &recs = it->second;
            std::uint64_t newest = logs.newestSeq();
            for (std::size_t k = 0; k < recs.size(); ++k) {
                std::size_t off = (want + k) % recs.size();
                const auto &r = recs[recs.size() - 1 - off];
                if (r.seq == newest || r.torn)
                    continue;
                if (data_only && r.isCkpt)
                    continue;
                return logs.flipBit(region, off, bit);
            }
            return false;
        };
        for (const auto &f :
             opts.faults->faultsFor(opts.crashIndex)) {
            if (f.kind != fault::FaultKind::BitFlip)
                continue;
            if (stats)
                ++stats->faultsRequested;
            bool applied = false;
            if (f.region != 0) {
                applied = flip_near(f.region, f.recordIndex, f.bit,
                                    false);
            } else {
                // Auto-target: a resume region's data log when one
                // exists (exercises degradation step 2), else the
                // newest live region.
                for (RegionId r : resumeData) {
                    applied = flip_near(r, f.recordIndex, f.bit,
                                        true);
                    if (applied)
                        break;
                }
                if (!applied) {
                    applied = flip_near(logs.newestRegion(),
                                        f.recordIndex, f.bit, false);
                }
            }
            if (applied && stats)
                ++stats->faultsApplied;
        }
    }

    // 3. Hardened recovery scan: validate every record and classify
    // failures down the degradation ladder.
    std::set<std::pair<RegionId, std::size_t>> skip;
    {
        std::set<RegionId> resumeData;
        for (const auto &rp : state.resume) {
            if (rp.hasWork && !rp.restart)
                resumeData.insert(rp.region);
        }
        std::set<RegionId> restartedRegions;
        for (const auto &cr : logs.scanCorrupt()) {
            if (stats)
                ++stats->corruptRecordsDetected;
            const auto &arr = logs.logs().at(cr.region);
            std::uint64_t action;
            if (cr.newestOverall && cr.index == arr.size() - 1) {
                // Step 1: torn tail — the guarded store never
                // admitted; dropping the record is exact.
                skip.insert({cr.region, cr.index});
                action = 0;
                if (stats)
                    ++stats->tornTailsDropped;
            } else if (!cr.isCkpt && resumeData.count(cr.region)) {
                // Step 2: corrupt data record of a region that
                // re-executes anyway. Skip the record; the
                // antidependence-free region rewrites the address
                // before reading it.
                skip.insert({cr.region, cr.index});
                action = 1;
                if (restartedRegions.insert(cr.region).second &&
                    stats) {
                    ++stats->regionRestarts;
                }
            } else {
                // Step 3: checkpoint-slot records or regions that
                // would not re-execute — recovery cannot reconstruct
                // the pre-store value. Declare the image lost.
                state.fullRestart = true;
                action = 2;
            }
            if (trace) {
                const arch::RegionEvent *ev =
                    cr.region < nR ? byId[cr.region] : nullptr;
                std::uint16_t lane =
                    ev == nullptr ? 0 : sim::coreLane(ev->core);
                trace->record(sim::TraceEventKind::LogFault, lane,
                              crash_tick, 0, cr.seq, action);
            }
        }
        if (state.fullRestart && stats)
            ++stats->fullRestarts;
    }

    if (state.fullRestart) {
        // Every core — finished ones included, their outputs lived in
        // the discarded image — re-runs from entry on pristine
        // memory. Deterministic programs converge; duplicated device
        // output is the documented cost of this degradation step.
        state.nvm.clear();
        state.ckptSlotImage.clear();
        state.releasedIo.clear();
        for (auto &rp : state.resume) {
            rp = ResumePoint{};
            rp.hasWork = true;
            rp.restart = true;
        }
        return state;
    }

    // 4. Revert speculative updates, newest region first (Section
    // VII), skipping records the ladder dropped, and remember each
    // applied write so nested failures can re-enter mid-replay.
    for (auto it = logs.logs().rbegin(); it != logs.logs().rend();
         ++it) {
        const auto &recs = it->second;
        for (std::size_t i = recs.size(); i-- > 0;) {
            if (skip.count({it->first, i}))
                continue;
            Addr addr = recs[i].addr;
            Word before = state.nvm.read(addr);
            state.nvm.write(addr, recs[i].oldValue);
            state.replaySteps.push_back(
                ReplayStep{it->first, addr, before,
                           recs[i].oldValue});
            ++state.revertedStores;
            if (trace) {
                const arch::RegionEvent *ev =
                    it->first < nR ? byId[it->first] : nullptr;
                std::uint16_t lane =
                    ev == nullptr ? 0 : sim::coreLane(ev->core);
                trace->record(sim::TraceEventKind::UndoRollback,
                              lane, crash_tick, 0, addr, it->first);
            }
        }
    }

    // The stamped slot image must reflect the *post-replay* durable
    // value: a live checkpoint-slot undo record legitimately rewinds
    // the slot during replay, and the recovery slice validates
    // against what it will actually read. `prev` keeps the pre-write
    // value so a dropped-write injection stays expressible.
    for (auto &[addr, entry] : state.ckptSlotImage)
        entry.value = state.nvm.read(addr);

    // Release device operations of persisted regions, in issue order
    // (Section VIII: the I/O redo buffers flush region-by-region).
    for (const auto &op : io) {
        if (op.region < nR && freeTime[op.region] <= crash_tick)
            state.releasedIo.push_back(op);
    }
    return state;
}

} // namespace cwsp::core
