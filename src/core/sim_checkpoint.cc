#include "core/sim_checkpoint.hh"

#include <cstdlib>

#include "sim/stats.hh"

namespace cwsp::core {

namespace {

std::size_t
snapshotBytes(const interp::ControlSnapshot &snap)
{
    return snap.frames.capacity() * sizeof(interp::Frame) +
           sizeof(snap);
}

} // namespace

std::size_t
SimCheckpoint::bytes() const
{
    std::size_t b = sizeof(*this);
    b += componentBytes.capacity() + traceBytes.capacity() +
         samplerBytes.capacity();
    b += position.finishedAt.capacity() * sizeof(Tick) +
         position.coreReturns.capacity() * sizeof(Word) +
         position.coreFinished.capacity();
    for (const auto &t : threads)
        b += sizeof(t) + t.entry.size() +
             t.args.capacity() * sizeof(Word);
    b += storeTail.capacity() * sizeof(arch::StoreRecord);
    for (const auto &kv : snapshots)
        b += snapshotBytes(kv.second) + 64; // map node overhead
    for (const auto &snap : position.exactSnaps)
        b += snapshotBytes(snap);
    return b;
}

RecordingView
SimCheckpoint::recording() const
{
    return RecordingView{
        StoreLogView(std::span(log->stores).first(sharedStores), storeTail),
        std::span(log->regions).first(regions),
        std::span(log->io).first(io), &snapshots};
}

CheckpointCache::CheckpointCache(std::size_t max_bytes)
    : capBytes_(max_bytes != 0 ? max_bytes : defaultCapBytes())
{
}

std::size_t
CheckpointCache::defaultCapBytes()
{
    if (const char *env = std::getenv("CWSP_CKPT_CACHE_MB")) {
        char *end = nullptr;
        unsigned long long mb = std::strtoull(env, &end, 10);
        if (end != env)
            return static_cast<std::size_t>(mb) * 1024 * 1024;
    }
    return 256ull * 1024 * 1024;
}

void
CheckpointCache::insert(const std::string &key,
                        std::shared_ptr<const SimCheckpoint> ckpt)
{
    if (!ckpt)
        return;
    const std::size_t sz = ckpt->bytes();
    const RecordingLog *log = ckpt->log.get();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.captures;
    auto it = entries_.find(key);
    if (it != entries_.end())
        eraseLocked(it);
    // A log no resident entry reads yet is charged with this one.
    const std::size_t logBytes =
        log && !logs_.contains(log) ? log->bytes() : 0;
    const std::size_t added = sz + logBytes;
    if (added > capBytes_) {
        // Larger than the whole cache: never resident. The sweep
        // falls back to from-scratch for this crash point.
        ++stats_.evictions;
        return;
    }
    if (log) {
        LogCharge &charge = logs_[log];
        if (charge.readers++ == 0)
            charge.bytes = logBytes;
        logBytes_ += logBytes;
    }
    lru_.push_front(key);
    entries_[key] = Entry{std::move(ckpt), sz, lru_.begin()};
    residentBytes_ += added;
    evictToFitLocked();
}

void
CheckpointCache::eraseLocked(std::map<std::string, Entry>::iterator it)
{
    residentBytes_ -= it->second.bytes;
    if (const RecordingLog *log = it->second.ckpt->log.get()) {
        auto charge = logs_.find(log);
        if (--charge->second.readers == 0) {
            residentBytes_ -= charge->second.bytes;
            logBytes_ -= charge->second.bytes;
            logs_.erase(charge);
        }
    }
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
}

std::shared_ptr<const SimCheckpoint>
CheckpointCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    it->second.lruIt = lru_.begin();
    return it->second.ckpt;
}

void
CheckpointCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    logs_.clear();
    residentBytes_ = 0;
    logBytes_ = 0;
}

void
CheckpointCache::noteFork()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.forks;
}

void
CheckpointCache::noteFallback(SourceRefusal why)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fallbacks;
    if (why == SourceRefusal::None)
        ++stats_.fallbackCauses.missing;
    else
        stats_.fallbackCauses.refused.note(why);
}

void
CheckpointCache::evictToFitLocked()
{
    while (residentBytes_ > capBytes_ && !lru_.empty()) {
        eraseLocked(entries_.find(lru_.back()));
        ++stats_.evictions;
    }
}

CheckpointCache::Stats
CheckpointCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.bytesResident = residentBytes_;
    s.logBytesResident = logBytes_;
    s.entries = entries_.size();
    return s;
}

void
CheckpointCache::fillStats(StatsRegistry &reg,
                           const std::string &prefix) const
{
    Stats s = stats();
    reg.counter(prefix + "ckpt.captures").inc(s.captures);
    reg.counter(prefix + "ckpt.forks").inc(s.forks);
    reg.counter(prefix + "ckpt.evictions").inc(s.evictions);
    reg.counter(prefix + "ckpt.fallbacks").inc(s.fallbacks);
    s.fallbackCauses.forEach([&](const char *cause, std::uint64_t n) {
        reg.counter(prefix + "ckpt.fallback_causes." + cause).inc(n);
    });
    reg.counter(prefix + "ckpt.bytesResident").inc(s.bytesResident);
    reg.counter(prefix + "ckpt.logBytesResident")
        .inc(s.logBytesResident);
}

} // namespace cwsp::core
