#include "driver/batch_runner.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <unistd.h>

#include "core/config_serial.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace cwsp::driver {

namespace {

/** Render a double exactly (IEEE-754 bit pattern). */
std::string
doubleBits(double v)
{
    return hex64(std::bit_cast<std::uint64_t>(v));
}

bool
parseDoubleBits(const std::string &tok, double &out)
{
    if (tok.size() != 16)
        return false;
    std::uint64_t bits = 0;
    for (char c : tok) {
        bits <<= 4;
        if (c >= '0' && c <= '9')
            bits |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = std::bit_cast<double>(bits);
    return true;
}

/**
 * Cache-entry field order. Adding/removing RunResult fields changes
 * the format; bump kResultCacheVersion when that happens.
 */
void
writeResult(std::ostream &os, const core::RunResult &r)
{
    os << "cycles " << r.cycles << '\n'
       << "instructions " << r.instructions << '\n';
    os << "returnValues " << r.returnValues.size();
    for (Word w : r.returnValues)
        os << ' ' << w;
    os << '\n';
    os << "meanRegionInstrs " << doubleBits(r.meanRegionInstrs) << '\n'
       << "meanWbOccupancy " << doubleBits(r.meanWbOccupancy) << '\n'
       << "wpqHits " << r.wpqHits << '\n'
       << "nvmReads " << r.nvmReads << '\n'
       << "l1Accesses " << r.l1Accesses << '\n'
       << "l1Misses " << r.l1Misses << '\n'
       << "dramCacheHits " << r.dramCacheHits << '\n'
       << "dramCacheMisses " << r.dramCacheMisses << '\n'
       << "pbFullStalls " << r.pbFullStalls << '\n'
       << "rbtFullStalls " << r.rbtFullStalls << '\n'
       << "wbPersistDelays " << r.wbPersistDelays << '\n'
       << "end\n";
}

template <typename T>
bool
readField(std::istream &is, const char *name, T &out)
{
    std::string tag;
    return (is >> tag >> out) && tag == name;
}

bool
readDoubleField(std::istream &is, const char *name, double &out)
{
    std::string tag, tok;
    return (is >> tag >> tok) && tag == name &&
           parseDoubleBits(tok, out);
}

bool
readResult(std::istream &is, core::RunResult &r)
{
    if (!readField(is, "cycles", r.cycles) ||
        !readField(is, "instructions", r.instructions))
        return false;
    std::string tag;
    std::size_t n = 0;
    if (!(is >> tag >> n) || tag != "returnValues" || n > 4096)
        return false;
    r.returnValues.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!(is >> r.returnValues[i]))
            return false;
    }
    if (!readDoubleField(is, "meanRegionInstrs", r.meanRegionInstrs) ||
        !readDoubleField(is, "meanWbOccupancy", r.meanWbOccupancy) ||
        !readField(is, "wpqHits", r.wpqHits) ||
        !readField(is, "nvmReads", r.nvmReads) ||
        !readField(is, "l1Accesses", r.l1Accesses) ||
        !readField(is, "l1Misses", r.l1Misses) ||
        !readField(is, "dramCacheHits", r.dramCacheHits) ||
        !readField(is, "dramCacheMisses", r.dramCacheMisses) ||
        !readField(is, "pbFullStalls", r.pbFullStalls) ||
        !readField(is, "rbtFullStalls", r.rbtFullStalls) ||
        !readField(is, "wbPersistDelays", r.wbPersistDelays))
        return false;
    return (is >> tag) && tag == "end";
}

std::string
resolveCacheDir(const BatchConfig &config)
{
    if (!config.cacheDir.empty())
        return config.cacheDir;
    if (const char *env = std::getenv("CWSP_CACHE_DIR");
        env && *env)
        return env;
    return ".cwsp-cache";
}

std::size_t
resolveStreamCacheBytes(const BatchConfig &config)
{
    std::size_t mb = config.streamCacheMb;
    if (mb == 0) {
        if (const char *env = std::getenv("CWSP_STREAM_CACHE_MB");
            env && *env) {
            long v = std::atol(env);
            if (v > 0)
                mb = static_cast<std::size_t>(v);
        }
    }
    if (mb == 0)
        mb = 256;
    return mb * std::size_t{1024} * 1024;
}

/** Stream-cache key: the program a point runs and its cache tag
 *  geometry, whatever its timing. */
std::string
streamKey(const workloads::AppProfile &app,
          const core::SystemConfig &config, const std::string &entry)
{
    return workloads::profileKey(app) + "|" +
           core::compilerOptionsKey(config.compiler) + "|" +
           mem::tagGeometryKey(config.hierarchy) + "|entry=" + entry;
}

} // namespace

sim::SimArena *
workerArena()
{
    static thread_local sim::SimArena arena;
    return &arena;
}

struct BatchRunner::Impl
{
    std::mutex resultsMu;
    std::map<std::string, core::RunResult> results;
    std::map<std::string, std::shared_future<core::RunResult>>
        inflight;

    std::mutex modulesMu;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const ir::Module>>>
        modules;

    std::mutex streamsMu;
    std::map<std::string,
             std::shared_future<
                 std::shared_ptr<const core::CommitStream>>>
        streams;
    /** Insertion order for eviction (oldest first). */
    std::vector<std::string> streamOrder;
    std::size_t streamBytes = 0;
    std::size_t streamBytesCap = 0;

    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> memoryHits{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> modulesCompiled{0};
    std::atomic<std::uint64_t> moduleCacheHits{0};
    std::atomic<std::uint64_t> streamsRecorded{0};
    std::atomic<std::uint64_t> streamCacheHits{0};
    std::atomic<std::uint64_t> replayedRuns{0};
    std::atomic<std::uint64_t> interpretedRuns{0};

    std::mutex violationsMu;
    std::vector<obs::InvariantViolation> violations;
    std::atomic<std::uint64_t> violationCount{0};
    std::atomic<std::uint64_t> invariantEvents{0};
    static constexpr std::size_t kMaxKeptViolations = 256;

    /** Shared checkpoint cache (created in the ctor, cap applied). */
    std::unique_ptr<core::CheckpointCache> ckptCache;
};

BatchRunner::BatchRunner(BatchConfig config)
    : impl_(std::make_unique<Impl>()), config_(std::move(config)),
      cacheDir_(resolveCacheDir(config_))
{
    impl_->streamBytesCap = resolveStreamCacheBytes(config_);
    impl_->ckptCache = std::make_unique<core::CheckpointCache>(
        config_.ckptCacheMb != 0
            ? config_.ckptCacheMb * std::size_t{1024} * 1024
            : 0);
}

core::CheckpointCache &
BatchRunner::checkpointCache()
{
    return *impl_->ckptCache;
}

BatchRunner::~BatchRunner() = default;

std::string
BatchRunner::pointKey(const DesignPoint &point)
{
    std::ostringstream os;
    workloads::serializeProfile(os, point.app);
    os << '|';
    core::serializeSystemConfig(os, point.config);
    os << "|entry=" << point.entry << "|instrs=" << point.maxInstrs;
    return os.str();
}

std::string
BatchRunner::pathForKey(const std::string &key) const
{
    std::uint64_t h = fnv1a64(key);
    h = fnv1a64(config_.versionStamp, h);
    return (fs::path(cacheDir_) / (hex64(h) + ".result")).string();
}

std::string
BatchRunner::cachePath(const DesignPoint &point) const
{
    return pathForKey(pointKey(point));
}

bool
BatchRunner::loadFromDisk(const std::string &key,
                          core::RunResult &out) const
{
    std::ifstream in(pathForKey(key));
    if (!in)
        return false;
    std::string header, stamp;
    if (!(in >> header >> stamp) || header != "cwsp-result-cache" ||
        stamp != config_.versionStamp)
        return false;
    // The stored key is echoed verbatim (single line): a hash
    // collision or truncated file reads back as a miss, never as a
    // wrong result.
    std::string tag;
    if (!(in >> tag) || tag != "key")
        return false;
    in.ignore(1); // the separating space
    std::string stored;
    if (!std::getline(in, stored) || stored != key)
        return false;
    return readResult(in, out);
}

void
BatchRunner::storeToDisk(const std::string &key,
                         const core::RunResult &r) const
{
    std::error_code ec;
    fs::create_directories(cacheDir_, ec);
    if (ec) {
        cwsp_warn("result cache: cannot create ", cacheDir_, ": ",
                  ec.message());
        return;
    }
    // Write-to-temp + rename so concurrent processes never observe a
    // partially written entry.
    std::string final_path = pathForKey(key);
    std::ostringstream tmp_name;
    tmp_name << final_path << ".tmp." << ::getpid() << '.'
             << std::hash<std::thread::id>{}(
                    std::this_thread::get_id());
    {
        std::ofstream out(tmp_name.str(),
                          std::ios::trunc | std::ios::binary);
        if (!out) {
            cwsp_warn("result cache: cannot write ", tmp_name.str());
            return;
        }
        out << "cwsp-result-cache " << config_.versionStamp << '\n';
        out << "key " << key << '\n';
        writeResult(out, r);
        if (!out) {
            cwsp_warn("result cache: short write to ",
                      tmp_name.str());
            return;
        }
    }
    fs::rename(tmp_name.str(), final_path, ec);
    if (ec) {
        cwsp_warn("result cache: rename failed: ", ec.message());
        fs::remove(tmp_name.str(), ec);
    }
}

std::shared_ptr<const ir::Module>
BatchRunner::moduleFor(const workloads::AppProfile &app,
                       const compiler::CompilerOptions &options)
{
    return cachedModule(
        workloads::profileKey(app) + "|" +
            core::compilerOptionsKey(options),
        [&] { return workloads::buildApp(app, options); });
}

std::shared_ptr<const ir::Module>
BatchRunner::moduleFor(const workloads::ConcurrentProfile &app,
                       const compiler::CompilerOptions &options)
{
    return cachedModule(
        workloads::concurrentProfileKey(app) + "|" +
            core::compilerOptionsKey(options),
        [&] { return workloads::buildConcurrentApp(app, options); });
}

std::shared_ptr<const ir::Module>
BatchRunner::cachedModule(
    const std::string &key,
    const std::function<std::unique_ptr<ir::Module>()> &build)
{
    std::promise<std::shared_ptr<const ir::Module>> promise;
    std::shared_future<std::shared_ptr<const ir::Module>> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(impl_->modulesMu);
        auto it = impl_->modules.find(key);
        if (it != impl_->modules.end()) {
            impl_->moduleCacheHits.fetch_add(
                1, std::memory_order_relaxed);
            fut = it->second;
        } else {
            owner = true;
            fut = promise.get_future().share();
            impl_->modules.emplace(key, fut);
        }
    }
    if (!owner)
        return fut.get();

    impl_->modulesCompiled.fetch_add(1, std::memory_order_relaxed);
    try {
        std::shared_ptr<const ir::Module> mod = build();
        promise.set_value(mod);
        return mod;
    } catch (...) {
        // Un-cache the failed compile so a later retry is possible,
        // then propagate to this caller and any waiters.
        {
            std::lock_guard<std::mutex> lk(impl_->modulesMu);
            impl_->modules.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

std::shared_ptr<const core::CommitStream>
BatchRunner::streamFor(const workloads::AppProfile &app,
                       const core::SystemConfig &config,
                       const std::string &entry,
                       std::uint64_t max_instrs,
                       std::shared_ptr<const ir::Module> mod)
{
    const std::string key = streamKey(app, config, entry);
    std::promise<std::shared_ptr<const core::CommitStream>> promise;
    std::shared_future<std::shared_ptr<const core::CommitStream>> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(impl_->streamsMu);
        auto it = impl_->streams.find(key);
        if (it != impl_->streams.end()) {
            impl_->streamCacheHits.fetch_add(
                1, std::memory_order_relaxed);
            fut = it->second;
        } else {
            owner = true;
            fut = promise.get_future().share();
            impl_->streams.emplace(key, fut);
        }
    }
    if (!owner)
        return fut.get();

    impl_->streamsRecorded.fetch_add(1, std::memory_order_relaxed);
    try {
        if (!mod)
            mod = moduleFor(app, config.compiler);
        auto stream = std::make_shared<core::CommitStream>(
            core::recordCommitStream(*mod, entry, {}, config.hierarchy,
                                     max_instrs,
                                     workloads::estimatedInstrs(app)));
        promise.set_value(stream);
        {
            // Account and evict oldest-first. Evicted streams stay
            // alive for whoever already shares the pointer; the next
            // requester simply re-records.
            std::lock_guard<std::mutex> lk(impl_->streamsMu);
            impl_->streamOrder.push_back(key);
            impl_->streamBytes += stream->memoryBytes();
            while (impl_->streamBytes > impl_->streamBytesCap &&
                   !impl_->streamOrder.empty()) {
                const std::string &victim = impl_->streamOrder.front();
                auto vit = impl_->streams.find(victim);
                if (vit != impl_->streams.end()) {
                    auto held = vit->second.get();
                    impl_->streamBytes -=
                        std::min(impl_->streamBytes,
                                 held->memoryBytes());
                    impl_->streams.erase(vit);
                }
                impl_->streamOrder.erase(impl_->streamOrder.begin());
            }
        }
        return stream;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lk(impl_->streamsMu);
            impl_->streams.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

core::RunResult
BatchRunner::compute(const DesignPoint &point, const std::string &key,
                     bool replay)
{
    // An invariant-checking batch must observe the event stream, so
    // a disk-cached result (which skips the simulation) is useless
    // for it; loads are bypassed, stores below still happen.
    if (config_.useDiskCache && !config_.checkInvariants) {
        core::RunResult r;
        if (loadFromDisk(key, r)) {
            impl_->diskHits.fetch_add(1, std::memory_order_relaxed);
            return r;
        }
    }
    auto mod = moduleFor(point.app, point.config.compiler);
    core::WholeSystemSim sim(*mod, point.config, workerArena());
    obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
        point.config.hierarchy.wpqCapacity, 8, 16});
    if (config_.checkInvariants)
        sim.attachTraceSink(&monitor);
    core::RunResult r;
    if (replay) {
        auto stream = streamFor(point.app, point.config, point.entry,
                                point.maxInstrs, mod);
        r = sim.runReplay(*stream, point.maxInstrs);
        impl_->replayedRuns.fetch_add(1, std::memory_order_relaxed);
    } else {
        r = sim.run(point.entry, {}, point.maxInstrs);
        impl_->interpretedRuns.fetch_add(1, std::memory_order_relaxed);
    }
    impl_->simulated.fetch_add(1, std::memory_order_relaxed);

    // Fold this sim's component stats into the shared aggregate
    // (mergeFrom locks the destination; the local registry is ours).
    StatsRegistry local;
    sim.fillStats(local);
    local.counter("batch.simulatedRuns").inc();
    if (config_.checkInvariants) {
        monitor.finish();
        impl_->invariantEvents.fetch_add(
            monitor.eventsChecked(), std::memory_order_relaxed);
        impl_->violationCount.fetch_add(
            monitor.violationCount(), std::memory_order_relaxed);
        local.counter("obs.invariantEventsChecked")
            .inc(monitor.eventsChecked());
        local.counter("obs.invariantViolations")
            .inc(monitor.violationCount());
        if (!monitor.violations().empty()) {
            std::lock_guard<std::mutex> lk(impl_->violationsMu);
            for (const auto &v : monitor.violations()) {
                if (impl_->violations.size() >=
                    Impl::kMaxKeptViolations) {
                    break;
                }
                auto tagged = v;
                tagged.detail = key + ": " + tagged.detail;
                impl_->violations.push_back(std::move(tagged));
            }
        }
    }
    aggregate_.mergeFrom(local);

    if (config_.useDiskCache)
        storeToDisk(key, r);
    return r;
}

void
BatchRunner::exportAggregateJson(std::ostream &os) const
{
    // Fold the checkpoint cache's ledger in when a sweep used it, so
    // the exported stats show when the byte cap is degrading forked
    // sweeps to from-scratch runs. Quiet caches stay out of the JSON
    // (plain batches shouldn't grow ckpt.* zeros).
    auto cs = impl_->ckptCache->stats();
    if (cs.captures || cs.forks || cs.fallbacks) {
        StatsRegistry merged(aggregate_);
        impl_->ckptCache->fillStats(merged);
        merged.exportJson(os);
    } else {
        aggregate_.exportJson(os);
    }
    os << "\n";
}

core::RunResult
BatchRunner::run(const DesignPoint &point)
{
    return runPoint(point, pointKey(point), false);
}

core::RunResult
BatchRunner::runPoint(const DesignPoint &point, const std::string &key,
                      bool replay)
{
    std::promise<core::RunResult> promise;
    std::shared_future<core::RunResult> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(impl_->resultsMu);
        auto done = impl_->results.find(key);
        if (done != impl_->results.end()) {
            impl_->memoryHits.fetch_add(1,
                                        std::memory_order_relaxed);
            return done->second;
        }
        auto inf = impl_->inflight.find(key);
        if (inf != impl_->inflight.end()) {
            // Another worker is computing this exact point; share it.
            impl_->memoryHits.fetch_add(1,
                                        std::memory_order_relaxed);
            fut = inf->second;
        } else {
            owner = true;
            fut = promise.get_future().share();
            impl_->inflight.emplace(key, fut);
        }
    }
    if (!owner)
        return fut.get();

    try {
        core::RunResult r = compute(point, key, replay);
        {
            std::lock_guard<std::mutex> lk(impl_->resultsMu);
            impl_->results.emplace(key, r);
            impl_->inflight.erase(key);
        }
        promise.set_value(r);
        return r;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lk(impl_->resultsMu);
            impl_->inflight.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

std::vector<core::RunResult>
BatchRunner::runAll(const std::vector<DesignPoint> &points)
{
    std::vector<core::RunResult> out(points.size());
    if (points.empty())
        return out;

    // Plan: replay a stream (program and tag geometry) only when
    // enough distinct points of this batch share it to repay the
    // recording.
    std::vector<std::string> keys(points.size());
    std::vector<bool> replay(points.size(), false);
    for (std::size_t i = 0; i < points.size(); ++i)
        keys[i] = pointKey(points[i]);
    if (config_.useStreamReplay) {
        std::vector<std::string> streams(points.size());
        std::map<std::string_view, std::set<std::string_view>> users;
        for (std::size_t i = 0; i < points.size(); ++i) {
            streams[i] = streamKey(points[i].app, points[i].config,
                                   points[i].entry);
            users[streams[i]].insert(keys[i]);
        }
        for (std::size_t i = 0; i < points.size(); ++i)
            replay[i] = users.at(streams[i]).size() >= kMinStreamUsers;
    }

    std::vector<std::function<void()>> tasks;
    tasks.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        tasks.push_back([&, i]() {
            out[i] = runPoint(points[i], keys[i], replay[i]);
        });
    }
    runTasks(tasks);
    return out;
}

void
BatchRunner::runTasks(const std::vector<std::function<void()>> &tasks)
{
    if (tasks.empty())
        return;

    std::size_t jobs =
        config_.jobs != 0
            ? config_.jobs
            : std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min(jobs, tasks.size());

    if (jobs <= 1) {
        for (const auto &task : tasks)
            task();
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errMu;
    std::exception_ptr firstError;
    auto worker = [&]() {
        while (true) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            try {
                tasks[i]();
            } catch (...) {
                std::lock_guard<std::mutex> lk(errMu);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

BatchStats
BatchRunner::stats() const
{
    BatchStats s;
    s.simulated = impl_->simulated.load();
    s.memoryHits = impl_->memoryHits.load();
    s.diskHits = impl_->diskHits.load();
    s.modulesCompiled = impl_->modulesCompiled.load();
    s.moduleCacheHits = impl_->moduleCacheHits.load();
    s.streamsRecorded = impl_->streamsRecorded.load();
    s.streamCacheHits = impl_->streamCacheHits.load();
    s.replayedRuns = impl_->replayedRuns.load();
    s.interpretedRuns = impl_->interpretedRuns.load();
    s.invariantEventsChecked = impl_->invariantEvents.load();
    s.invariantViolations = impl_->violationCount.load();
    auto ck = impl_->ckptCache->stats();
    s.ckptCaptures = ck.captures;
    s.ckptForks = ck.forks;
    s.ckptEvictions = ck.evictions;
    s.ckptFallbacks = ck.fallbacks;
    return s;
}

std::vector<obs::InvariantViolation>
BatchRunner::invariantViolations() const
{
    std::lock_guard<std::mutex> lk(impl_->violationsMu);
    return impl_->violations;
}

void
BatchRunner::clearMemoryCaches()
{
    {
        std::lock_guard<std::mutex> lk(impl_->resultsMu);
        cwsp_assert(impl_->inflight.empty(),
                    "clearMemoryCaches with runs in flight");
        impl_->results.clear();
    }
    {
        std::lock_guard<std::mutex> lk(impl_->modulesMu);
        impl_->modules.clear();
    }
    std::lock_guard<std::mutex> lk(impl_->streamsMu);
    impl_->streams.clear();
    impl_->streamOrder.clear();
    impl_->streamBytes = 0;
    impl_->ckptCache->clear();
}

} // namespace cwsp::driver
