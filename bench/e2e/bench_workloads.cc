#include "bench_workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/commit_stream.hh"
#include "core/config_serial.hh"
#include "core/interleave.hh"
#include "core/sim_checkpoint.hh"
#include "interp/interpreter.hh"
#include "sim/hash.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cwsp::bench_e2e {

namespace {

/** SplitMix64: the only source of seed-derived randomness. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * The roster with the in-kernel random stream of every app that has
 * one re-seeded from SplitMix64(seed); seed 1 is the calibrated roster.
 * Trip counts and footprints stay calibrated, so the work per app is
 * the same size at every seed; only addresses, keys, and the Mix
 * kernel's group order change.
 */
std::vector<workloads::AppProfile>
seededRoster(std::uint64_t seed)
{
    std::vector<workloads::AppProfile> roster = workloads::appTable();
    if (seed == 1)
        return roster;
    SplitMix64 rng(seed);
    for (workloads::AppProfile &a : roster) {
        switch (a.kind) {
          case workloads::KernelKind::Mix:
            a.mix.seed = rng.next() | 1; // the roster keeps Mix seeds odd
            break;
          case workloads::KernelKind::Gups:
            a.gups.seed = rng.next();
            break;
          case workloads::KernelKind::KvStore:
            a.kv.seed = rng.next();
            break;
          case workloads::KernelKind::TreeSearch:
            a.tree.seed = rng.next();
            break;
          case workloads::KernelKind::AtomicMix:
            a.atomic.seed = rng.next();
            break;
          case workloads::KernelKind::PChase:
          case workloads::KernelKind::NBody:
            break; // no random stream
        }
    }
    return roster;
}

/** Baseline, then cwsp with one knob of Figs. 21-26 moved at a time. */
std::vector<core::SystemConfig>
configSweep()
{
    std::vector<core::SystemConfig> out{core::makeSystemConfig("baseline")};
    auto knob = [&](auto &&set) {
        core::SystemConfig c = core::makeSystemConfig("cwsp");
        set(c);
        out.push_back(c);
    };
    for (std::uint32_t v : {20, 30, 40, 60, 80, 100})
        knob([v](core::SystemConfig &c) { c.scheme.pbCapacity = v; });
    for (double v : {1.0, 2.0, 8.0, 10.0, 20.0, 32.0})
        knob([v](core::SystemConfig &c) { c.scheme.path.bandwidthGBs = v; });
    for (std::uint32_t v : {8, 12, 16, 32, 48, 64})
        knob([v](core::SystemConfig &c) { c.hierarchy.wpqCapacity = v; });
    for (std::uint32_t v : {4, 8, 12, 24, 32, 64})
        knob([v](core::SystemConfig &c) { c.scheme.rbtCapacity = v; });
    return out;
}

std::string
resultKey(const core::RunResult &r)
{
    std::ostringstream os;
    os << r.cycles << ' ' << r.instructions << " [";
    for (Word w : r.returnValues)
        os << ' ' << w;
    os << " ] " << hex64(std::bit_cast<std::uint64_t>(r.meanRegionInstrs))
       << ' ' << hex64(std::bit_cast<std::uint64_t>(r.meanWbOccupancy))
       << ' ' << r.wpqHits << ' ' << r.nvmReads << ' ' << r.l1Accesses
       << ' ' << r.l1Misses << ' ' << r.dramCacheHits << ' '
       << r.dramCacheMisses << ' ' << r.pbFullStalls << ' '
       << r.rbtFullStalls << ' ' << r.wbPersistDelays;
    return os.str();
}

/** Simulated verdict fields only: checkpoint-cache accounting varies
 *  with thread timing and stays out. */
std::string
verdictKey(const fault::CaseResult &r)
{
    std::ostringstream os;
    os << r.c.label() << " | " << (r.pass ? "pass" : "FAIL") << " | "
       << r.dlVerdict << " | [";
    for (std::uint64_t w : r.recoveryWindows)
        os << ' ' << w;
    os << " ] | " << r.lostWork << " | " << r.divergences;
    return os.str();
}

/** Per-worker arena, as the batch runner gives its own simulations. */
sim::SimArena *
workerArena()
{
    static thread_local sim::SimArena arena;
    return &arena;
}

/**
 * The batch runner's build-once cache, reproduced so the traced run
 * compiles, records, and holds memory exactly as runAll does: the
 * first task needing a key builds it inside its own span and later
 * ones wait. With a byte cap (types with memoryBytes() only), the
 * oldest entries are dropped once the cap is exceeded, the runner's
 * stream-cache policy; a dropped entry is rebuilt by its next user.
 */
template <typename T>
class SharedOnce
{
  public:
    using Ptr = std::shared_ptr<const T>;

    /** @param cap_bytes 0 keeps every entry. */
    explicit SharedOnce(std::size_t cap_bytes = 0) : capBytes_(cap_bytes) {}

    template <typename Make>
    Ptr
    get(const std::string &key, Make &&make)
    {
        std::promise<Ptr> promise;
        std::shared_future<Ptr> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                fut = it->second;
            } else {
                owner = true;
                fut = promise.get_future().share();
                entries_.emplace(key, fut);
            }
        }
        if (!owner)
            return fut.get();
        Ptr v;
        try {
            v = make();
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            entries_.erase(key);
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(v);
        if constexpr (requires { v->memoryBytes(); }) {
            if (capBytes_ == 0)
                return v;
            std::lock_guard<std::mutex> lk(mu_);
            order_.push_back({key, v->memoryBytes()});
            bytes_ += order_.back().second;
            while (bytes_ > capBytes_ && !order_.empty()) {
                bytes_ -= order_.front().second;
                entries_.erase(order_.front().first);
                order_.erase(order_.begin());
            }
        }
        return v;
    }

  private:
    std::size_t capBytes_ = 0;
    std::mutex mu_;
    std::map<std::string, std::shared_future<Ptr>> entries_; // by mu_
    std::vector<std::pair<std::string, std::size_t>> order_; // by mu_
    std::size_t bytes_ = 0;                                  // by mu_
};

/** The runner's default stream-cache cap (CWSP_STREAM_CACHE_MB). */
std::size_t
streamCacheBytes()
{
    const char *env = std::getenv("CWSP_STREAM_CACHE_MB");
    const long mb = env ? std::atol(env) : 0;
    return static_cast<std::size_t>(mb > 0 ? mb : 256) << 20;
}

void
tracedSweep(const Inputs &in, driver::BatchRunner &pool, SpanLog &log,
            SampleSink &sink, TracedRep &rep)
{
    const std::vector<driver::DesignPoint> &pts = in.points;
    SharedOnce<ir::Module> modules;
    SharedOnce<core::CommitStream> streams(streamCacheBytes());
    std::vector<core::RunResult> results(pts.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        tasks.push_back([&, i]() {
            const driver::DesignPoint &p = pts[i];
            auto task = log.task("point");
            // The runner's module and stream cache keys.
            const std::string modKey =
                workloads::profileKey(p.app) + "|" +
                core::compilerOptionsKey(p.config.compiler);
            auto mod = modules.get(modKey, [&]() {
                auto span = log.layer("compiler.build");
                return std::shared_ptr<const ir::Module>(
                    workloads::buildApp(p.app, p.config.compiler));
            });
            auto stream = streams.get(modKey + "|entry=" + p.entry, [&]() {
                auto span = log.layer("interp.record");
                auto s = std::make_shared<const core::CommitStream>(
                    core::recordCommitStream(
                        *mod, p.entry, {}, p.maxInstrs,
                        workloads::estimatedInstrs(p.app)));
                span.end();
                sink.record(*s);
                return s;
            });
            auto span = log.layer("core.replay");
            {
                core::WholeSystemSim sim(*mod, p.config, workerArena());
                results[i] = sim.runReplay(*stream, p.maxInstrs);
            }
            sink.replay(p.config.scheme.name, span.end(),
                        results[i].instructions);
        });
    }
    pool.runTasks(tasks);
    for (const core::RunResult &r : results)
        rep.items.push_back(resultKey(r));
    rep.pass.assign(rep.items.size(), true);
}

/** One (app, scheme[, schedule]) golden context, as runCampaign
 *  builds it. */
struct Context
{
    std::string app;
    std::string scheme;
    bool concurrent = false;
    std::uint32_t ilvIndex = 0;
    core::SystemConfig config;
    std::shared_ptr<const ir::Module> module;
    Word goldenResult = 0;
    interp::SparseMemory goldenMemory;
    std::vector<arch::IoRecord> goldenIo;
    core::CommitStream stream;
    bool hasStream = false;
    fault::CrashPointSet points;
    core::CheckpointCache *ckptCache = nullptr;
    std::vector<core::ThreadSpec> threads{core::ThreadSpec{}};
    workloads::ConcurrentSpec cspec;
    std::vector<std::vector<workloads::ConcurrentOp>> cops;
};

std::string
contextKey(const std::string &app, const std::string &scheme,
           std::uint32_t ilv)
{
    return app + "|" + scheme + "|" + std::to_string(ilv);
}

/** runCampaign's golden reference of a context. */
fault::GoldenRef
refOf(const Context &ctx)
{
    fault::GoldenRef g;
    g.module = ctx.module.get();
    g.config = &ctx.config;
    g.result = ctx.goldenResult;
    g.memory = &ctx.goldenMemory;
    g.ioStream = &ctx.goldenIo;
    g.stream = ctx.hasStream ? &ctx.stream : nullptr;
    g.ckptCache = ctx.ckptCache;
    if (ctx.ckptCache)
        g.ckptKeyBase = ctx.app + "|" + ctx.scheme;
    g.threads = &ctx.threads;
    if (ctx.concurrent) {
        g.dlSpec = &ctx.cspec;
        g.dlOps = &ctx.cops;
    }
    return g;
}

void
buildConcurrentContext(Context &ctx, const fault::CampaignOptions &opt,
                       SpanLog &log, SampleSink &sink)
{
    const workloads::ConcurrentProfile *cp =
        workloads::findConcurrentApp(ctx.app);
    ctx.config.numCores = cp->params.numWorkers;
    ctx.config.scheme.interleave =
        core::interleaveSchedule(opt.interleaveSeed, ctx.ilvIndex);
    ctx.config.scheme.bugCasSkipPersist = opt.seedCasBug;
    {
        auto span = log.layer("compiler.build");
        ctx.module =
            workloads::buildConcurrentApp(*cp, ctx.config.compiler);
    }
    ctx.cspec = workloads::concurrentSpec(*ctx.module, *cp);
    ctx.threads.clear();
    for (std::uint32_t t = 0; t < cp->params.numWorkers; ++t) {
        ctx.cops.push_back(workloads::concurrentOps(*cp, t));
        ctx.threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
    }
    {
        auto span = log.layer("core.lockstep");
        core::WholeSystemSim sim(*ctx.module, ctx.config);
        sink.lockstep(sim.run(ctx.threads, opt.maxInstrs).instructions);
    }
    ctx.goldenResult = cp->params.opsPerWorker;
    auto span = log.layer("fault.crash_points");
    ctx.points = fault::enumerateCrashPoints(*ctx.module, ctx.config,
                                             ctx.threads,
                                             opt.pointsPerKind);
}

void
buildContext(Context &ctx, const fault::CampaignOptions &opt,
             core::CheckpointCache *cache, SpanLog &log,
             SampleSink &sink)
{
    const workloads::AppProfile &profile = workloads::appByName(ctx.app);
    {
        auto span = log.layer("compiler.build");
        ctx.module = workloads::buildApp(profile, ctx.config.compiler);
    }
    {
        auto span = log.layer("interp.golden");
        ctx.goldenResult = interp::runToCompletion(
            *ctx.module, ctx.goldenMemory, "main", {});
        ctx.goldenIo = core::collectIoStream(*ctx.module, "main", {});
    }
    if (!ctx.config.scheme.batteryBacked) {
        auto span = log.layer("interp.record");
        ctx.stream = core::recordCommitStream(
            *ctx.module, "main", {}, opt.maxInstrs,
            workloads::estimatedInstrs(profile));
        ctx.hasStream = true;
        span.end();
        sink.record(ctx.stream);
    }
    {
        auto span = log.layer("fault.crash_points");
        ctx.points = fault::enumerateCrashPoints(
            *ctx.module, ctx.config, {core::ThreadSpec{}},
            opt.pointsPerKind);
    }
    const core::CommitStream *stream =
        ctx.hasStream ? &ctx.stream : nullptr;
    std::uint64_t instrs = 0;
    if (cache && !ctx.points.points.empty()) {
        std::vector<Tick> ticks;
        for (const fault::CrashPoint &p : ctx.points.points)
            ticks.push_back(p.tick);
        std::sort(ticks.begin(), ticks.end());
        ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
        core::CheckpointRun cr;
        {
            auto span = log.layer("core.ckpt_capture");
            core::WholeSystemSim sim(*ctx.module, ctx.config);
            cr = sim.captureCheckpoints({core::ThreadSpec{}}, ticks,
                                        opt.maxInstrs, stream);
        }
        instrs = cr.result.instructions;
        for (const auto &ck : cr.checkpoints) {
            sink.checkpoint(ck->bytes());
            cache->insert(ctx.app + "|" + ctx.scheme + ":" +
                              std::to_string(ck->crashTick),
                          ck);
        }
        ctx.ckptCache = cache;
    } else if (stream) {
        auto span = log.layer("core.replay");
        core::RunResult r;
        {
            core::WholeSystemSim sim(*ctx.module, ctx.config);
            r = sim.runReplay(*stream, opt.maxInstrs);
        }
        sink.replay(ctx.scheme, span.end(), r.instructions);
        instrs = r.instructions;
    } else {
        auto span = log.layer("core.lockstep");
        core::WholeSystemSim sim(*ctx.module, ctx.config);
        instrs = sim.run("main", {}, opt.maxInstrs).instructions;
        sink.lockstep(instrs);
    }
    sink.golden(instrs);
}

void
tracedCampaign(const Inputs &in,
               const std::vector<fault::CampaignCase> &cases,
               driver::BatchRunner &pool, SpanLog &log, SampleSink &sink,
               TracedRep &rep)
{
    const fault::CampaignOptions &opt = in.campaignOptions;
    const std::vector<std::string> &schemes =
        opt.schemes.empty() ? fault::allSchemeNames() : opt.schemes;
    core::CheckpointCache *cache =
        opt.forkCheckpoints ? &pool.checkpointCache() : nullptr;

    std::vector<Context> contexts;
    for (const std::string &app : opt.apps) {
        const bool conc = workloads::findConcurrentApp(app) != nullptr;
        const std::uint32_t slots =
            conc ? std::max<std::uint32_t>(1, opt.numSchedules) : 1;
        for (const std::string &scheme : schemes) {
            for (std::uint32_t k = 0; k < slots; ++k) {
                Context ctx;
                ctx.app = app;
                ctx.scheme = scheme;
                ctx.concurrent = conc;
                ctx.ilvIndex = k;
                contexts.push_back(std::move(ctx));
            }
        }
    }
    std::vector<std::function<void()>> prep;
    for (std::size_t k = 0; k < contexts.size(); ++k) {
        prep.push_back([&, k]() {
            Context &ctx = contexts[k];
            auto task = log.task("context");
            ctx.config = core::makeSystemConfig(ctx.scheme);
            if (ctx.concurrent)
                buildConcurrentContext(ctx, opt, log, sink);
            else
                buildContext(ctx, opt, cache, log, sink);
        });
    }
    pool.runTasks(prep);

    std::map<std::string, const Context *> byKey;
    for (const Context &ctx : contexts)
        byKey[contextKey(ctx.app, ctx.scheme, ctx.ilvIndex)] = &ctx;

    std::vector<std::string> items(cases.size());
    // Not vector<bool>: tasks write neighbouring elements concurrently.
    std::vector<char> pass(cases.size(), 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        tasks.push_back([&, i]() {
            const fault::CampaignCase &c = cases[i];
            auto task = log.task("case");
            const Context &ctx =
                *byKey.at(contextKey(c.app, c.scheme, c.ilvIndex));
            fault::CaseResult r;
            {
                auto span = log.layer("fault.case");
                r = fault::runCase(c, refOf(ctx), opt.maxInstrs);
            }
            items[i] = verdictKey(r);
            pass[i] = r.pass;
            if (!ctx.concurrent)
                return;
            // runCase checks durable linearizability internally; re-run
            // the crash with its first failure captured to time the
            // checker on its own.
            core::CrashRunResult out;
            {
                auto span = log.layer("core.crash_rerun");
                core::SystemConfig cfg = ctx.config;
                cfg.scheme.interleave = c.interleave;
                core::WholeSystemSim sim(*ctx.module, cfg);
                sim.setCaptureFirstCrash(true);
                out = sim.runWithCrashes(ctx.threads, c.schedule, c.plan,
                                         opt.maxInstrs);
            }
            obs::DlResult dl; // vacuous: finished before the crash
            if (out.hasFirstCrash) {
                auto span = log.layer("obs.dl");
                dl = obs::checkDurableLinearizability(
                    ctx.cspec, ctx.cops, out.firstStores,
                    out.firstDurableImage, out.firstFullRestart);
                span.end();
                sink.dl(dl);
            }
            pass[i] = r.pass && r.dlVerdict == obs::dlOutcomeName(dl.outcome);
        });
    }
    pool.runTasks(tasks);
    rep.items = std::move(items);
    rep.pass.assign(pass.begin(), pass.end());
}

} // namespace

void
SampleSink::record(const core::CommitStream &s)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.recordSteps += s.steps;
    out_.recordOps += s.ops.size();
    out_.recordBytes += s.memoryBytes();
}

void
SampleSink::replay(const std::string &scheme, std::int64_t ns,
                   std::uint64_t instrs)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.replay.push_back(InstrSample{scheme, ns, instrs});
}

void
SampleSink::lockstep(std::uint64_t instrs)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.lockstepInstrs += instrs;
}

void
SampleSink::golden(std::uint64_t instrs)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.goldenInstrs += instrs;
}

void
SampleSink::checkpoint(std::size_t bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.ckptMb.push_back(static_cast<double>(bytes) / (1 << 20));
}

void
SampleSink::dl(const obs::DlResult &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    out_.dlStates.push_back(static_cast<double>(r.statesExplored));
    ++out_.dlChecked;
    out_.dlConclusive += r.outcome != obs::DlOutcome::Vacuous;
}

Inputs
makeInputs(const std::string &workload, std::uint64_t seed,
           unsigned jobs, bool smoke)
{
    Inputs in;
    in.workload = workload;
    in.jobs = jobs;
    const std::vector<workloads::AppProfile> roster = seededRoster(seed);
    auto app = [&](const std::string &name) {
        for (const workloads::AppProfile &a : roster)
            if (a.name == name)
                return a;
        throw std::invalid_argument("unknown app " + name);
    };

    if (workload == "sweep_apps") {
        std::vector<std::string> schemes = fault::allSchemeNames();
        std::vector<workloads::AppProfile> apps = roster;
        if (smoke) {
            schemes = {"baseline", "cwsp"};
            apps.resize(1);
        }
        for (const std::string &s : schemes)
            for (const workloads::AppProfile &a : apps)
                in.points.push_back(
                    driver::DesignPoint{a, core::makeSystemConfig(s)});
        return in;
    }
    if (workload == "sweep_configs") {
        std::vector<std::string> apps = {
            "astar", "lbm",  "libquantum", "xsbench", "tatp",  "sps",
            "namd",  "gobmk", "fft",       "radix",   "water-sp",
            "kmeans"};
        std::vector<core::SystemConfig> configs = configSweep();
        if (smoke) {
            apps.resize(1);
            configs.resize(2);
        }
        for (const core::SystemConfig &c : configs)
            for (const std::string &a : apps)
                in.points.push_back(driver::DesignPoint{app(a), c});
        return in;
    }

    // The campaigns take roster names, so the seed cannot reach their
    // kernels; they have no seeded input (README.md says why).
    in.campaign = true;
    fault::CampaignOptions &o = in.campaignOptions;
    o.jobs = jobs;
    if (workload == "crash_campaign") {
        o.apps = {"fft", "bzip2", "lbm", "tatp"};
    } else if (workload == "crash_campaign_large") {
        o.apps = {"astar"};
    } else if (workload == "concurrent_campaign") {
        o.apps = {"cstack", "cqueue", "chash"};
        o.numSchedules = 32;
    } else {
        throw std::invalid_argument("unknown workload " + workload);
    }
    if (smoke) {
        o.apps.resize(1);
        o.schemes = {"cwsp"};
        o.numSchedules = 1;
        o.pointsPerKind = 1;
    }
    return in;
}

E2eRep
runE2e(const Inputs &in, const std::string &cache_dir)
{
    E2eRep rep;
    if (in.campaign) {
        const Clock::time_point t0 = Clock::now();
        fault::CampaignReport report =
            fault::runCampaign(in.campaignOptions);
        rep.wallS = secondsSince(t0);
        for (const fault::CaseResult &r : report.cases) {
            rep.items.push_back(verdictKey(r));
            rep.pass.push_back(r.pass);
            rep.cases.push_back(r.c);
        }
        rep.ckpt = report.ckptCache;
        return rep;
    }

    namespace fs = std::filesystem;
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    driver::BatchConfig bc;
    bc.jobs = in.jobs;
    bc.cacheDir = cache_dir;
    const Clock::time_point t0 = Clock::now();
    {
        driver::BatchRunner runner(bc);
        rep.results = runner.runAll(in.points);
        rep.batch = runner.stats();
    }
    rep.wallS = secondsSince(t0);
    fs::remove_all(cache_dir);
    for (const core::RunResult &r : rep.results) {
        rep.items.push_back(resultKey(r));
        rep.simInstrs += r.instructions;
    }
    rep.pass.assign(rep.items.size(), true);
    return rep;
}

TracedRep
runTraced(const Inputs &in, const std::vector<fault::CampaignCase> &cases,
          SpanLog &log, SampleSink &sink)
{
    driver::BatchConfig bc;
    bc.jobs = in.jobs;
    bc.useDiskCache = false;
    driver::BatchRunner pool(bc);
    TracedRep rep;
    const Clock::time_point t0 = Clock::now();
    if (in.campaign)
        tracedCampaign(in, cases, pool, log, sink, rep);
    else
        tracedSweep(in, pool, log, sink, rep);
    rep.wallS = secondsSince(t0);
    return rep;
}

std::vector<std::pair<std::string, double>>
gmeanSlowdowns(const Inputs &in, const std::vector<core::RunResult> &r)
{
    std::map<std::string, Tick> base;
    for (std::size_t i = 0; i < in.points.size(); ++i)
        if (in.points[i].config.scheme.name == "baseline")
            base[in.points[i].app.name] = r[i].cycles;
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::size_t>> logSum;
    for (std::size_t i = 0; i < in.points.size(); ++i) {
        const std::string &scheme = in.points[i].config.scheme.name;
        auto b = base.find(in.points[i].app.name);
        if (scheme == "baseline" || b == base.end() || b->second == 0)
            continue;
        if (!logSum.count(scheme))
            order.push_back(scheme);
        auto &[sum, n] = logSum[scheme];
        sum += std::log(static_cast<double>(r[i].cycles) /
                        static_cast<double>(b->second));
        ++n;
    }
    std::vector<std::pair<std::string, double>> out;
    for (const std::string &s : order)
        out.emplace_back(s, std::exp(logSum[s].first /
                                     static_cast<double>(logSum[s].second)));
    return out;
}

} // namespace cwsp::bench_e2e
