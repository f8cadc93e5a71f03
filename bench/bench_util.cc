#include "bench_util.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "sim/logging.hh"

namespace cwsp::bench {

namespace {

/**
 * Process-wide bench state. The old implementation memoized runs in
 * a function-local `static std::map` with no locking — a latent data
 * race the moment two threads bench; everything here is guarded and
 * the simulations themselves run through the BatchRunner engine.
 */
struct BenchState
{
    std::mutex mu;
    driver::BatchConfig runnerConfig;
    std::unique_ptr<driver::BatchRunner> runner;
    /** (app.name | key) -> result; references handed out are stable. */
    std::map<std::string, core::RunResult> memo;
    /** Design points queued for benchMain's parallel prefetch. */
    std::vector<driver::DesignPoint> pending;
    std::vector<std::string> pendingMemoKeys;
    std::set<std::string> pendingSeen;
};

BenchState &
state()
{
    static BenchState s;
    return s;
}

/** The runner is created on first use with the configured options. */
driver::BatchRunner &
runnerLocked(BenchState &st)
{
    if (!st.runner)
        st.runner =
            std::make_unique<driver::BatchRunner>(st.runnerConfig);
    return *st.runner;
}

std::string
memoKey(const workloads::AppProfile &app, const std::string &key)
{
    return app.name + "|" + key;
}

} // namespace

driver::BatchRunner &
batchRunner()
{
    auto &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    return runnerLocked(st);
}

core::RunResult
runApp(const workloads::AppProfile &app,
       const core::SystemConfig &config)
{
    auto mod = workloads::buildApp(app, config.compiler);
    core::WholeSystemSim sim(*mod, config);
    return sim.run("main");
}

const core::RunResult &
cachedRun(const workloads::AppProfile &app,
          const core::SystemConfig &config, const std::string &key)
{
    auto &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    std::string full = memoKey(app, key);
    auto it = st.memo.find(full);
    if (it == st.memo.end()) {
        auto r = runnerLocked(st).run(
            driver::DesignPoint{app, config});
        it = st.memo.emplace(full, std::move(r)).first;
    }
    return it->second;
}

double
slowdown(const workloads::AppProfile &app,
         const core::SystemConfig &config,
         const core::SystemConfig &baseline_config,
         const std::string &config_key, core::RunResult *config_result,
         const std::string &baseline_key)
{
    const auto &base = cachedRun(app, baseline_config, baseline_key);
    const auto &run = cachedRun(app, config, config_key);
    if (config_result)
        *config_result = run;
    return static_cast<double>(run.cycles) /
           static_cast<double>(base.cycles);
}

double
gmean(const std::vector<double> &values)
{
    if (values.empty()) {
        cwsp_warn("gmean over an empty bucket — misconfigured sweep "
                  "or bar cases filtered out; reporting NaN");
        return std::numeric_limits<double>::quiet_NaN();
    }
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
registerMetric(const std::string &bench_name,
               const std::string &counter_name,
               std::function<double()> fn)
{
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [counter_name, fn](benchmark::State &state) {
            double value = 0.0;
            for (auto _ : state)
                value = fn();
            state.counters[counter_name] = value;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

void
prefetchPoint(const workloads::AppProfile &app,
              const core::SystemConfig &config, const std::string &key)
{
    auto &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    std::string full = memoKey(app, key);
    if (!st.pendingSeen.insert(full).second)
        return;
    st.pending.push_back(driver::DesignPoint{app, config});
    st.pendingMemoKeys.push_back(std::move(full));
}

void
registerSweep(const std::string &fig,
              const std::vector<SweepPoint> &points,
              const core::SystemConfig &baseline)
{
    // suite -> (app name -> slowdown), per point label. Keyed by app
    // so a re-run of a bar case (--benchmark_repetitions, repeated
    // --benchmark_filter selections) overwrites its own slot instead
    // of appending a duplicate bar that would skew the gmeans.
    using AppMap = std::map<std::string, double>;
    using Bucket = std::map<std::string, AppMap>;
    auto buckets = std::make_shared<std::map<std::string, Bucket>>();

    for (const auto &point : points) {
        const core::SystemConfig &base =
            point.baselineOverride ? *point.baselineOverride
                                   : baseline;
        const std::string base_key = point.baselineKey;
        const std::string point_key = fig + "-" + point.label;
        for (const auto &app : workloads::appTable()) {
            prefetchPoint(app, base, base_key);
            prefetchPoint(app, point.config, point_key);
            registerMetric(
                fig + "/" + point.label + "/" + app.suite + "/" +
                    app.name,
                "slowdown",
                [app, point, base, base_key, point_key, buckets]() {
                    double s = slowdown(app, point.config, base,
                                        point_key, nullptr, base_key);
                    (*buckets)[point.label][app.suite][app.name] = s;
                    (*buckets)[point.label]["all"][app.name] = s;
                    return s;
                });
        }
        std::vector<std::string> groups = workloads::suiteNames();
        groups.push_back("all");
        for (const auto &suite : groups) {
            registerMetric(fig + "/" + point.label + "/gmean/" + suite,
                           "slowdown", [point, suite, buckets]() {
                               std::vector<double> values;
                               for (const auto &[name, s] :
                                    (*buckets)[point.label][suite])
                                   values.push_back(s);
                               return gmean(values);
                           });
        }
    }
}

int
benchMain(int argc, char **argv)
{
    unsigned jobs = 0;
    bool use_disk = true;
    std::string cache_dir;
    std::string stats_json;

    // Strip our flags before google-benchmark parses argv.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            if (a.compare(0, n, flag) != 0)
                return nullptr;
            if (a.size() > n && a[n] == '=')
                return argv[i] + n + 1;
            if (a.size() == n && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value("--jobs")) {
            jobs = static_cast<unsigned>(std::atoi(v));
        } else if (const char *v = value("--cache-dir")) {
            cache_dir = v;
        } else if (const char *v = value("--stats-json")) {
            stats_json = v;
        } else if (a == "--no-result-cache") {
            use_disk = false;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;

    {
        auto &st = state();
        std::lock_guard<std::mutex> lk(st.mu);
        cwsp_assert(!st.runner,
                    "benchMain must configure the runner before any "
                    "cachedRun call");
        st.runnerConfig.jobs = jobs;
        st.runnerConfig.useDiskCache = use_disk;
        st.runnerConfig.cacheDir = cache_dir;
    }

    benchmark::Initialize(&argc, argv);

    // Parallel prefetch: evaluate every registered design point
    // across the worker pool (sharing compiled modules and hitting
    // the persistent cache) before the single-threaded cases run.
    std::vector<driver::DesignPoint> points;
    std::vector<std::string> keys;
    {
        auto &st = state();
        std::lock_guard<std::mutex> lk(st.mu);
        points.swap(st.pending);
        keys.swap(st.pendingMemoKeys);
        st.pendingSeen.clear();
    }
    if (!points.empty()) {
        auto &runner = batchRunner();
        auto results = runner.runAll(points);
        auto &st = state();
        std::lock_guard<std::mutex> lk(st.mu);
        for (std::size_t i = 0; i < results.size(); ++i)
            st.memo.emplace(keys[i], std::move(results[i]));
        auto s = runner.stats();
        std::fprintf(stderr,
                     "batch: %zu points (%llu simulated, %llu disk "
                     "hits, %llu memory hits), %llu compiles (%llu "
                     "module-cache hits), %llu streams recorded, "
                     "%llu replayed, %llu interpreted, jobs=%u\n",
                     points.size(),
                     (unsigned long long)s.simulated,
                     (unsigned long long)s.diskHits,
                     (unsigned long long)s.memoryHits,
                     (unsigned long long)s.modulesCompiled,
                     (unsigned long long)s.moduleCacheHits,
                     (unsigned long long)s.streamsRecorded,
                     (unsigned long long)s.replayedRuns,
                     (unsigned long long)s.interpretedRuns,
                     jobs != 0 ? jobs
                               : std::max(
                                     1u,
                                     std::thread::
                                         hardware_concurrency()));
    }

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Component stats aggregated over every point this process
    // actually simulated (cache hits contribute nothing — their
    // stats were folded in when the point was first computed).
    if (!stats_json.empty()) {
        std::ofstream f(stats_json);
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         stats_json.c_str());
            return 1;
        }
        batchRunner().exportAggregateJson(f);
    }
    return 0;
}

} // namespace cwsp::bench
