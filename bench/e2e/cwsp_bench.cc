/**
 * @file
 * cwsp_bench: the end-to-end benchmark of the cWSP simulator, one
 * workload per process (README.md explains the workloads and metrics):
 *
 *   cwsp_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
 *              [--out DIR] [--smoke]
 *
 * --trace 0 repeats the workload through its public entry point for T
 * seconds and reports the end-to-end metrics. --trace 1 alternates
 * those repetitions with traced ones, which time every layer call,
 * and reports the per-layer metrics. Both check
 * the outputs: repetitions must agree bit for bit, every crash case
 * must pass, the traced decomposition must reproduce the end-to-end
 * results, and at seed 1 the outputs must match the pinned digest.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. The full report, with quartiles, goes
 * to DIR/result-W-seedS-traceT.json and the trace to
 * DIR/trace-W-seedS.json (Chrome trace-event format). Exit status is 0
 * only when every check passed.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_workloads.hh"
#include "sim/hash.hh"

extern char **environ;

using namespace cwsp;
using namespace cwsp::bench_e2e;
namespace fs = std::filesystem;

namespace {

/**
 * FNV-1a digests of the simulated outputs at seed 1: every RunResult
 * field of every point, or every case's verdict tuple, in input order
 * (plus the model line for sweep_apps). A change that is meant to
 * leave simulated results alone must leave these alone; one that
 * changes the model on purpose updates them.
 */
const std::map<std::string, std::string> kPinnedDigests = {
    {"sweep_apps", "8fc82dedf5a795af"},
    {"sweep_configs", "e6d6cee50e9983ff"},
    {"crash_campaign", "435681c65f71416f"},
    {"crash_campaign_large", "98a6d4c1ba542301"},
    {"concurrent_campaign", "2b1ae700013fc2cd"},
};

/** Paper values of the 38-app gmean slowdown (EXPERIMENTS.md). */
const std::map<std::string, double> kPaperSlowdown = {
    {"cwsp", 1.06}, {"capri", 1.27}, {"replaycache", 4.3}};

/**
 * setup_s is the median of kSetupSamples samples, each the mean of
 * kSpawnsPerSample set-up processes run back to back: one spawn takes
 * about 2 ms, and averaging a few damps the kernel's jitter.
 */
constexpr int kSetupSamples = 9;
constexpr int kSpawnsPerSample = 5;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/out";
    bool smoke = false;
    bool setupOnly = false;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_bench --workload W [--seed S] [--seconds T]\n"
        "                  [--trace 0|1] [--out DIR] [--smoke]\n"
        "  workloads: sweep_apps sweep_configs crash_campaign\n"
        "             crash_campaign_large concurrent_campaign\n");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            a.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value());
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out = value();
        } else if (flag == "--smoke") {
            a.smoke = true;
        } else if (flag == "--setup-only") {
            a.setupOnly = true;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

/** min(4, CPUs this process may run on). */
unsigned
benchJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned n = 0;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        n = static_cast<unsigned>(CPU_COUNT(&set));
    if (n == 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, n);
}

/**
 * The set-up a user pays before a batch starts: process start, static
 * initialization, input generation, an empty cache directory and the
 * runner, and teardown. Run as its own process by spawnSetup().
 */
int
setupOnly(const Args &a, unsigned jobs)
{
    Inputs in = makeInputs(a.workload, a.seed, jobs, a.smoke);
    const std::string dir =
        a.out + "/setup-" + std::to_string(::getpid());
    fs::create_directories(dir);
    {
        driver::BatchConfig bc;
        bc.jobs = jobs;
        bc.cacheDir = dir;
        driver::BatchRunner runner(bc);
    }
    fs::remove_all(dir);
    return in.points.empty() && in.campaignOptions.apps.empty() ? 1 : 0;
}

/** Mean wall time of @p n `--setup-only` children, spawn to exit. */
double
spawnSetup(const Args &a, int n)
{
    std::vector<std::string> args = {
        "cwsp_bench", "--setup-only", "--workload", a.workload,
        "--seed",     std::to_string(a.seed), "--out", a.out};
    if (a.smoke)
        args.push_back("--smoke");
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < n; ++k) {
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                        argv.data(), environ) != 0)
            throw std::runtime_error("cannot spawn the set-up process");
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0) {
            if (errno != EINTR)
                throw std::runtime_error("waitpid failed");
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("the set-up process failed");
    }
    return secondsSince(t0) / n;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Python's statistics.quantiles(..., method="exclusive") cut @p i of
 *  @p parts, over sorted data of at least two values. */
double
cut(const std::vector<double> &d, long i, long parts)
{
    const long n = static_cast<long>(d.size());
    const long j = std::clamp((n + 1) * i / parts, 1L, n - 1);
    const double delta = static_cast<double>((n + 1) * i - j * parts);
    return (d[j - 1] * (static_cast<double>(parts) - delta) + d[j] * delta) /
           static_cast<double>(parts);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return kNaN;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** p90 needs ten samples beyond it: null below 100 samples. */
double
p90(std::vector<double> v)
{
    if (v.size() < 100)
        return kNaN;
    std::sort(v.begin(), v.end());
    return cut(v, 9, 10);
}

struct Metric
{
    std::string name;
    std::string unit;
    std::string better; ///< end-to-end metrics only
    bool listed = false; ///< in BENCHMARK.json's metric lists
    std::vector<double> samples; ///< end-to-end: one per rep or spawn
    double value = kNaN;         ///< NaN: does not apply here
    std::size_t n = 0;
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
brief(double v)
{
    if (!std::isfinite(v))
        return "n/a";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    void fail(const std::string &msg) { errors.push_back(msg); }
    bool ok() const { return failed == 0 && errors.empty(); }

    /**
     * Count one repetition's items against the first end-to-end one:
     * an item fails when it did not pass or differs bit for bit.
     */
    void
    items(const std::string &what, const std::vector<std::string> &got,
          const std::vector<bool> &pass,
          const std::vector<std::string> &ref)
    {
        attempted += got.size();
        if (got.size() != ref.size()) {
            failed += got.size();
            fail(what + ": " + std::to_string(got.size()) +
                 " items, first repetition had " +
                 std::to_string(ref.size()));
            return;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] == ref[i] && pass[i])
                continue;
            if (++failed <= 5)
                fail(what + " item " + std::to_string(i) + ": " +
                     (got[i] == ref[i] ? "did not pass: " + got[i]
                                       : got[i] + " != " + ref[i]));
        }
    }
};

std::vector<Metric>
endToEndMetrics(const Inputs &in, const std::vector<E2eRep> &reps,
                const std::vector<double> &setup_s, const Checks &ck)
{
    Metric items{"items_per_s", "items/s", "higher", true, {}};
    Metric mips{"sim_mips", "Minstr/s", "higher", false, {}};
    for (const E2eRep &r : reps) {
        items.samples.push_back(static_cast<double>(reps[0].items.size()) /
                                r.wallS);
        if (!in.campaign)
            mips.samples.push_back(static_cast<double>(r.simInstrs) /
                                   r.wallS / 1e6);
    }
    Metric setup{"setup_s", "s", "lower", true, setup_s};
    Metric rss{"peak_rss_mb", "MiB", "lower", true, {peakRssMb()}};
    Metric failed{"failed_frac", "frac", "lower", false,
                  {static_cast<double>(ck.failed) /
                   static_cast<double>(std::max<std::size_t>(1, ck.attempted))}};
    std::vector<Metric> out = {items, mips, setup, rss, failed};
    for (Metric &m : out) {
        m.value = median(m.samples);
        m.n = m.samples.size();
    }
    return out;
}

std::vector<Metric>
layerMetrics(const Inputs &in, const std::vector<E2eRep> &reps,
             const std::vector<TracedRep> &traced, const SpanLog &log,
             const SampleSink &sink, Checks &ck)
{
    // Layer span durations by name; task totals and their children.
    std::map<std::string, std::vector<double>> dur;
    std::map<std::uint64_t, std::int64_t> taskNs, childNs;
    std::int64_t taskTotal = 0, layerTotal = 0;
    for (const Span &s : log.spans()) {
        if (s.parent == 0) {
            taskNs[s.id] = s.durNs;
            taskTotal += s.durNs;
        } else {
            dur[s.name].push_back(static_cast<double>(s.durNs));
            childNs[s.parent] += s.durNs;
            layerTotal += s.durNs;
        }
    }
    for (const auto &[parent, ns] : childNs) {
        auto it = taskNs.find(parent);
        if (it == taskNs.end())
            ck.fail("trace: a layer span has no task span");
        else if (ns > it->second)
            ck.fail("trace: layer spans exceed their task span");
    }

    const TraceSamples &samples = sink.samples();

    auto total = [&](const char *name) {
        double t = 0.0;
        for (double v : dur[name])
            t += v;
        return t;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : kNaN; };
    auto scaled = [](std::vector<double> v, double k) {
        for (double &x : v)
            x *= k;
        return v;
    };
    const double tasks = static_cast<double>(taskTotal);
    const double nTraced = static_cast<double>(traced.size());

    std::vector<Metric> out;
    auto add = [&](const std::string &name, const std::string &unit,
                   double value, std::size_t n, bool listed = false) {
        out.push_back(Metric{name, unit, "", listed, {}, value, n});
    };
    auto latency = [&](const std::string &prefix, const std::string &unit,
                       const std::vector<double> &v) {
        add(prefix + "_p50", unit, median(v), v.size());
        add(prefix + "_p90", unit, p90(v), v.size());
    };
    // One share per layer span name; with trace.other_share they tile
    // the task time (checked below).
    std::int64_t sharedNs = 0;
    auto share = [&](const std::string &metric, const char *span) {
        sharedNs += static_cast<std::int64_t>(total(span));
        add(metric, "frac", ratio(total(span), tasks), dur[span].size(),
            true);
    };

    const std::vector<double> &builds = dur["compiler.build"];
    add("compiler.build_ms_p50", "ms", median(scaled(builds, 1e-6)),
        builds.size(), true);
    add("compiler.build_ms_p90", "ms", p90(scaled(builds, 1e-6)),
        builds.size());
    add("compiler.builds", "count",
        static_cast<double>(builds.size()) / nTraced, builds.size(), true);
    share("compiler.share", "compiler.build");

    add("interp.record_ns_per_instr", "ns/instr",
        ratio(total("interp.record"),
              static_cast<double>(samples.recordSteps)),
        dur["interp.record"].size());
    share("interp.record_share", "interp.record");
    add("interp.stream_ops_per_instr", "ops/instr",
        ratio(static_cast<double>(samples.recordOps),
              static_cast<double>(samples.recordSteps)),
        dur["interp.record"].size(), true);
    add("interp.stream_bytes_per_instr", "B/instr",
        ratio(static_cast<double>(samples.recordBytes),
              static_cast<double>(samples.recordSteps)),
        dur["interp.record"].size(), true);
    add("interp.golden_ns_per_instr", "ns/instr",
        ratio(total("interp.golden"),
              static_cast<double>(samples.goldenInstrs)),
        dur["interp.golden"].size());
    share("interp.golden_share", "interp.golden");

    {
        struct Acc
        {
            double ns = 0.0, instrs = 0.0;
            std::size_t n = 0;
            void
            add(const InstrSample &s)
            {
                ns += static_cast<double>(s.ns);
                instrs += static_cast<double>(s.instrs);
                ++n;
            }
        };
        Acc all;
        std::map<std::string, Acc> byScheme;
        for (const InstrSample &s : samples.replay) {
            all.add(s);
            byScheme[s.scheme].add(s);
        }
        add("core.replay_ns_per_instr", "ns/instr",
            ratio(all.ns, all.instrs), all.n);
        for (const std::string &scheme : fault::allSchemeNames()) {
            const Acc &s = byScheme[scheme];
            add("core.replay_ns_per_instr." + scheme, "ns/instr",
                ratio(s.ns, s.instrs), s.n);
        }
    }
    share("core.replay_share", "core.replay");
    latency("core.sim_ms", "ms", scaled(dur["core.replay"], 1e-6));
    add("core.lockstep_ns_per_instr", "ns/instr",
        ratio(total("core.lockstep"),
              static_cast<double>(samples.lockstepInstrs)),
        dur["core.lockstep"].size());
    share("core.lockstep_share", "core.lockstep");
    latency("core.ckpt_capture_ms", "ms",
            scaled(dur["core.ckpt_capture"], 1e-6));
    latency("core.ckpt_mb", "MiB", samples.ckptMb);
    share("core.ckpt_share", "core.ckpt_capture");
    share("core.crash_rerun_share", "core.crash_rerun");

    latency("fault.crash_points_ms", "ms",
            scaled(dur["fault.crash_points"], 1e-6));
    share("fault.crash_points_share", "fault.crash_points");
    latency("fault.case_ms", "ms", scaled(dur["fault.case"], 1e-6));
    share("fault.case_share", "fault.case");
    add("fault.cases", "count",
        static_cast<double>(dur["fault.case"].size()) / nTraced,
        dur["fault.case"].size(), true);
    {
        std::vector<double> forkRatio, evictions, residentMb;
        for (const E2eRep &r : reps) {
            if (!in.campaign || !r.ckpt.enabled)
                continue;
            evictions.push_back(static_cast<double>(r.ckpt.evictions));
            residentMb.push_back(static_cast<double>(r.ckpt.bytesResident) /
                                 (1 << 20));
            if (r.ckpt.forks + r.ckpt.fallbacks)
                forkRatio.push_back(
                    static_cast<double>(r.ckpt.forks) /
                    static_cast<double>(r.ckpt.forks + r.ckpt.fallbacks));
        }
        add("fault.ckpt_fork_ratio", "ratio", median(forkRatio),
            forkRatio.size(), true);
        add("fault.ckpt_evictions", "count", median(evictions),
            evictions.size(), true);
        add("fault.ckpt_resident_mb", "MiB", median(residentMb),
            residentMb.size(), true);
    }

    latency("obs.dl_check_us", "us", scaled(dur["obs.dl"], 1e-3));
    latency("obs.dl_states", "states", samples.dlStates);
    share("obs.dl_share", "obs.dl");
    add("obs.dl_conclusive_ratio", "ratio",
        ratio(static_cast<double>(samples.dlConclusive),
              static_cast<double>(samples.dlChecked)),
        samples.dlChecked, true);

    std::vector<double> tracedWall, e2eWall, streamReuse, moduleReuse;
    for (const TracedRep &t : traced)
        tracedWall.push_back(t.wallS);
    for (const E2eRep &r : reps) {
        e2eWall.push_back(r.wallS);
        if (in.campaign)
            continue;
        if (r.batch.streamsRecorded)
            streamReuse.push_back(
                static_cast<double>(r.batch.replayedRuns) /
                static_cast<double>(r.batch.streamsRecorded));
        if (r.batch.modulesCompiled)
            moduleReuse.push_back(
                static_cast<double>(reps[0].items.size()) /
                static_cast<double>(r.batch.modulesCompiled));
    }
    double tracedSum = 0.0;
    for (double w : tracedWall)
        tracedSum += w;
    add("driver.parallel_efficiency", "ratio",
        ratio(tasks * 1e-9, in.jobs * tracedSum), traced.size(), true);
    add("driver.stream_reuse", "ratio", median(streamReuse),
        streamReuse.size(), true);
    add("driver.module_reuse", "ratio", median(moduleReuse),
        moduleReuse.size(), true);
    add("trace.overhead_frac", "frac",
        ratio(median(tracedWall) - median(e2eWall), median(e2eWall)),
        traced.size(), true);
    add("trace.other_share", "frac",
        ratio(static_cast<double>(taskTotal - layerTotal), tasks),
        taskNs.size(), true);

    // The shares and trace.other_share tile the task time exactly, in
    // integer nanoseconds: every layer span has a share metric.
    if (taskTotal <= 0 || sharedNs != layerTotal ||
        layerTotal > taskTotal)
        ck.fail("trace: layer shares plus trace.other_share do not "
                "sum to 1");
    return out;
}

std::string
digestOf(const std::vector<std::string> &items,
         const std::vector<std::string> &extra)
{
    std::uint64_t h = fnv1a64("");
    for (const std::vector<std::string> *v : {&items, &extra})
        for (const std::string &s : *v)
            h = fnv1a64(s + "\n", h);
    return hex64(h);
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        if (m.better.empty()) {
            std::printf("  %-36s %-9s %12s  n %zu\n", m.name.c_str(),
                        m.unit.c_str(), brief(m.value).c_str(), m.n);
            continue;
        }
        std::vector<double> v = m.samples;
        std::sort(v.begin(), v.end());
        const bool q = v.size() >= 2;
        std::printf("  %-36s %-9s median %-11s q1 %-11s q3 %-11s n %zu"
                    "  (%s is better)\n",
                    m.name.c_str(), m.unit.c_str(), brief(m.value).c_str(),
                    brief(q ? cut(v, 1, 4) : m.value).c_str(),
                    brief(q ? cut(v, 3, 4) : m.value).c_str(), m.n,
                    m.better.c_str());
    }
}

void
writeReport(const std::string &path, const Args &a, unsigned jobs,
            std::size_t e2e_reps, std::size_t traced_reps,
            const std::vector<Metric> &metrics, const Checks &ck,
            const std::string &digest, const std::string &pinned,
            const std::vector<std::pair<std::string, double>> &model)
{
    std::ofstream f(path);
    f << "{\"workload\": " << jsonString(a.workload)
      << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
      << ", \"smoke\": " << (a.smoke ? "true" : "false")
      << ", \"jobs\": " << jobs << ", \"seconds\": " << num(a.seconds)
      << ", \"e2e_reps\": " << e2e_reps
      << ", \"traced_reps\": " << traced_reps
      << ",\n \"correct\": " << (ck.ok() ? "true" : "false")
      << ", \"attempted\": " << ck.attempted
      << ", \"failed\": " << ck.failed
      << ", \"digest\": " << jsonString(digest) << ", \"pinned_digest\": "
      << (pinned.empty() ? "null" : jsonString(pinned))
      << ",\n \"errors\": [";
    for (std::size_t i = 0; i < ck.errors.size(); ++i)
        f << (i ? ", " : "") << jsonString(ck.errors[i]);
    f << "],\n \"model\": {";
    for (std::size_t i = 0; i < model.size(); ++i)
        f << (i ? ", " : "") << jsonString(model[i].first) << ": "
          << num(model[i].second);
    f << "},\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        f << (i ? ",\n  " : "\n  ") << jsonString(m.name)
          << ": {\"unit\": " << jsonString(m.unit);
        if (!m.better.empty()) {
            std::vector<double> v = m.samples;
            std::sort(v.begin(), v.end());
            const bool q = v.size() >= 2;
            f << ", \"better\": " << jsonString(m.better)
              << ", \"median\": " << num(m.value)
              << ", \"q1\": " << num(q ? cut(v, 1, 4) : m.value)
              << ", \"q3\": " << num(q ? cut(v, 3, 4) : m.value)
              << ", \"min\": " << num(v.empty() ? kNaN : v.front())
              << ", \"max\": " << num(v.empty() ? kNaN : v.back())
              << ", \"samples\": [";
            for (std::size_t k = 0; k < m.samples.size(); ++k)
                f << (k ? ", " : "") << num(m.samples[k]);
            f << "]";
        } else {
            f << ", \"value\": " << num(m.value);
        }
        f << ", \"n\": " << m.n << "}";
    }
    f << "\n}}\n";
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

int
runMain(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        usage();
        return 2;
    }
    const unsigned jobs = benchJobs();
    if (a.setupOnly)
        return setupOnly(a, jobs);
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    if (!a.smoke) {
        std::fprintf(stderr, "cwsp_bench: refusing to time a debug or "
                             "sanitizer build (use a Release build)\n");
        return 2;
    }
#endif
    fs::create_directories(a.out);
    const Inputs in = makeInputs(a.workload, a.seed, jobs, a.smoke);
    std::vector<double> setupS;
    for (int k = 0; k < (a.smoke ? 1 : kSetupSamples); ++k)
        setupS.push_back(spawnSetup(a, a.smoke ? 1 : kSpawnsPerSample));

    // Repeat while one more round still fits in the time. Each
    // repetition is checked as it ends and only the first keeps its
    // outputs, so the peak RSS does not grow with the count. Traced
    // repetitions alternate with end-to-end ones, so both see the same
    // machine and trace.overhead_frac compares like with like.
    Checks ck;
    const std::string cacheDir =
        a.out + "/cache-" + std::to_string(::getpid());
    SpanLog log;
    SampleSink sink;
    std::vector<E2eRep> reps;
    std::vector<TracedRep> traced;
    const Clock::time_point t0 = Clock::now();
    auto oneMoreFits = [&]() {
        const double n = static_cast<double>(reps.size());
        return secondsSince(t0) * (n + 1.0) / n <= a.seconds;
    };
    do {
        E2eRep r = runE2e(in, cacheDir);
        ck.items("repetition " + std::to_string(reps.size()), r.items,
                 r.pass, reps.empty() ? r.items : reps[0].items);
        if (!reps.empty()) {
            r.items = {};
            r.pass = {};
            r.results = {};
            r.cases = {};
        }
        reps.push_back(std::move(r));
        if (!a.trace)
            continue;
        TracedRep t = runTraced(in, reps[0].cases, log, sink);
        ck.items("traced repetition " + std::to_string(traced.size()),
                 t.items, t.pass, reps[0].items);
        t.items = {};
        t.pass = {};
        traced.push_back(std::move(t));
    } while (!a.smoke && oneMoreFits());
    const std::vector<std::string> &ref = reps[0].items;
    if (ck.attempted == 0)
        ck.fail("the workload has no items");

    std::vector<std::pair<std::string, double>> model;
    std::vector<std::string> modelLines;
    if (a.workload == "sweep_apps" && a.seed == 1 && !a.smoke) {
        model = gmeanSlowdowns(in, reps[0].results);
        for (const auto &[scheme, g] : model) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6f", g);
            modelLines.push_back("model.gmean_slowdown." + scheme + " " +
                                 buf);
        }
    }
    const std::string digest = digestOf(ref, modelLines);
    std::string pinned;
    if (a.seed == 1 && !a.smoke) {
        auto it = kPinnedDigests.find(a.workload);
        pinned = it == kPinnedDigests.end() ? "" : it->second;
        if (pinned.empty())
            ck.fail("no pinned digest for " + a.workload);
        else if (digest != pinned)
            ck.fail("digest " + digest + " differs from the pinned " +
                    pinned + ": simulated outputs changed");
    }

    const std::vector<Metric> metrics =
        a.trace ? layerMetrics(in, reps, traced, log, sink, ck)
                : endToEndMetrics(in, reps, setupS, ck);
    const std::string stem =
        a.out + "/" + a.workload + "-seed" + std::to_string(a.seed);
    if (a.trace) {
        std::ofstream f(stem + "-trace.json");
        log.writeChromeTrace(f);
        if (!f)
            throw std::runtime_error("cannot write the trace file");
    }
    writeReport(stem + "-trace" + std::to_string(a.trace) + ".json", a,
                jobs, reps.size(), traced.size(), metrics, ck, digest,
                pinned, model);

    std::printf("%s seed %llu: %zu end-to-end and %zu traced "
                "repetitions, jobs %u, %zu items, %zu failed\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                reps.size(), traced.size(), jobs, ck.attempted, ck.failed);
    printMetrics(metrics);
    for (const auto &[scheme, g] : model) {
        auto paper = kPaperSlowdown.find(scheme);
        std::printf("  model.gmean_slowdown.%-15s %.4f  (paper %s)\n",
                    scheme.c_str(), g,
                    paper == kPaperSlowdown.end()
                        ? "n/a"
                        : brief(paper->second).c_str());
    }
    if (!model.empty())
        std::printf("  The paper's values come from its gem5 model, not "
                    "from hardware; this model is otherwise "
                    "unvalidated.\n");
    std::printf("  digest %s (%s)\n", digest.c_str(),
                pinned.empty() ? "not pinned at this seed"
                               : (digest == pinned ? "matches the pinned one"
                                                   : "MISMATCH"));
    for (const std::string &e : ck.errors)
        std::printf("  CHECK FAILED: %s\n", e.c_str());

    std::string line = "{\"correct\": ";
    line += ck.ok() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(ck.attempted) +
            ", \"failed\": " + std::to_string(ck.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        if (!m.listed)
            continue;
        line += (first ? "" : ", ") + jsonString(m.name) +
                ": {\"value\": " +
                num(std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    return ck.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cwsp_bench: %s\n", e.what());
        return 1;
    }
}
