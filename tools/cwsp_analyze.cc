/**
 * @file
 * Persistence analyzer: consume the simulator's trace streams and
 * stats JSON and produce the observability reports —
 *
 *   cwsp_analyze --attribution --scheme cwsp --app all
 *       per-cause stall attribution table (exact-sum checked)
 *   cwsp_analyze --spans --scheme cwsp --app fft
 *       region lifecycle phase summary (execute/drain/order-wait)
 *   cwsp_analyze --check-invariants [--scheme all --suite splash3]
 *       batch smoke with the online invariant monitor attached;
 *       exit 1 on any protocol violation
 *   cwsp_analyze --diff OLD.json NEW.json [--threshold 0.05]
 *       baseline differ over two stats/BENCH_summary JSON files;
 *       exit 1 when a metric regressed beyond the threshold
 *   cwsp_analyze --whatif [--scheme all --app fft,bzip2]
 *       counterfactual per-resource overhead waterfalls with the
 *       stall-attribution cross-check (obs/whatif_profiler.hh) and
 *       the knob-sensitivity ranking; --report-json writes the JSON
 *       form bench_all.sh folds into BENCH_summary.json
 *
 * Span/attribution modes run each (scheme, app) point directly with
 * a full-mask TraceBuffer attached; --crash FRAC additionally
 * replays the point with a power failure at FRAC of its run length
 * and checks the crash/recovery invariants on that stream too.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "fault/campaign.hh"
#include "obs/baseline_diff.hh"
#include "obs/invariant_monitor.hh"
#include "obs/recovery_report.hh"
#include "obs/span_builder.hh"
#include "obs/stall_attribution.hh"
#include "obs/whatif_profiler.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_analyze [mode] [selection]\n"
        "modes (default --attribution):\n"
        "  --attribution          per-cause stall attribution table\n"
        "  --spans                region lifecycle phase summary\n"
        "  --check-invariants     online invariant monitor; exit 1 on"
        " violations\n"
        "  --diff OLD NEW         compare two stats-JSON files; exit 1"
        " on regressions\n"
        "  --whatif               per-resource what-if waterfalls +"
        " knob sensitivity\n"
        "                         (markdown to stdout; --report-json"
        " FILE for JSON)\n"
        "  --recovery-report FILE per-scheme recovery-latency vs."
        " runtime-overhead\n"
        "                         Pareto table from a fault-campaign"
        " JSON (markdown\n"
        "                         to stdout; --report-json FILE for"
        " the JSON form)\n"
        "  --validate-trace FILE  validate a Chrome/Perfetto trace:"
        " parse + counter\n"
        "                         tracks monotone in time; exit 1 on"
        " findings\n"
        "  --trajectory-append TRAJ SUMMARY\n"
        "                         append a labeled headline-metric"
        " snapshot of\n"
        "                         SUMMARY to the TRAJ JSON array"
        " (creates it)\n"
        "selection (run modes):\n"
        "  --scheme NAME|all      scheme(s) to run (default cwsp)\n"
        "  --app NAME[,NAME]|all  app(s) to run (default fft)\n"
        "  --suite NAME           all apps of one suite\n"
        "  --crash FRAC           also crash at FRAC of run length and"
        " check recovery\n"
        "  --trace-cap N          trace ring capacity (default 2^20)\n"
        "  --jobs N               worker threads for batch"
        " --check-invariants and --whatif\n"
        "  --no-result-cache      bypass the persistent result"
        " cache\n"
        "what-if options:\n"
        "  --no-sensitivity       skip the knob-sensitivity pass\n"
        "diff options:\n"
        "  --threshold F          relative change flagged (default"
        " 0.05)\n"
        "  --ignore SUBSTR        skip metrics containing SUBSTR"
        " (repeatable)\n"
        "trajectory options:\n"
        "  --label NAME           entry label (default: unlabeled)\n"
        "  --date DATE            entry date string (optional)\n"
        "  --keep SUBSTR          replace the kept-metric filter with"
        " SUBSTR (repeatable)\n");
}

std::vector<std::string>
resolveSchemes(const std::string &spec)
{
    const auto &all = fault::allSchemeNames();
    if (spec == "all")
        return all;
    std::string names;
    for (const auto &s : all) {
        if (spec == s)
            return {spec};
        names += s + ", ";
    }
    cwsp_fatal("unknown scheme '", spec, "'; valid: ", names, "all");
    return {};
}

std::vector<workloads::AppProfile>
resolveApps(const std::string &app_spec, const std::string &suite)
{
    if (!suite.empty()) {
        auto apps = workloads::appsBySuite(suite);
        if (apps.empty()) {
            std::string names;
            for (const auto &s : workloads::suiteNames())
                names += names.empty() ? s : ", " + s;
            cwsp_fatal("unknown suite '", suite, "'; valid: ", names);
        }
        return apps;
    }
    if (app_spec == "all")
        return workloads::appTable();
    std::vector<workloads::AppProfile> apps;
    std::istringstream list(app_spec);
    for (std::string name; std::getline(list, name, ',');)
        if (!name.empty())
            apps.push_back(workloads::appByName(name));
    if (apps.empty())
        cwsp_fatal("no apps selected");
    return apps;
}

struct RunOptions
{
    bool spans = false;
    bool attribution = false;
    bool checkInvariants = false;
    double crashFrac = -1.0;
    std::uint64_t traceCap = 1u << 20;
};

/**
 * Run one (scheme, app) point with a full-mask trace attached and
 * feed the requested analyses. Returns the number of invariant
 * violations observed (0 when not checking).
 */
std::uint64_t
analyzePoint(const std::string &scheme,
             const workloads::AppProfile &app, const RunOptions &opt,
             std::vector<obs::AttributionRow> &rows)
{
    auto cfg = core::makeSystemConfig(scheme);
    auto mod = workloads::buildApp(app, cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim::TraceBuffer trace(opt.traceCap, sim::kTraceAll);
    sim.attachTrace(&trace);

    obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
        cfg.hierarchy.wpqCapacity, 8, 16});
    if (opt.checkInvariants)
        sim.attachTraceSink(&monitor);

    auto result = sim.run("main");
    monitor.finish();
    std::uint64_t violations = monitor.violationCount();
    auto events = trace.snapshot();

    if (opt.attribution) {
        auto attr = obs::attributeStalls(events);
        rows.push_back({scheme, app.name, attr, result.cycles});
    }
    if (opt.spans) {
        auto spans = obs::buildSpans(events);
        std::cout << "== spans: " << scheme << " / " << app.name
                  << " (" << result.cycles << " cycles) ==\n";
        obs::printSpanSummary(std::cout,
                              obs::summarizeSpans(spans));
    }
    if (opt.checkInvariants && !monitor.clean())
        obs::printViolations(std::cerr, monitor.violations());

    if (opt.crashFrac >= 0.0) {
        Tick crash = static_cast<Tick>(
            static_cast<double>(result.cycles) * opt.crashFrac);
        if (crash == 0)
            crash = 1;
        monitor.reset();
        trace.clear();
        auto out = sim.runWithCrash(
            std::vector<core::ThreadSpec>(cfg.numCores), crash);
        monitor.finish();
        violations += monitor.violationCount();
        std::printf("crash %s/%s @%llu: crashed=%d reverted=%llu "
                    "reexec=%llu\n",
                    scheme.c_str(), app.name.c_str(),
                    (unsigned long long)crash, out.crashed ? 1 : 0,
                    (unsigned long long)out.revertedStores,
                    (unsigned long long)out.reexecutedInstrs);
        if (opt.checkInvariants && !monitor.clean())
            obs::printViolations(std::cerr, monitor.violations());
    }
    return violations;
}

/** Batch invariant smoke across the selection via BatchRunner. */
int
runBatchInvariants(const std::vector<std::string> &schemes,
                   const std::vector<workloads::AppProfile> &apps,
                   driver::BatchConfig bc)
{
    bc.checkInvariants = true;
    driver::BatchRunner runner(bc);
    std::vector<driver::DesignPoint> points;
    for (const auto &scheme : schemes)
        for (const auto &app : apps)
            points.push_back(driver::DesignPoint{
                app, core::makeSystemConfig(scheme)});
    runner.runAll(points);
    auto stats = runner.stats();
    std::printf("checked %zu points, %llu events: %llu violations\n",
                points.size(),
                (unsigned long long)stats.invariantEventsChecked,
                (unsigned long long)stats.invariantViolations);
    if (stats.invariantViolations != 0) {
        obs::printViolations(std::cerr, runner.invariantViolations());
        return 1;
    }
    return 0;
}

/** Slurp a whole file; false + message on failure. */
bool
slurpFile(const std::string &path, std::string &out,
          std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/**
 * Print telemetry health warnings (trace-ring drops, checkpoint-
 * cache fallbacks) found in @p json to stderr. Best-effort: parse
 * failures are silent (the caller already validated the document).
 */
void
printTelemetryWarnings(const std::string &json)
{
    std::map<std::string, double> metrics;
    try {
        metrics = obs::flattenMetricsJson(json);
    } catch (const std::exception &) {
        return;
    }
    for (const auto &w : obs::telemetryWarnings(metrics))
        std::fprintf(stderr, "warning: %s\n", w.c_str());
}

int
runDiff(const std::string &before, const std::string &after,
        const obs::DiffOptions &options)
{
    // Validate each input up front: a missing file, malformed JSON,
    // or a document with no numeric metrics at all (the wrong file,
    // or a truncated write) must fail loudly with the offending path
    // named — not print an empty "compared 0 metrics" report and
    // exit 0.
    for (const std::string &path : {before, after}) {
        std::string json;
        std::string error;
        if (!slurpFile(path, json, error)) {
            std::fprintf(stderr, "cwsp_analyze --diff: %s\n",
                         error.c_str());
            return 2;
        }
        std::map<std::string, double> metrics;
        try {
            metrics = obs::flattenMetricsJson(json);
        } catch (const std::exception &ex) {
            std::fprintf(stderr,
                         "cwsp_analyze --diff: %s: not a valid "
                         "stats JSON document: %s\n",
                         path.c_str(), ex.what());
            return 2;
        }
        if (metrics.empty()) {
            std::fprintf(stderr,
                         "cwsp_analyze --diff: %s: no numeric "
                         "metrics found (is this a stats/"
                         "BENCH_summary JSON file?)\n",
                         path.c_str());
            return 2;
        }
    }

    obs::DiffResult result;
    std::string error;
    if (!obs::diffMetricFiles(before, after, options, result,
                              error)) {
        std::fprintf(stderr, "cwsp_analyze --diff: %s\n",
                     error.c_str());
        return 2;
    }
    obs::printDiffReport(std::cout, result, options);
    // Telemetry health of the *current* file: truncated traces or a
    // degraded checkpoint cache make the comparison itself suspect.
    std::string after_json;
    if (slurpFile(after, after_json, error))
        printTelemetryWarnings(after_json);
    return result.hasRegressions() ? 1 : 0;
}

int
runRecoveryReport(const std::string &campaign_path,
                  const std::string &report_json_path)
{
    std::string json;
    std::string error;
    if (!slurpFile(campaign_path, json, error)) {
        std::fprintf(stderr, "cwsp_analyze --recovery-report: %s\n",
                     error.c_str());
        return 2;
    }
    obs::RecoveryReport report;
    if (!obs::buildRecoveryReport(json, report, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --recovery-report: %s: %s\n",
                     campaign_path.c_str(), error.c_str());
        return 2;
    }
    obs::writeRecoveryReportMarkdown(std::cout, report);
    if (!report_json_path.empty()) {
        if (report_json_path == "-") {
            obs::writeRecoveryReportJson(std::cout, report);
        } else {
            std::ofstream os(report_json_path);
            if (!os) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             report_json_path.c_str());
                return 2;
            }
            obs::writeRecoveryReportJson(os, report);
        }
    }
    printTelemetryWarnings(json);
    return 0;
}

int
runValidateTrace(const std::string &path)
{
    std::string json;
    std::string error;
    if (!slurpFile(path, json, error)) {
        std::fprintf(stderr, "cwsp_analyze --validate-trace: %s\n",
                     error.c_str());
        return 2;
    }
    obs::TraceValidation v;
    if (!obs::validateChromeTrace(json, v, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --validate-trace: %s: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    std::printf("%s: %zu events, %zu counter samples across %zu "
                "tracks\n",
                path.c_str(), v.events, v.counterEvents,
                v.counterTracks);
    // The export's otherData block carries the ring's drop ledger;
    // a nonzero count means the trace window is truncated and the
    // counter series may start mid-run.
    std::size_t od = json.find("\"otherData\"");
    if (od != std::string::npos) {
        std::size_t d = json.find("\"dropped\":", od);
        if (d != std::string::npos) {
            long long drops =
                std::atoll(json.c_str() + d + 10);
            if (drops > 0)
                std::fprintf(
                    stderr,
                    "warning: trace ring truncated: trace_drops = "
                    "%lld (events lost; raise the trace capacity "
                    "or narrow the category mask)\n",
                    drops);
        }
    }
    for (const auto &e : v.errors)
        std::fprintf(stderr, "error: %s\n", e.c_str());
    return v.ok() ? 0 : 1;
}

/**
 * Counterfactual what-if waterfalls over the selection, then (unless
 * @p sensitivity is off) the knob-sensitivity ranking.
 */
int
runWhatIfMode(const std::vector<std::string> &schemes,
              const std::vector<workloads::AppProfile> &apps,
              const driver::BatchConfig &bc, std::uint64_t trace_cap,
              bool sensitivity, const std::string &report_json_path)
{
    driver::BatchRunner runner(bc);
    obs::WhatIfOptions opt;
    opt.traceCap = trace_cap;
    obs::WhatIfReport report =
        obs::runWhatIf(runner, schemes, apps, opt);
    std::vector<obs::SensitivityReport> sens;
    if (sensitivity) {
        sens = obs::runSensitivity(runner, schemes, apps);
        report.batch = runner.stats();
    }
    const auto *sens_ptr = sensitivity ? &sens : nullptr;

    for (const auto &e : report.entries) {
        if (!e.reconciles()) {
            std::fprintf(stderr,
                         "whatif waterfall does not reconcile for "
                         "%s/%s\n",
                         e.scheme.c_str(), e.app.c_str());
            return 1;
        }
    }

    obs::writeWhatIfMarkdown(std::cout, report, sens_ptr);
    if (!report_json_path.empty()) {
        if (report_json_path == "-") {
            obs::writeWhatIfJson(std::cout, report, sens_ptr);
        } else {
            std::ofstream os(report_json_path);
            if (!os) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             report_json_path.c_str());
                return 2;
            }
            obs::writeWhatIfJson(os, report, sens_ptr);
        }
    }

    std::size_t warning_count = 0;
    for (const auto &e : report.entries)
        warning_count += e.warnings.size();
    auto stats = runner.stats();
    std::fprintf(stderr,
                 "whatif: %zu points (%llu simulated, %llu memory "
                 "hits, %llu disk hits), %zu cross-check warning%s\n",
                 report.entries.size(),
                 (unsigned long long)stats.simulated,
                 (unsigned long long)stats.memoryHits,
                 (unsigned long long)stats.diskHits, warning_count,
                 warning_count == 1 ? "" : "s");
    return 0;
}

int
runTrajectoryAppend(const std::string &traj,
                    const std::string &summary,
                    const obs::TrajectoryOptions &options)
{
    std::string error;
    if (!obs::appendTrajectory(traj, summary, options, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --trajectory-append: %s\n",
                     error.c_str());
        return 2;
    }
    std::printf("appended '%s' snapshot of %s to %s\n",
                options.label.c_str(), summary.c_str(),
                traj.c_str());
    return 0;
}

int
runMain(int argc, char **argv)
{
    RunOptions opt;
    std::string scheme_spec = "cwsp";
    std::string app_spec = "fft";
    std::string suite;
    std::string diff_before, diff_after;
    std::string traj_path, traj_summary;
    std::string recovery_path, report_json_path;
    std::string validate_path;
    bool diff = false;
    bool whatif = false;
    bool traj = false;
    bool traj_keep_cleared = false;
    bool sensitivity = true;
    driver::BatchConfig bc;
    obs::DiffOptions diff_options;
    obs::TrajectoryOptions traj_options;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--attribution")
            opt.attribution = true;
        else if (a == "--spans")
            opt.spans = true;
        else if (a == "--check-invariants")
            opt.checkInvariants = true;
        else if (a == "--diff") {
            diff = true;
            diff_before = next();
            diff_after = next();
        } else if (a == "--whatif") {
            whatif = true;
        } else if (a == "--recovery-report") {
            recovery_path = next();
        } else if (a == "--report-json") {
            report_json_path = next();
        } else if (a == "--validate-trace") {
            validate_path = next();
        } else if (a == "--trajectory-append") {
            traj = true;
            traj_path = next();
            traj_summary = next();
        } else if (a == "--label")
            traj_options.label = next();
        else if (a == "--date")
            traj_options.date = next();
        else if (a == "--keep") {
            if (!traj_keep_cleared) {
                traj_options.keepSubstrings.clear();
                traj_keep_cleared = true;
            }
            traj_options.keepSubstrings.push_back(next());
        } else if (a == "--scheme")
            scheme_spec = next();
        else if (a == "--app")
            app_spec = next();
        else if (a == "--suite")
            suite = next();
        else if (a == "--crash")
            opt.crashFrac = std::strtod(next(), nullptr);
        else if (a == "--trace-cap")
            opt.traceCap = std::strtoull(next(), nullptr, 0);
        else if (a == "--jobs")
            bc.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        else if (a == "--no-result-cache")
            bc.useDiskCache = false;
        else if (a == "--no-sensitivity")
            sensitivity = false;
        else if (a == "--threshold")
            diff_options.threshold = std::strtod(next(), nullptr);
        else if (a == "--ignore")
            diff_options.ignoreSubstrings.push_back(next());
        else {
            usage();
            return 2;
        }
    }

    if (diff)
        return runDiff(diff_before, diff_after, diff_options);
    if (!recovery_path.empty())
        return runRecoveryReport(recovery_path, report_json_path);
    if (!validate_path.empty())
        return runValidateTrace(validate_path);
    if (traj)
        return runTrajectoryAppend(traj_path, traj_summary,
                                   traj_options);

    auto schemes = resolveSchemes(scheme_spec);
    auto apps = resolveApps(app_spec, suite);

    if (whatif)
        return runWhatIfMode(schemes, apps, bc, opt.traceCap,
                             sensitivity, report_json_path);

    // Invariant-only smoke goes through the batch engine (parallel,
    // monitor attached per simulation by the runner itself).
    if (opt.checkInvariants && !opt.spans && !opt.attribution &&
        opt.crashFrac < 0.0)
        return runBatchInvariants(schemes, apps, bc);

    if (!opt.spans && !opt.attribution)
        opt.attribution = true;

    std::uint64_t violations = 0;
    std::vector<obs::AttributionRow> rows;
    for (const auto &scheme : schemes)
        for (const auto &app : apps)
            violations += analyzePoint(scheme, app, opt, rows);
    if (opt.attribution)
        obs::printAttributionTable(std::cout, rows);
    if (opt.checkInvariants) {
        std::printf("invariants: %llu violation%s\n",
                    (unsigned long long)violations,
                    violations == 1 ? "" : "s");
        if (violations != 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // cwsp_fatal throws; surface the message without a terminate().
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
