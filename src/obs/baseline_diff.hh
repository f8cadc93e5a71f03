/**
 * @file
 * Metric regression detection: compare two stats-JSON files (the
 * --stats-json output or bench_all.sh's BENCH_summary.json), flatten
 * every numeric leaf to a dotted metric path, and flag metrics whose
 * relative change exceeds a threshold. Used by cwsp_analyze --diff
 * and (warn-only) by tools/bench_all.sh after each benchmark sweep.
 */

#ifndef CWSP_OBS_BASELINE_DIFF_HH
#define CWSP_OBS_BASELINE_DIFF_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cwsp::obs {

/** Knobs for one comparison. */
struct DiffOptions
{
    /** Relative change treated as significant (0.05 = 5%). */
    double threshold = 0.05;
    /**
     * Metrics containing any of these substrings are skipped.
     * Defaults drop host measurements, which vary run to run on a
     * loaded machine: wall and CPU clocks, google-benchmark's
     * iteration counts, and bench_simspeed's host-speed counters
     * (ns_per_instr, sims_per_sec). Simulated-cycle metrics stay in.
     */
    std::vector<std::string> ignoreSubstrings = {
        "real_time",    "cpu_time",     "wall_clock", "load_avg",
        "ns_per_instr", "sims_per_sec", "iterations"};
};

/** One metric whose value moved beyond the threshold. */
struct MetricDelta
{
    std::string metric;
    double before = 0.0;
    double after = 0.0;
    double ratio = 1.0; ///< after / before (inf when before == 0)
};

/** Outcome of one comparison. */
struct DiffResult
{
    std::vector<MetricDelta> regressions;  ///< value increased
    std::vector<MetricDelta> improvements; ///< value decreased
    std::size_t compared = 0;
    std::size_t ignored = 0;
    std::vector<std::string> onlyBefore; ///< metric disappeared
    std::vector<std::string> onlyAfter;  ///< metric appeared

    bool hasRegressions() const { return !regressions.empty(); }
};

/**
 * Flatten a JSON document's numeric leaves to dotted metric paths.
 * Array elements are keyed by their "name" member when present (the
 * google-benchmark convention), else by index. Throws
 * std::runtime_error on malformed JSON.
 */
std::map<std::string, double>
flattenMetricsJson(const std::string &json);

/** Compare two JSON documents (already in memory). */
DiffResult diffMetrics(const std::string &before_json,
                       const std::string &after_json,
                       const DiffOptions &options = DiffOptions{});

/**
 * Compare two JSON files. On a read/parse failure, returns false and
 * sets @p error; @p result is untouched.
 */
bool diffMetricFiles(const std::string &before_path,
                     const std::string &after_path,
                     const DiffOptions &options, DiffResult &result,
                     std::string &error);

/** Human-readable report, largest relative changes first. */
void printDiffReport(std::ostream &os, const DiffResult &result,
                     const DiffOptions &options);

/** Labeling and metric selection for one trajectory append. */
struct TrajectoryOptions
{
    /** Entry label (short commit hash, PR tag, ...). */
    std::string label = "unlabeled";
    /** ISO date string; empty omits the field. */
    std::string date;
    /**
     * Only metrics containing one of these substrings are copied
     * into the trajectory entry. The defaults keep the simulator
     * throughput headline (bench_simspeed counters), the suite size,
     * and the fault-campaign health counters — a per-PR snapshot
     * small enough to commit, not the full summary.
     */
    std::vector<std::string> keepSubstrings = {
        "sims_per_sec", "ns_per_instr", "wall_clock_s",
        "total_cases",  "fault_campaign"};
};

/**
 * Append one entry — {label, date, metrics} with the metrics
 * selected from @p summary_path by @p options — to the JSON array in
 * @p trajectory_path, creating the file when absent. This is how
 * BENCH_trajectory.json accumulates one headline snapshot per PR
 * (bench_all.sh calls it after writing BENCH_summary.json). Returns
 * false and sets @p error on read/parse/write failure, leaving an
 * existing trajectory file untouched.
 */
bool appendTrajectory(const std::string &trajectory_path,
                      const std::string &summary_path,
                      const TrajectoryOptions &options,
                      std::string &error);

} // namespace cwsp::obs

#endif // CWSP_OBS_BASELINE_DIFF_HH
