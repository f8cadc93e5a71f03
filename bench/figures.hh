/**
 * @file
 * The paper's evaluation (Figs. 1, 6, 8 and 13-27, plus multicore
 * scaling and a compiler ablation) as one table. Each figure is data:
 * a name, an app set, a metric, a summary, and its series of
 * (label, SystemConfig, optional baseline). The three figures that
 * are not per-app bars (Fig. 26's 8-core contention series,
 * multicore scaling, the compiler ablation) are small functions in
 * the same table.
 *
 * evaluateFigures() runs every single-core point of every figure as
 * one BatchRunner::runAll batch, so the runner's content key
 * deduplicates points shared across figures (the 38-app baseline is
 * simulated once) and its result cache serves repeat runs. Multicore
 * runs and compile statistics go through runTasks on the same pool.
 * tools/cwsp_figures is the command that prints the table.
 */

#ifndef CWSP_BENCH_FIGURES_HH
#define CWSP_BENCH_FIGURES_HH

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "driver/batch_runner.hh"
#include "workloads/workload.hh"

namespace cwsp::bench {

/** One value a figure reports: a bar, a summary or a series point. */
struct FigureRow
{
    std::string name;   ///< e.g. "fig13/cwsp/splash3/radix"
    std::string metric; ///< e.g. "slowdown"
    double value = 0.0;
};

/** The applications a figure draws bars for. */
enum class AppSet
{
    Roster,       ///< every app of the roster
    MemIntensive, ///< the roster's memory-intensive subset
};

/** The summary rows that follow each series' bars. */
enum class Summary
{
    SuiteGmeans, ///< "gmean/<suite>" per suite with bars, "gmean/all"
    Gmean,       ///< one "gmean"
    Mean,        ///< one arithmetic "mean"
    None,
};

/** One series of a figure: one bar per app. */
struct Series
{
    std::string label;
    core::SystemConfig config;
    /** Baseline of this series alone; unset = the figure's. */
    std::optional<core::SystemConfig> baseline = std::nullopt;
};

/** The single-core result of an (app, config) point of the batch. */
using RunLookup = std::function<const core::RunResult &(
    const workloads::AppProfile &, const core::SystemConfig &)>;

/** What a figure defined by code hands to the shared batch. */
struct FigureCode
{
    /** Single-core points the rows read; they join the one batch. */
    std::vector<driver::DesignPoint> points;
    /** Self-contained host work (multicore runs, compile stats). */
    std::vector<std::function<double()>> tasks;
    /** The rows, from the batch and the task values in order. */
    std::function<std::vector<FigureRow>(
        const RunLookup &, const std::vector<double> &)>
        rows;
};

/** One figure of the table. */
struct Figure
{
    std::string name;
    /** Name of the bar metric. */
    std::string metric = "slowdown";
    AppSet apps = AppSet::Roster;
    /** Bar value from the series' own run; null = slowdown. */
    double (*field)(const core::RunResult &) = nullptr;
    Summary summary = Summary::SuiteGmeans;
    /** Baseline of every series that names none. */
    core::SystemConfig baseline = core::makeSystemConfig("baseline");
    std::vector<Series> series = {};
    /** Rows computed by code, after the series' rows. */
    std::function<FigureCode()> code = nullptr;
};

/** The figures, in print order. */
const std::vector<Figure> &figureTable();

/** Every figure's rows and the batch that produced them. */
struct FigureReport
{
    struct Entry
    {
        std::string name;
        std::vector<FigureRow> rows;
    };
    std::vector<Entry> figures;
    /** Single-core points handed to runAll, duplicates included. */
    std::size_t points = 0;
    driver::BatchStats batch;
};

/**
 * Evaluate the whole table over @p roster (the full roster is
 * workloads::appTable()) through @p runner.
 */
FigureReport evaluateFigures(
    driver::BatchRunner &runner,
    const std::vector<workloads::AppProfile> &roster);

/**
 * Geometric mean. An empty input yields NaN (and a warning): a
 * sweep bucket that never filled must be visible in the output, not
 * silently reported as 0.
 */
double gmean(const std::vector<double> &values);

/** One line per row: name, metric and value. */
void printFigures(std::ostream &os, const FigureReport &report);

/**
 * The report as JSON: the batch counters, then each figure's rows
 * with full-precision values. Arrays are keyed by "name", as
 * cwsp_analyze --diff and --trajectory-append flatten them.
 */
void writeFiguresJson(std::ostream &os, const FigureReport &report);

} // namespace cwsp::bench

#endif // CWSP_BENCH_FIGURES_HH
