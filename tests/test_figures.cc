/**
 * @file
 * The figure table (bench/figures.hh) evaluated on a two-app roster:
 * fft, and tatp, which is memory-intensive, so Figs. 1, 17 and 18
 * get bars. Every figure yields its rows, every summary row is the
 * gmean or mean of its bars, and three bars match the ratio of
 * direct simulations whose configs are written out here.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "figures.hh"
#include "mem/hierarchy.hh"
#include "mem/nvm_device.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

std::vector<workloads::AppProfile>
roster()
{
    return {workloads::appByName("fft"), workloads::appByName("tatp")};
}

class FigureTable : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        driver::BatchConfig bc;
        bc.useDiskCache = false;
        driver::BatchRunner runner(bc);
        report_ = new bench::FigureReport(
            bench::evaluateFigures(runner, roster()));
        for (const auto &fig : report_->figures)
            for (const auto &row : fig.rows)
                value_[row.name] = row.value;
    }

    static void
    TearDownTestSuite()
    {
        delete report_;
        report_ = nullptr;
        value_.clear();
    }

    /** The value of row @p name; fails the test when it is absent. */
    static double
    row(const std::string &name)
    {
        auto it = value_.find(name);
        EXPECT_NE(it, value_.end()) << "no row " << name;
        return it == value_.end() ? std::nan("") : it->second;
    }

    static bench::FigureReport *report_;
    static std::map<std::string, double> value_;
};

bench::FigureReport *FigureTable::report_ = nullptr;
std::map<std::string, double> FigureTable::value_;

Tick
directCycles(const std::string &app, const core::SystemConfig &cfg)
{
    auto mod = workloads::buildApp(workloads::appByName(app), cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    return sim.run("main").cycles;
}

double
directSlowdown(const std::string &app, const core::SystemConfig &cfg,
               const core::SystemConfig &base)
{
    return static_cast<double>(directCycles(app, cfg)) /
           static_cast<double>(directCycles(app, base));
}

bool
isSummary(const std::string &name)
{
    return name.ends_with("/gmean") || name.ends_with("/mean") ||
           name.find("/gmean/") != std::string::npos;
}

} // namespace

TEST_F(FigureTable, EveryFigureYieldsItsRowsAndNoNaN)
{
    const auto &table = bench::figureTable();
    ASSERT_EQ(report_->figures.size(), table.size());
    for (std::size_t f = 0; f < table.size(); ++f) {
        const auto &fig = table[f];
        SCOPED_TRACE(fig.name);
        EXPECT_EQ(report_->figures[f].name, fig.name);
        EXPECT_FALSE(report_->figures[f].rows.empty());
        for (const auto &row : report_->figures[f].rows)
            EXPECT_FALSE(std::isnan(row.value)) << row.name;
        // One bar per app of the figure's set, in every series.
        for (const auto &s : fig.series)
            for (const auto &app : roster())
                if (fig.apps == bench::AppSet::Roster || app.memIntensive)
                    row(fig.name + "/" + s.label + "/" + app.suite + "/" +
                        app.name);
    }
}

TEST_F(FigureTable, SummariesAreTheMeansOfTheirBars)
{
    std::size_t summaries = 0;
    for (const auto &fig : report_->figures) {
        for (const auto &sum : fig.rows) {
            if (!isSummary(sum.name))
                continue;
            SCOPED_TRACE(sum.name);
            ++summaries;
            // "<fig>/<series>/gmean[/<group>]" or "<fig>/<series>/mean"
            std::size_t cut = sum.name.find("/gmean");
            if (cut == std::string::npos)
                cut = sum.name.rfind("/mean");
            const std::string prefix = sum.name.substr(0, cut + 1);
            std::string group = "all";
            if (sum.name.find("/gmean/") != std::string::npos)
                group = sum.name.substr(sum.name.rfind('/') + 1);
            std::vector<double> bars;
            for (const auto &bar : fig.rows) {
                if (isSummary(bar.name) || !bar.name.starts_with(prefix))
                    continue;
                const std::string suite = bar.name.substr(
                    prefix.size(),
                    bar.name.find('/', prefix.size()) - prefix.size());
                if (group == "all" || suite == group)
                    bars.push_back(bar.value);
            }
            ASSERT_FALSE(bars.empty());
            if (sum.name.ends_with("/mean")) {
                double total = 0;
                for (double v : bars)
                    total += v;
                EXPECT_EQ(sum.value,
                          total / static_cast<double>(bars.size()));
            } else {
                EXPECT_EQ(sum.value, bench::gmean(bars));
            }
        }
    }
    EXPECT_GT(summaries, 0u);
}

TEST_F(FigureTable, Fig15Step3IsTheUnprunedFeatureSubset)
{
    auto cfg = core::makeSystemConfig("cwsp");
    cfg.compiler.pruneCheckpoints = false;
    cfg.scheme.features.persistPath = true;
    cfg.scheme.features.mcSpeculation = true;
    cfg.scheme.features.wbDelay = false;
    cfg.scheme.features.wpqDelay = false;
    core::syncFeatureFlags(cfg);
    EXPECT_EQ(row("fig15/step3-mc-speculation/splash3/fft"),
              directSlowdown("fft", cfg,
                             core::makeSystemConfig("baseline")));
}

TEST_F(FigureTable, Fig17NormalizesToTheSameDevice)
{
    auto cfg = core::makeSystemConfig("cwsp");
    cfg.hierarchy.tech = mem::cxlB();
    auto base = core::makeSystemConfig("baseline");
    base.hierarchy.tech = mem::cxlB();
    EXPECT_EQ(row("fig17/cxl-b/whisper/tatp"),
              directSlowdown("tatp", cfg, base));
}

TEST_F(FigureTable, Fig20RunsBothSidesOnThreeLevels)
{
    auto cfg = core::makeSystemConfig("cwsp");
    const bool drop = cfg.hierarchy.dropLlcDirtyEvictions;
    cfg.hierarchy = mem::threeLevelHierarchy();
    cfg.hierarchy.dropLlcDirtyEvictions = drop;
    core::syncFeatureFlags(cfg);
    auto base = core::makeSystemConfig("baseline");
    base.hierarchy = mem::threeLevelHierarchy();
    EXPECT_EQ(row("fig20/cwsp/splash3/fft"),
              directSlowdown("fft", cfg, base));
}

TEST(Figures, GmeanOfEmptyBucketIsNaNNotZero)
{
    EXPECT_TRUE(std::isnan(bench::gmean({})));
    EXPECT_DOUBLE_EQ(bench::gmean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::gmean({3.0}), 3.0);
}
