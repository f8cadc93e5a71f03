/**
 * @file
 * Reproduce the paper's figures: evaluate the whole figure table
 * (bench/figures.hh) over the roster as one batch and print one line
 * per value. --json writes the values at full precision with the
 * batch counters; tools/bench_all.sh folds that file into
 * BENCH_summary.json.
 *
 *   cwsp_figures [--jobs N] [--cache-dir DIR] [--no-result-cache]
 *                [--stats-json FILE] [--json FILE]
 *
 * An unknown flag or a malformed value exits 2 naming the flag.
 */

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cli_args.hh"
#include "figures.hh"

using namespace cwsp;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_figures [options]\n"
        "  --jobs N            worker threads (default: all cores)\n"
        "  --cache-dir DIR     result-cache directory (default:"
        " $CWSP_CACHE_DIR or .cwsp-cache)\n"
        "  --no-result-cache   bypass the persistent result cache\n"
        "  --stats-json FILE   aggregate component statistics of the"
        " simulated points\n"
        "  --json FILE         every value at full precision, with the"
        " batch counters\n"
        "N is decimal digits only; any other value exits 2 naming the"
        " flag.\n");
}

/** Open @p path and hand the stream to @p write; false on failure. */
template <typename Write>
bool
writeFile(const std::string &path, Write &&write)
{
    std::ofstream os(path);
    if (os)
        write(os);
    if (!os) {
        std::fprintf(stderr, "cwsp_figures: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

int
runMain(int argc, char **argv)
{
    driver::BatchConfig bc;
    std::string stats_json;
    std::string json;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string flag = a.substr(0, a.find('='));
        // "--flag VALUE" or "--flag=VALUE"; null when it is missing.
        auto value = [&]() -> const char * {
            if (flag.size() < a.size())
                return argv[i] + flag.size() + 1;
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--no-result-cache") {
            bc.useDiskCache = false;
        } else if (flag == "--jobs" || flag == "--cache-dir" ||
                   flag == "--stats-json" || flag == "--json") {
            const char *v = value();
            if (!v || !*v) {
                std::fprintf(stderr, "cwsp_figures: %s expects a value\n",
                             flag.c_str());
                return 2;
            }
            if (flag == "--jobs") {
                auto n = cli::parsePositive(flag, v, cli::kMaxU32);
                if (!n)
                    return 2;
                bc.jobs = static_cast<unsigned>(*n);
            } else if (flag == "--cache-dir") {
                bc.cacheDir = v;
            } else if (flag == "--stats-json") {
                stats_json = v;
            } else {
                json = v;
            }
        } else {
            std::fprintf(stderr, "cwsp_figures: unknown flag '%s'\n",
                         a.c_str());
            usage();
            return 2;
        }
    }

    driver::BatchRunner runner(bc);
    auto report = bench::evaluateFigures(runner, workloads::appTable());
    const auto &s = report.batch;
    std::fprintf(stderr,
                 "batch: %zu points (%llu simulated, %llu disk hits, "
                 "%llu memory hits), %llu compiles (%llu module-cache "
                 "hits), %llu streams recorded, %llu replayed, %llu "
                 "interpreted, jobs=%u\n",
                 report.points, (unsigned long long)s.simulated,
                 (unsigned long long)s.diskHits,
                 (unsigned long long)s.memoryHits,
                 (unsigned long long)s.modulesCompiled,
                 (unsigned long long)s.moduleCacheHits,
                 (unsigned long long)s.streamsRecorded,
                 (unsigned long long)s.replayedRuns,
                 (unsigned long long)s.interpretedRuns,
                 bc.jobs != 0
                     ? bc.jobs
                     : std::max(1u, std::thread::hardware_concurrency()));

    bench::printFigures(std::cout, report);
    if (!json.empty() &&
        !writeFile(json, [&](std::ostream &os) {
            bench::writeFiguresJson(os, report);
        }))
        return 1;
    // Component stats of the points this process simulated; cache
    // hits contribute nothing, so a warm run writes an empty object.
    if (!stats_json.empty() &&
        !writeFile(stats_json, [&](std::ostream &os) {
            runner.exportAggregateJson(os);
        }))
        return 1;
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
