/**
 * @file
 * Fault-injection campaign front-end. Enumerates trace-derived crash
 * points for every (app, scheme) pair, decorates them into single,
 * nested, and media-faulted crash schedules, runs each case
 * differentially against a golden run across a worker pool, shrinks
 * failures to minimal repros, and writes a machine-readable report.
 *
 *   cwsp_faultcampaign --apps bzip2,radix
 *   cwsp_faultcampaign --apps tpcc --schemes cwsp,ido --points 4
 *   cwsp_faultcampaign --apps bzip2 --json report.json
 *
 * Exit status is 0 iff every case passed (zero unexplained
 * divergences and no silently-corrupting media fault).
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "sim/stats.hh"

using namespace cwsp;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_faultcampaign [options]\n"
        "  --apps A,B,...      workloads to campaign over (required)\n"
        "  --schemes X,Y,...   scheme presets (default: all six)\n"
        "  --points N          crash points kept per kind per\n"
        "                      (app, scheme) pair (default 3)\n"
        "  --no-nested         skip nested-crash schedules\n"
        "  --no-media          skip torn/bit-flip/stale-slot faults\n"
        "  --no-shrink         report failures unshrunk\n"
        "  --fork              fork cases from golden-run checkpoints\n"
        "                      (default; O(tail) per case)\n"
        "  --no-fork           re-execute every pre-crash prefix\n"
        "  --seed N            base seed of the deterministic\n"
        "                      interleaving schedules swept for\n"
        "                      concurrent apps, 1..2^64-1; the JSON\n"
        "                      report records it (default 1)\n"
        "  --schedules N       interleaving schedules per concurrent\n"
        "                      (app, scheme); schedule 0 is always\n"
        "                      the unjittered timing (default 2)\n"
        "  --seed-cas-bug      inject the seeded CAS-ordering bug\n"
        "                      into concurrent apps (checker\n"
        "                      self-test; the campaign must fail)\n"
        "  --jobs N            worker threads (default: all cores)\n"
        "  --json FILE         write the JSON report (`-` = stdout)\n"
        "  --stats-json FILE   write hierarchical stats JSON (like\n"
        "                      cwsp_run's): campaign counters plus\n"
        "                      per-scheme recovery-latency and\n"
        "                      lost-work histograms (`-` = stdout)\n"
        "  --quiet             suppress the per-case table\n"
        "N is decimal digits only; any other value exits 2 naming\n"
        "the flag.\n");
}

const char *
arg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        usage();
        std::exit(2);
    }
    return argv[++i];
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/**
 * Strictly parse the value @p v of @p flag as a decimal integer in
 * [1, @p max]: digits only (no sign, space, base prefix or suffix),
 * no overflow. Otherwise name the flag on stderr and return nothing.
 */
std::optional<std::uint64_t>
parsePositive(const std::string &flag, const char *v, std::uint64_t max)
{
    std::uint64_t n = 0;
    const char *end = v + std::strlen(v);
    auto [ptr, ec] = std::from_chars(v, end, n);
    if (ec != std::errc{} || ptr != end || n == 0 || n > max) {
        std::fprintf(stderr, "%s expects an integer in 1..%llu, got '%s'\n",
                     flag.c_str(), (unsigned long long)max, v);
        return std::nullopt;
    }
    return n;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
runMain(int argc, char **argv)
{
    fault::CampaignOptions opt;
    std::string json_path;
    std::string stats_json_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--apps") {
            opt.apps = splitList(arg(argc, argv, i));
        } else if (a == "--schemes") {
            opt.schemes = splitList(arg(argc, argv, i));
        } else if (a == "--points") {
            auto n = parsePositive(a, arg(argc, argv, i), kMaxU32);
            if (!n)
                return 2;
            opt.pointsPerKind = static_cast<std::size_t>(*n);
        } else if (a == "--no-nested") {
            opt.nested = false;
        } else if (a == "--no-media") {
            opt.mediaFaults = false;
        } else if (a == "--no-shrink") {
            opt.shrink = false;
        } else if (a == "--fork") {
            opt.forkCheckpoints = true;
        } else if (a == "--no-fork") {
            opt.forkCheckpoints = false;
        } else if (a == "--seed") {
            auto n = parsePositive(a, arg(argc, argv, i), kMaxU64);
            if (!n)
                return 2;
            opt.interleaveSeed = *n;
        } else if (a == "--schedules") {
            auto n = parsePositive(a, arg(argc, argv, i), kMaxU32);
            if (!n)
                return 2;
            opt.numSchedules = static_cast<std::uint32_t>(*n);
        } else if (a == "--seed-cas-bug") {
            opt.seedCasBug = true;
        } else if (a == "--jobs") {
            auto n = parsePositive(a, arg(argc, argv, i), kMaxU32);
            if (!n)
                return 2;
            opt.jobs = static_cast<unsigned>(*n);
        } else if (a == "--json") {
            json_path = arg(argc, argv, i);
        } else if (a == "--stats-json") {
            stats_json_path = arg(argc, argv, i);
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            usage();
            return 2;
        }
    }
    if (opt.apps.empty()) {
        usage();
        return 2;
    }

    auto report = fault::runCampaign(opt);

    // With `--json -` the JSON owns stdout; move tables to stderr.
    std::FILE *out = json_path == "-" ? stderr : stdout;
    if (!quiet) {
        for (const auto &r : report.cases) {
            std::fprintf(out, "%-52s %s\n", r.c.label().c_str(),
                         r.pass ? "pass"
                                : (r.ran ? "FAIL" : "ERROR"));
        }
    }
    const auto &t = report.totals;
    std::fprintf(
        out,
        "campaign: %zu cases, %zu passed, %zu failed "
        "(%zu shrink runs)\n"
        "  crashes %llu (nested %llu, in-recovery %llu), "
        "replay passes %llu (partial records %llu)\n"
        "  media faults %llu/%llu applied; detected: %llu corrupt "
        "records, %llu stale slots\n"
        "  degradation: %llu torn tails dropped, %llu region "
        "restarts, %llu full restarts; %llu atomic resumes\n",
        report.casesRun, report.casesPassed, report.failures.size(),
        report.shrinkRuns, (unsigned long long)t.crashesInjected,
        (unsigned long long)t.nestedCrashes,
        (unsigned long long)t.recoveryCrashes,
        (unsigned long long)t.undoReplayPasses,
        (unsigned long long)t.partialReplayRecords,
        (unsigned long long)t.faultsApplied,
        (unsigned long long)t.faultsRequested,
        (unsigned long long)t.corruptRecordsDetected,
        (unsigned long long)t.staleSlotsDetected,
        (unsigned long long)t.tornTailsDropped,
        (unsigned long long)t.regionRestarts,
        (unsigned long long)t.fullRestarts,
        (unsigned long long)t.atomicResumes);
    std::fprintf(out,
                 "  programs: %zu compiled for %zu contexts; "
                 "enumerations: %zu replayed, %zu interpreted (%s)\n",
                 report.modulesCompiled, report.contexts,
                 report.enumerations.stream,
                 report.enumerations.interpret,
                 report.enumerations.interpretCauses.describe().c_str());
    if (report.ckptCache.enabled) {
        const auto &ck = report.ckptCache;
        std::fprintf(
            out,
            "  checkpoint cache: %llu captured, %llu forks, "
            "%llu fallbacks (%s), %llu evictions, %.1f MB resident "
            "(%.1f MB shared logs)\n",
            (unsigned long long)ck.captures,
            (unsigned long long)ck.forks,
            (unsigned long long)ck.fallbacks,
            ck.fallbackCauses.describe().c_str(),
            (unsigned long long)ck.evictions,
            (double)ck.bytesResident / (1024.0 * 1024.0),
            (double)ck.logBytesResident / (1024.0 * 1024.0));
    }
    for (const auto &f : report.failures) {
        std::fprintf(out, "minimal repro: %s\n  %s\n",
                     f.c.label().c_str(), f.detail.c_str());
    }

    if (!json_path.empty()) {
        if (json_path == "-") {
            report.writeJson(std::cout);
        } else {
            std::ofstream f(json_path);
            if (!f) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             json_path.c_str());
                return 1;
            }
            report.writeJson(f);
        }
    }
    if (!stats_json_path.empty()) {
        StatsRegistry reg;
        report.fillStats(reg);
        if (stats_json_path == "-") {
            reg.exportJson(std::cout);
        } else {
            std::ofstream f(stats_json_path);
            if (!f) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             stats_json_path.c_str());
                return 1;
            }
            reg.exportJson(f);
        }
    }
    return report.allPassed() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
