/**
 * @file
 * Commit-stream tracer: run an application under a scheme and print
 * the first N committed instructions with their cycle timestamps,
 * region ids, and persistence events — the gem5 `--debug-flags=Exec`
 * equivalent for this simulator.
 *
 *   cwsp_trace --app fft --limit 120
 *   cwsp_trace --app radix --scheme capri --from 5000 --limit 50
 */

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "core/whole_system_sim.hh"
#include "fault/campaign.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sim/trace_mask.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

std::string
kindName(interp::CommitKind k)
{
    switch (k) {
      case interp::CommitKind::Alu: return "alu";
      case interp::CommitKind::Load: return "load";
      case interp::CommitKind::Store: return "store";
      case interp::CommitKind::Atomic: return "atomic";
      case interp::CommitKind::AtomicPrepare: return "atomprep";
      case interp::CommitKind::Fence: return "fence";
      case interp::CommitKind::Io: return "io";
      case interp::CommitKind::Branch: return "branch";
      case interp::CommitKind::CallRet: return "callret";
      case interp::CommitKind::Boundary: return "boundary";
    }
    // Unknown kinds keep the raw enum value visible instead of
    // collapsing every future addition into an anonymous "?".
    return "?(" + std::to_string(static_cast<int>(k)) + ")";
}

/** Fail with cwsp_fatal listing the valid scheme names. */
void
validateScheme(const std::string &scheme)
{
    std::string names;
    for (const auto &s : fault::allSchemeNames()) {
        if (scheme == s)
            return;
        names += names.empty() ? s : ", " + s;
    }
    cwsp_fatal("unknown scheme '", scheme, "'; valid: ", names);
}

/** Fail with cwsp_fatal listing the roster applications. */
void
validateApp(const std::string &app)
{
    std::string names;
    for (const auto &a : workloads::appTable()) {
        if (a.name == app)
            return;
        names += names.empty() ? a.name : ", " + a.name;
    }
    cwsp_fatal("unknown app '", app, "'; valid: ", names);
}

/** Wraps the scheme, printing each commit with its cycle cost. */
class TracingSink final : public interp::CommitSink
{
  public:
    TracingSink(arch::Scheme &scheme, std::uint64_t from,
                std::uint64_t limit)
        : scheme_(scheme), from_(from), limit_(limit)
    {
    }

    bool done() const { return printed_ >= limit_; }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        Tick before = scheme_.cycles(info.core);
        scheme_.onCommit(info);
        Tick after = scheme_.cycles(info.core);
        if (seq_++ < from_ || printed_ >= limit_)
            return;
        ++printed_;
        std::printf("%10llu  c%u %-9s", (unsigned long long)before,
                    info.core, kindName(info.kind).c_str());
        switch (info.kind) {
          case interp::CommitKind::Load:
            std::printf(" [0x%llx]", (unsigned long long)info.addr);
            break;
          case interp::CommitKind::Store:
          case interp::CommitKind::Atomic:
            std::printf(" [0x%llx] = %llu%s",
                        (unsigned long long)info.addr,
                        (unsigned long long)info.storeValue,
                        info.isCheckpoint ? " (ckpt)" : "");
            break;
          case interp::CommitKind::Io:
            std::printf(" dev%llu <- %llu",
                        (unsigned long long)info.addr,
                        (unsigned long long)info.storeValue);
            break;
          case interp::CommitKind::Boundary:
            std::printf(" region %llu (static #%u)",
                        (unsigned long long)scheme_.currentRegion(
                            info.core),
                        info.staticRegion);
            break;
          default:
            break;
        }
        if (after > before + 1)
            std::printf("   (+%llu cycles)",
                        (unsigned long long)(after - before));
        std::printf("\n");
    }

  private:
    arch::Scheme &scheme_;
    std::uint64_t from_;
    std::uint64_t limit_;
    std::uint64_t seq_ = 0;
    std::uint64_t printed_ = 0;
};

int
runMain(int argc, char **argv)
{
    std::string app_name;
    std::string scheme = "cwsp";
    std::string trace_out;
    std::string trace_mask = "all";
    std::uint64_t from = 0, limit = 100;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--app")
            app_name = next();
        else if (a == "--scheme")
            scheme = next();
        else if (a == "--from")
            from = std::strtoull(next(), nullptr, 0);
        else if (a == "--limit")
            limit = std::strtoull(next(), nullptr, 0);
        else if (a == "--trace-out")
            trace_out = next();
        else if (a == "--trace-mask")
            trace_mask = next();
        else {
            std::fprintf(stderr,
                         "usage: cwsp_trace --app NAME "
                         "[--scheme S] [--from N] [--limit N] "
                         "[--trace-out FILE] [--trace-mask SPEC]\n");
            return 2;
        }
    }
    if (app_name.empty()) {
        std::fprintf(stderr, "missing --app\n");
        return 2;
    }
    validateScheme(scheme);
    validateApp(app_name);

    auto cfg = core::makeSystemConfig(scheme);
    auto mod = workloads::buildApp(workloads::appByName(app_name),
                                   cfg.compiler);

    // Drive the interpreter manually through the tracing sink.
    interp::SparseMemory memory;
    mem::Hierarchy hierarchy(cfg.hierarchy, 1);
    auto sch = arch::makeScheme(cfg.scheme, hierarchy, 1);
    sim::TraceBuffer trace(
        std::min<std::size_t>(
            std::max<std::size_t>(
                std::bit_ceil(workloads::estimatedInstrs(
                                  workloads::appByName(app_name)) /
                              4),
                1 << 12),
            1 << 20),
        sim::parseTraceMask(trace_mask));
    if (!trace_out.empty()) {
        hierarchy.setTrace(&trace);
        sch->setTrace(&trace);
    }
    TracingSink sink(*sch, from, limit);
    interp::Interpreter it(*mod, memory, 0);
    it.start("main", {}, sink);
    std::printf("%10s  %s\n", "cycle", "commit");
    while (!it.finished() && !sink.done())
        it.step(sink);

    if (!trace_out.empty()) {
        std::ofstream f(trace_out);
        if (!f)
            cwsp_fatal("cannot open ", trace_out, " for writing");
        trace.exportChromeJson(f);
        std::fprintf(stderr,
                     "trace: %llu events recorded (%llu dropped) -> "
                     "%s\n",
                     (unsigned long long)trace.recorded(),
                     (unsigned long long)trace.dropped(),
                     trace_out.c_str());
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
