/**
 * @file
 * In-memory span log of the benchmark's traced run. Each unit of work
 * (a design point, a campaign context, or a crash case) is one *task*
 * span; every call into a simulator layer made while a task is open on
 * that thread is a *layer* span whose parent is that task. Layer spans
 * of one task never overlap, so a task's self time (its duration minus
 * its children's) is exactly the part no layer claimed.
 *
 * Spans stay in memory while the run is timed and are written once, at
 * exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
 */

#ifndef CWSP_BENCH_E2E_SPAN_LOG_HH
#define CWSP_BENCH_E2E_SPAN_LOG_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

namespace cwsp::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    const char *name = ""; ///< static string: "point", "compiler.build"
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for task spans
    std::int64_t startNs = 0; ///< since the log's origin
    std::int64_t durNs = 0;
    std::uint32_t thread = 0; ///< dense per-log thread index
};

class SpanLog
{
  public:
    SpanLog() = default;
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** An open span; recorded when end() is called or it is destroyed. */
    class Scope
    {
      public:
        ~Scope() { end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span now; returns its duration in nanoseconds. */
        std::int64_t end();

      private:
        friend class SpanLog;
        Scope(SpanLog &log, const char *name, bool task);

        SpanLog &log_;
        const char *name_;
        bool task_;
        bool open_ = true;
        std::uint64_t id_;
        std::uint64_t parent_;
        Clock::time_point start_;
        std::int64_t durNs_ = 0;
    };

    /** Open a task span on the calling thread (tasks do not nest). */
    Scope task(const char *name) { return Scope(*this, name, true); }

    /** Open a layer span under the calling thread's open task. */
    Scope layer(const char *name) { return Scope(*this, name, false); }

    /** Every closed span, in closing order (call after workers join). */
    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON: one complete ("ph":"X") event a span. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    void record(const Span &s, std::thread::id tid);

    const Clock::time_point origin_ = Clock::now();
    std::atomic<std::uint64_t> nextId_{1};
    std::mutex mu_;
    std::vector<Span> spans_;            // guarded by mu_
    std::map<std::thread::id, std::uint32_t> threads_; // guarded by mu_
};

} // namespace cwsp::bench_e2e

#endif // CWSP_BENCH_E2E_SPAN_LOG_HH
