#include "span_log.hh"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace cwsp::bench_e2e {

namespace {

/** Id of the task span open on this thread (0: none). */
thread_local std::uint64_t tlOpenTask = 0;

} // namespace

SpanLog::Scope::Scope(SpanLog &log, const char *name, bool task)
    : log_(log), name_(name), task_(task),
      id_(log.nextId_.fetch_add(1, std::memory_order_relaxed)),
      parent_(task ? 0 : tlOpenTask)
{
    if (task ? tlOpenTask != 0 : tlOpenTask == 0)
        throw std::logic_error(std::string("span '") + name +
                               (task ? "' opened inside a task"
                                     : "' opened outside a task"));
    if (task)
        tlOpenTask = id_;
    start_ = Clock::now();
}

std::int64_t
SpanLog::Scope::end()
{
    if (!open_)
        return durNs_;
    const Clock::time_point stop = Clock::now();
    open_ = false;
    durNs_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 stop - start_)
                 .count();
    if (task_)
        tlOpenTask = 0;
    Span s;
    s.name = name_;
    s.id = id_;
    s.parent = parent_;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start_ - log_.origin_)
                    .count();
    s.durNs = durNs_;
    log_.record(s, std::this_thread::get_id());
    return durNs_;
}

void
SpanLog::record(const Span &s, std::thread::id tid)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = threads_.find(tid);
    if (it == threads_.end())
        it = threads_
                 .emplace(tid, static_cast<std::uint32_t>(threads_.size()))
                 .first;
    spans_.push_back(s);
    spans_.back().thread = it->second;
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    char buf[384];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(
            buf, sizeof buf,
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
            "\"args\": {\"id\": %llu, \"parent\": %llu}}",
            i ? "," : "", s.name, s.parent ? "layer" : "task",
            static_cast<double>(s.startNs) / 1e3,
            static_cast<double>(s.durNs) / 1e3, s.thread,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent));
        os << buf;
    }
    os << "\n]}\n";
}

} // namespace cwsp::bench_e2e
