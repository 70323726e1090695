/**
 * @file
 * Host-time span log for the end-to-end benchmark.
 *
 * A span is one timed call into a simulator layer: its name (the
 * layer's `src/` module first, e.g. "platform.replay.Charon"), its
 * start and end on the steady clock, the span that caused it, and the
 * OS thread that ran it.  Spans are kept in memory and written once,
 * at the end of a run, as Chrome trace-event JSON (ui.perfetto.dev).
 *
 * A disabled log records nothing: Span's constructor and destructor
 * test one flag and never read a clock, so the untraced run executes
 * the same calls with no timing in between.
 */

#ifndef CHARON_PERF_E2E_SPAN_LOG_HH
#define CHARON_PERF_E2E_SPAN_LOG_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace charon::perf_e2e
{

/** Steady-clock seconds (CLOCK_MONOTONIC, shared with other processes). */
double nowSeconds();

/** CPU seconds the calling thread has used since it started. */
double threadCpuSeconds();

/** The calling thread's OS thread id. */
std::uint32_t threadId();

struct SpanRecord
{
    std::string name;
    double start = 0; ///< steady-clock seconds
    double end = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: a root span
    std::uint32_t tid = 0;

    double duration() const { return end - start; }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh span id (ids start at 1; 0 means "no parent"). */
    std::uint32_t newId() { return nextId_.fetch_add(1); }

    /** Record a finished span; thread-safe.  Ignored when disabled. */
    void add(SpanRecord record);

    /** Every span recorded so far (call once worker threads joined). */
    std::vector<SpanRecord> spans() const;

    /**
     * Write the spans as Chrome trace-event JSON: one complete ("X")
     * event per span, microseconds from the earliest span, the parent
     * id in args.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &processName,
                          std::string *error) const;

  private:
    const bool enabled_;
    std::atomic<std::uint32_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_; ///< guarded by mutex_
};

/** Times its own scope into a SpanLog (nothing when disabled). */
class Span
{
  public:
    Span(SpanLog &log, std::string name, std::uint32_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id, to pass as the parent of nested spans. */
    std::uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::string name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    double start_ = 0;
};

} // namespace charon::perf_e2e

#endif // CHARON_PERF_E2E_SPAN_LOG_HH
