#include "span_log.hh"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>

#include <sys/syscall.h>
#include <unistd.h>

namespace charon::perf_e2e
{

namespace
{

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Span names are our own identifiers; escape only what JSON needs. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
nowSeconds()
{
    return clockSeconds(CLOCK_MONOTONIC);
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

std::uint32_t
threadId()
{
    return static_cast<std::uint32_t>(::syscall(SYS_gettid));
}

void
SpanLog::add(SpanRecord record)
{
    if (!enabled_)
        return;
    if (record.id == 0)
        record.id = newId();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &processName,
                          std::string *error) const
{
    auto all = spans();
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.start < b.start
                         || (a.start == b.start && a.id < b.id);
              });
    const double origin = all.empty() ? 0.0 : all.front().start;

    std::ofstream os(path);
    if (!os) {
        *error = "cannot open '" + path + "' for writing";
        return false;
    }
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \""
       << jsonEscape(processName) << "\"}}";
    char buf[160];
    for (const auto &s : all) {
        std::snprintf(buf, sizeof buf,
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u, ",
                      (s.start - origin) * 1e6, s.duration() * 1e6,
                      s.tid);
        os << ",\n{\"ph\": \"X\", \"name\": \"" << jsonEscape(s.name)
           << "\", " << buf << "\"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
    os.flush();
    if (!os) {
        *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

Span::Span(SpanLog &log, std::string name, std::uint32_t parent)
    : log_(log)
{
    if (!log_.enabled())
        return;
    name_ = std::move(name);
    id_ = log_.newId();
    parent_ = parent;
    start_ = nowSeconds();
}

Span::~Span()
{
    if (!log_.enabled())
        return;
    log_.add(SpanRecord{std::move(name_), start_, nowSeconds(), id_,
                        parent_, threadId()});
}

} // namespace charon::perf_e2e
