/**
 * @file
 * perf_e2e: one process of the end-to-end benchmark.
 *
 *   perf_e2e fill --workload W --seed N --cache DIR [--jobs J]
 *   perf_e2e run  --workload W --seed N --cache DIR --work DIR
 *                 [--jobs J] [--trace FILE] [--setup-only]
 *
 * `fill` records the traces a warm journey starts from.  `run` sets
 * the journey up, times it (its report goes to stderr), checks its
 * outputs and prints one JSON line on stdout: the steady-clock time
 * setup finished ("ready", so the caller can measure set-up from its
 * own spawn time), wall and CPU seconds and peak RSS of the journey,
 * the checks, the result digest, and — with --trace — the per-layer
 * metrics derived from the span log, which is also written to FILE
 * as Chrome trace-event JSON.
 *
 * perf_e2e/run.py drives this binary; see perf_e2e/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "journeys.hh"
#include "span_log.hh"

using namespace charon::perf_e2e;

namespace
{

struct Args
{
    std::string command;
    JourneyConfig journey;
    std::string traceFile;
    bool setupOnly = false;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s fill|run --workload W --seed N --cache DIR "
                 "[--work DIR] [--jobs J]\n"
                 "       [--trace FILE] [--setup-only]\n",
                 argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.journey.workload = value;
        else if (flag == "--seed")
            args.journey.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--cache")
            args.journey.cacheDir = value;
        else if (flag == "--work")
            args.journey.workDir = value;
        else if (flag == "--jobs")
            args.journey.jobs = std::atoi(value.c_str());
        else if (flag == "--trace")
            args.traceFile = value;
        else
            return false;
    }
    return (args.command == "fill" || args.command == "run")
           && !args.journey.workload.empty()
           && !args.journey.cacheDir.empty() && args.journey.jobs > 0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6
           + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

/**
 * Reset the kernel's peak-RSS mark of this process, so the journey's
 * peak is not the set-up's.  (getrusage's ru_maxrss cannot serve: it
 * also survives exec, so it would report the launcher's RSS.)
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM: peak RSS of this process since the last reset. */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonObject(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, v] : values) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": " + jsonNumber(v);
    }
    return out + "}";
}

/** Total and longest duration of the spans sharing one name. */
struct SpanStats
{
    double sum = 0;
    double max = 0;
};

/** The value at quantile @p q of @p sorted (nearest rank). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    auto rank = static_cast<std::size_t>(std::ceil(q * sorted.size()));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/**
 * The per-layer metrics of one traced journey process.  Layer times
 * sum every span of the process (setup, journey, checks); the pool's
 * idle share covers the timed journey only.
 */
std::map<std::string, double>
layerMetrics(const std::vector<SpanRecord> &spans, const JourneyOutput &out,
             double journeyStart, double journeyEnd, int jobs)
{
    std::map<std::string, SpanStats> byName;
    std::vector<double> replays;
    double busy = 0;
    auto starts = [](const std::string &s, const char *prefix) {
        return s.rfind(prefix, 0) == 0;
    };
    for (const auto &s : spans) {
        auto &st = byName[s.name];
        st.sum += s.duration();
        st.max = std::max(st.max, s.duration());
        if (starts(s.name, "platform.replay."))
            replays.push_back(s.duration());
        const bool leaf = starts(s.name, "harness.trace_cache.")
                          || starts(s.name, "harness.runner.")
                          || starts(s.name, "workload.record.")
                          || starts(s.name, "platform.replay.")
                          || s.name == "fleet.des"
                          || s.name == "report.render";
        if (leaf && s.start >= journeyStart && s.end <= journeyEnd)
            busy += s.duration();
    }
    auto sum = [&](const std::string &name) {
        auto it = byName.find(name);
        return it == byName.end() ? 0.0 : it->second.sum;
    };
    auto count = [&](const std::string &name) {
        auto it = out.counts.find(name);
        return it == out.counts.end() ? 0.0 : it->second;
    };
    auto result = [&](const std::string &name) {
        auto it = out.results.find(name);
        return it == out.results.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::map<std::string, double> m;
    double recordS = 0, recordMax = 0;
    for (const auto &[name, st] : byName) {
        if (starts(name, "workload.record.")) {
            recordS += st.sum;
            recordMax = std::max(recordMax, st.max);
        }
    }
    m["workload.record_s"] = recordS;
    m["workload.record_max_s"] = recordMax;
    m["workload.keys"] = count("workload.keys");
    m["workload.gcs"] = count("workload.gcs");
    const double allocMib = count("workload.alloc_bytes") / (1 << 20);
    m["workload.alloc_mib"] = allocMib;
    m["workload.alloc_mib_per_s"] = ratio(allocMib, recordS);

    m["gc.trace_io.encode_ms"] = sum("gc.trace_io.encode") * 1e3;
    m["gc.trace_io.decode_ms"] = sum("gc.trace_io.decode") * 1e3;
    m["gc.trace_io.bytes"] = count("gc.trace_io.bytes");

    m["harness.trace_cache.hits"] = count("harness.trace_cache.hits");
    m["harness.trace_cache.misses"] = count("harness.trace_cache.misses");
    m["harness.trace_cache.load_ms"] = sum("harness.trace_cache.load") * 1e3;
    m["harness.trace_cache.store_ms"] =
        sum("harness.trace_cache.store") * 1e3;
    m["harness.trace_cache.bytes"] = count("harness.trace_cache.bytes");
    m["harness.runner.cells"] = count("harness.runner.cells");
    m["harness.runner.dedup"] =
        ratio(count("harness.runner.cells"), count("workload.keys"));
    m["harness.pool.idle_frac"] =
        1.0 - ratio(busy, (journeyEnd - journeyStart) * jobs);

    double replayS = 0;
    for (const char *p : {"ddr4", "hmc", "charon", "charon-cpu", "ideal",
                          "igpu", "cxl"}) {
        const double s = sum(std::string("platform.replay.") + p);
        m[std::string("platform.replay_s.") + p] = s;
        replayS += s;
    }
    m["platform.replay_s"] = replayS;
    m["platform.replays"] = static_cast<double>(replays.size());
    const double events = count("platform.events");
    m["platform.events"] = events;
    m["platform.batched_frac"] = ratio(count("platform.batched_events"), events);
    m["platform.ns_per_event"] = ratio(replayS * 1e9, events);
    std::sort(replays.begin(), replays.end());
    m["platform.replay_p50_ms"] = quantile(replays, 0.50) * 1e3;
    // The highest percentile of a fixed ladder with at least ten
    // replays beyond it; 0 when there are fewer than twenty replays.
    double tailPct = 0;
    for (double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        if (replays.size() * (1 - pct / 100) >= 10)
            tailPct = pct;
    }
    m["platform.replay_tail_pct"] = tailPct;
    m["platform.replay_tail_ms"] =
        tailPct > 0 ? quantile(replays, tailPct / 100) * 1e3 : 0.0;

    for (const char *c : {"points", "cells_evaluated", "incremental_hits",
                          "journal_hits"}) {
        m[std::string("dse.") + c] = count(std::string("dse.") + c);
    }
    m["dse.sweep_s"] = sum("dse.sweep");
    m["dse.resume_s"] = sum("dse.resume");

    const double desS = sum("fleet.des");
    m["fleet.profile_s"] = sum("fleet.profile");
    m["fleet.des_s"] = desS;
    m["fleet.sims"] = count("fleet.sims");
    m["fleet.requests"] = count("fleet.requests");
    m["fleet.requests_per_s"] = ratio(count("fleet.requests"), desS);
    m["fleet.host_gcs"] = count("fleet.host_gcs");
    m["fleet.spike_p999_ms"] = result("fleet.spike_p999_ms");
    for (const char *mix : {"services", "mixed"}) {
        const std::string name = std::string("fleet.deadline_gain_pct.") + mix;
        m[name] = result(name);
    }

    m["report.render_ms"] = sum("report.render") * 1e3;
    m["report.fig12_err_pct"] = result("report.fig12_err_pct");
    m["trace.spans"] = static_cast<double>(spans.size());
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage(argv[0]);
    const auto &cfg = args.journey;

    if (args.command == "fill") {
        std::string error;
        if (!fillCache(cfg, &error)) {
            std::fprintf(stderr, "perf_e2e: fill failed: %s\n",
                         error.c_str());
            return 1;
        }
        return 0;
    }

    auto journey = makeJourney(cfg);
    if (!journey) {
        std::fprintf(stderr, "perf_e2e: unknown workload '%s'\n",
                     cfg.workload.c_str());
        return 2;
    }
    SpanLog log(!args.traceFile.empty());

    journey->setup(log);
    const double ready = nowSeconds();
    if (args.setupOnly) {
        std::printf("{\"ready\": %s}\n", jsonNumber(ready).c_str());
        return 0;
    }

    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    {
        Span span(log, "journey", 0);
        journey->run(log, span.id());
    }
    const double t1 = nowSeconds();
    const double cpu = cpuSeconds() - cpu0;
    const double rss = peakRssMib();

    journey->check(log);
    const JourneyOutput &out = journey->out;

    std::string failures = "[";
    for (const auto &f : out.failures) {
        if (failures.size() > 1)
            failures += ", ";
        failures += jsonString(f);
    }
    failures += "]";

    std::string layers = "{}";
    if (log.enabled()) {
        layers = jsonObject(
            layerMetrics(log.spans(), out, t0, t1, cfg.jobs));
        std::string error;
        if (!log.writeChromeTrace(args.traceFile,
                                  "perf_e2e " + cfg.workload + " seed "
                                      + std::to_string(cfg.seed),
                                  &error)) {
            std::fprintf(stderr, "perf_e2e: %s\n", error.c_str());
            return 1;
        }
    }

    std::printf("{\"ready\": %s, \"wall_s\": %s, \"cpu_s\": %s, "
                "\"peak_rss_mib\": %s, \"attempted\": %zu, "
                "\"failures\": %s, \"digest\": %s, \"results\": %s, "
                "\"layers\": %s}\n",
                jsonNumber(ready).c_str(), jsonNumber(t1 - t0).c_str(),
                jsonNumber(cpu).c_str(), jsonNumber(rss).c_str(),
                out.attempted, failures.c_str(),
                jsonString(out.digest).c_str(),
                jsonObject(out.results).c_str(), layers.c_str());
    return 0;
}
