/**
 * @file
 * The three user journeys the end-to-end benchmark times.
 *
 * Each journey has three parts, run in one process:
 *  - setup(): what a user pays before the journey starts (loading
 *    warm traces, building fleet profiles); reported as setup_s;
 *  - run(): the timed journey itself (wall_s, cpu_s, peak_rss_mib);
 *  - check(): output checks, untimed, each counted as attempted and,
 *    when it fails, named in failures.
 *
 * The journeys call the simulator only through public entry points
 * (TraceCache, ExperimentRunner, PlatformSim, dse::Explorer,
 * fleet::runFleet, report::Table), wrapping each call in a Span so a
 * traced run attributes host time to the layer that spent it.
 */

#ifndef CHARON_PERF_E2E_JOURNEYS_HH
#define CHARON_PERF_E2E_JOURNEYS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span_log.hh"

namespace charon::perf_e2e
{

/** Where and how one journey process runs. */
struct JourneyConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    int jobs = 4;
    std::string cacheDir; ///< private trace cache (cold: empty)
    std::string workDir;  ///< private scratch (DSE journals)
};

/** What a journey reports besides host time. */
struct JourneyOutput
{
    /** FNV-1a over the journey's simulated results, in order. */
    std::string digest;
    std::size_t attempted = 0; ///< cells and checks
    std::vector<std::string> failures;
    /** Counts the journey observed (keys, events, cache bytes...). */
    std::map<std::string, double> counts;
    /** Simulated headline results (fig12_err_pct, spike p99.9). */
    std::map<std::string, double> results;

    void
    check(bool ok, const std::string &name)
    {
        ++attempted;
        if (!ok)
            failures.push_back(name);
    }
};

class Journey
{
  public:
    virtual ~Journey() = default;

    /** Per-process setup before the timed part. */
    virtual void setup(SpanLog &log) { (void)log; }
    /** The timed journey; @p parent is the enclosing span. */
    virtual void run(SpanLog &log, std::uint32_t parent) = 0;
    /** Output checks after the timed part. */
    virtual void check(SpanLog &log) = 0;

    JourneyOutput out;
};

/** The journey named @p cfg.workload, or null for an unknown name. */
std::unique_ptr<Journey> makeJourney(const JourneyConfig &cfg);

/**
 * Fill @p cfg.cacheDir with the traces a warm journey reads (the six
 * Table 3 ParallelScavenge traces for warm-sweep, the tenant traces
 * for fleet).  No-op for cold journeys.  False on a failed recording.
 */
bool fillCache(const JourneyConfig &cfg, std::string *error);

} // namespace charon::perf_e2e

#endif // CHARON_PERF_E2E_JOURNEYS_HH
