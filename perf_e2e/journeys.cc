#include "journeys.hh"

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/objective.hh"
#include "dse/param_space.hh"
#include "fleet/fleet_sim.hh"
#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "harness/trace_cache.hh"
#include "platform/platform_sim.hh"
#include "report/table.hh"
#include "sim/stats.hh"
#include "workload/catalog.hh"

namespace charon::perf_e2e
{

namespace
{

using harness::Cell;
using harness::CollectorKind;
using harness::ExperimentRunner;
using harness::FunctionalKey;
using harness::FunctionalRun;
using sim::PlatformKind;

/** The paper's Figure 12 geomean Charon speedup over host + DDR4. */
constexpr double kPaperFig12Speedup = 3.29;

/**
 * bench/fleet's defaults: a 1 s horizon at 24 solo-profile GC cycles
 * per simulated second.  A longer horizon must keep that density; at
 * the default density it loses the deadline-beats-fcfs regime.
 */
constexpr double kFleetHorizonSec = 1.0;
constexpr double kFleetGcScalePerSec = 24.0;
constexpr int kFleetTenants = 16;

/** FNV-1a over result bit patterns (perf_replay's functional digest). */
class Digest
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(&bits, sizeof bits);
    }

    void add(const std::string &s) { add(s.data(), s.size()); }

    std::string
    str() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Lowercase platform token used in span and metric names. */
const char *
platformToken(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::HostDdr4:      return "ddr4";
      case PlatformKind::HostHmc:       return "hmc";
      case PlatformKind::CharonNmp:     return "charon";
      case PlatformKind::CharonCpuSide: return "charon-cpu";
      case PlatformKind::Ideal:         return "ideal";
      case PlatformKind::IgpuOffload:   return "igpu";
      case PlatformKind::CxlMsa:        return "cxl";
    }
    return "?";
}

std::string
replaySpan(PlatformKind kind)
{
    return std::string("platform.replay.") + platformToken(kind);
}

/** The six Table 3 workloads, in catalog order. */
std::vector<std::string>
tableThreeWorkloads()
{
    std::vector<std::string> names;
    for (const auto &w : workload::workloadCatalog())
        names.push_back(w.name);
    return names;
}

/** A ParallelScavenge cell at the workload's default heap. */
Cell
makeCell(const std::string &workload, PlatformKind platform,
         std::uint64_t seed)
{
    Cell c;
    c.key.workload = workload;
    c.key.collector = CollectorKind::ParallelScavenge;
    c.key.seed = seed;
    c.platform = platform;
    c.config = sim::SystemConfig::table2();
    c.label = workload + " (ps) on " + sim::platformName(platform);
    return c;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** writeTrace then readTrace; true when the copy is traceEquals. */
bool
roundTrip(SpanLog &log, std::uint32_t parent, const gc::RunTrace &trace,
          JourneyOutput &out)
{
    std::string bytes;
    {
        Span span(log, "gc.trace_io.encode", parent);
        std::ostringstream os(std::ios::binary);
        gc::writeTrace(os, trace);
        bytes = std::move(os).str();
    }
    out.counts["gc.trace_io.bytes"] += static_cast<double>(bytes.size());
    gc::RunTrace copy;
    bool read = false;
    {
        Span span(log, "gc.trace_io.decode", parent);
        std::istringstream is(bytes, std::ios::binary);
        std::string error;
        read = gc::readTrace(is, copy, &error);
    }
    return read && gc::traceEquals(trace, copy);
}

// ----------------------------------------------------------------------
// Cold grid.  An untraced journey calls ExperimentRunner::run, so its
// wall_s, cpu_s and peak_rss_mib are the program's own runner.  A
// traced journey composes the same two phases from the public calls
// run() makes, so each call gets its own span; its wall minus the
// untraced wall (trace.overhead_s) thus also shows any drift between
// this copy and the runner.

struct GridKey
{
    FunctionalKey key;
    std::shared_ptr<const FunctionalRun> run; ///< null: failed
    bool hit = false;
    std::string error;
};

struct GridResult
{
    bool ok = false;
    std::string error;
    platform::RunTiming timing;
    std::uint64_t events = 0;  ///< executed + batched-away (traced only)
    std::uint64_t batched = 0;
};

class Grid
{
  public:
    /** Resolve and deduplicate the functional keys (main thread). */
    explicit Grid(std::vector<Cell> cells) : cells_(std::move(cells))
    {
        std::map<std::string, std::size_t> index;
        keyOf_.reserve(cells_.size());
        for (const auto &cell : cells_) {
            auto key = ExperimentRunner::resolve(cell.key);
            auto [it, fresh] = index.emplace(key.str(), keys_.size());
            if (fresh)
                keys_.push_back(GridKey{key, nullptr, false, {}});
            keyOf_.push_back(it->second);
        }
        results_.resize(cells_.size());
    }

    /** Note the keys @p cache already holds (they would be hits). */
    void
    probeCache(const harness::TraceCache &cache)
    {
        for (auto &g : keys_)
            g.hit = fileBytes(cache.path(g.key)) > 0;
    }

    /** Untraced: the program's runner does both phases. */
    void
    run(ExperimentRunner &runner)
    {
        auto results = runner.run(cells_);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            auto &res = results[i];
            results_[i] = GridResult{res.ok, res.error, res.timing, 0, 0};
            GridKey &g = keys_[keyOf_[i]];
            if (!g.run && res.run)
                g.run = res.run;
        }
    }

    /**
     * Traced: phase 1 runs every distinct key once on the pool (cache,
     * else record and store), phase 2 every cell's replay.
     */
    void
    run(const harness::TraceCache &cache, int jobs, SpanLog &log,
        std::uint32_t parent)
    {
        {
            Span pool(log, "harness.pool.functional", parent);
            harness::parallelFor(jobs, keys_.size(), [&](std::size_t k) {
                GridKey &g = keys_[k];
                try {
                    FunctionalRun run;
                    {
                        Span span(log, "harness.trace_cache.load",
                                  pool.id());
                        g.hit = cache.load(g.key, run);
                    }
                    if (!g.hit) {
                        {
                            Span span(log,
                                      std::string("workload.record.")
                                          + harness::collectorKindToken(
                                              g.key.collector),
                                      pool.id());
                            run = ExperimentRunner::executeFunctional(g.key);
                        }
                        Span span(log, "harness.trace_cache.store",
                                  pool.id());
                        cache.store(g.key, run);
                    }
                    g.run = std::make_shared<FunctionalRun>(std::move(run));
                } catch (const std::exception &e) {
                    g.error = e.what();
                }
            });
        }
        Span pool(log, "harness.pool.replay", parent);
        harness::parallelFor(jobs, cells_.size(), [&](std::size_t i) {
            const Cell &cell = cells_[i];
            const GridKey &g = keys_[keyOf_[i]];
            GridResult &r = results_[i];
            if (!g.run) {
                r.error = "functional run failed: " + g.error;
                return;
            }
            if (g.run->oom) {
                r.error = "OOM";
                return;
            }
            try {
                Span span(log, replaySpan(cell.platform), pool.id());
                platform::PlatformSim sim(cell.platform, cell.config,
                                          g.run->cubeShift);
                r.timing = sim.simulate(g.run->trace);
                r.events = sim.executedEvents() + sim.batchedEvents();
                r.batched = sim.batchedEvents();
                r.ok = true;
            } catch (const std::exception &e) {
                r.error = e.what();
            }
        });
    }

    /** Cell checks, trace round-trips and the layer counts. */
    void
    check(SpanLog &log, const harness::TraceCache &cache,
          JourneyOutput &out) const
    {
        auto &c = out.counts;
        c["harness.runner.cells"] = static_cast<double>(cells_.size());
        c["workload.keys"] = static_cast<double>(keys_.size());
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const auto &r = results_[i];
            out.check(r.ok, "cell " + cells_[i].label + ": " + r.error);
            c["platform.events"] += static_cast<double>(r.events);
            c["platform.batched_events"] += static_cast<double>(r.batched);
        }
        Span span(log, "check.roundtrip", 0);
        for (const auto &g : keys_) {
            c[g.hit ? "harness.trace_cache.hits"
                    : "harness.trace_cache.misses"] += 1;
            if (!g.run)
                continue;
            c["workload.gcs"] +=
                static_cast<double>(g.run->gcsMinor + g.run->gcsMajor);
            c["workload.alloc_bytes"] +=
                static_cast<double>(g.run->allocatedBytes);
            c["harness.trace_cache.bytes"] +=
                static_cast<double>(fileBytes(cache.path(g.key)));
            out.check(roundTrip(log, span.id(), g.run->trace, out),
                      "trace round-trip " + g.key.str());
        }
        // A cold journey must record every key: a hit means a cache
        // outside the benchmark's private directory leaked in.
        out.check(c["harness.trace_cache.hits"] == 0, "cold cache");
    }

    const std::vector<Cell> &cells() const { return cells_; }
    const std::vector<GridResult> &results() const { return results_; }

  private:
    std::vector<Cell> cells_;
    std::vector<std::size_t> keyOf_;
    std::vector<GridKey> keys_;
    std::vector<GridResult> results_;
};

/** perf_replay's cell set: Table 3 x five platforms, PS, cold cache. */
class ColdFig12 : public Journey
{
  public:
    static constexpr PlatformKind kKinds[] = {
        PlatformKind::HostDdr4, PlatformKind::HostHmc,
        PlatformKind::CharonNmp, PlatformKind::CharonCpuSide,
        PlatformKind::Ideal};
    static constexpr std::size_t kNumKinds = std::size(kKinds);

    explicit ColdFig12(const JourneyConfig &cfg)
        : cfg_(cfg), grid_(cells(cfg.seed))
    {
    }

    void
    setup(SpanLog &log) override
    {
        Span setup(log, "setup", 0);
        runner_ = std::make_unique<ExperimentRunner>(
            harness::RunnerConfig{cfg_.jobs, cfg_.cacheDir});
        grid_.probeCache(runner_->cache());
    }

    void
    run(SpanLog &log, std::uint32_t parent) override
    {
        if (log.enabled())
            grid_.run(runner_->cache(), cfg_.jobs, log, parent);
        else
            grid_.run(*runner_);
        Span span(log, "report.render", parent);
        // The report goes to stderr: stdout carries the result line.
        render(std::cerr);
    }

    void
    check(SpanLog &log) override
    {
        grid_.check(log, runner_->cache(), out);
        Digest digest;
        for (std::size_t i = 0; i < grid_.cells().size(); ++i) {
            const Cell &cell = grid_.cells()[i];
            const GridResult &r = grid_.results()[i];
            digest.add(cell.key.workload);
            digest.add(std::string(sim::platformName(cell.platform)));
            digest.add(r.timing.gcSeconds);
            digest.add(r.timing.totalEnergyJ());
        }
        out.digest = digest.str();
    }

  private:
    static std::vector<Cell>
    cells(std::uint64_t seed)
    {
        std::vector<Cell> out;
        for (const auto &name : tableThreeWorkloads()) {
            for (auto kind : kKinds)
                out.push_back(makeCell(name, kind, seed));
        }
        return out;
    }

    /** Host over platform GC seconds of one cell pair (0: failed). */
    static double
    speedup(const GridResult &base, const GridResult &r)
    {
        return base.ok && r.ok && r.timing.gcSeconds > 0
                   ? base.timing.gcSeconds / r.timing.gcSeconds
                   : 0.0;
    }

    void
    render(std::ostream &os)
    {
        report::Table table({"workload", "HMC", "Charon", "Charon-CPU",
                             "Ideal"});
        std::vector<double> charon;
        const auto &res = grid_.results();
        for (std::size_t b = 0; b < res.size(); b += kNumKinds) {
            std::vector<std::string> row = {grid_.cells()[b].key.workload};
            for (std::size_t k = 1; k < kNumKinds; ++k)
                row.push_back(report::times(speedup(res[b], res[b + k])));
            table.addRow(row);
            charon.push_back(speedup(res[b], res[b + 2]));
        }
        table.print(os);
        const double g = sim::geomean(charon);
        out.results["report.fig12_geomean"] = g;
        out.results["report.fig12_err_pct"] =
            std::fabs(g - kPaperFig12Speedup) / kPaperFig12Speedup * 100;
    }

    JourneyConfig cfg_;
    std::unique_ptr<ExperimentRunner> runner_;
    Grid grid_;
};

// ----------------------------------------------------------------------
// Warm DSE sweep.

/**
 * Attributes the ExperimentRunner work inside dse::Explorer, which the
 * benchmark cannot wrap in spans.  The runner calls its progress hook
 * after each functional key and each replayed cell, on the pool
 * thread that did the work, so the thread CPU time between two hook
 * calls on one thread is one unit of work.  A batch's keys all finish
 * before its first replay starts (the pool joins between the phases),
 * so of a batch's ticks the last `cells` are replays.
 */
class RunnerProbe
{
  public:
    explicit RunnerProbe(SpanLog &log) : log_(log) {}

    /** The progress hook (any pool thread). */
    void
    tick()
    {
        const double cpu = threadCpuSeconds();
        const double used = cpu - lastCpu_;
        lastCpu_ = cpu;
        const double end = nowSeconds();
        std::lock_guard<std::mutex> lock(mutex_);
        ticks_.push_back(Tick{end, used, threadId()});
    }

    /** Before a batch: a batch of one runs inline on this thread. */
    void
    begin()
    {
        lastCpu_ = threadCpuSeconds();
        std::lock_guard<std::mutex> lock(mutex_);
        ticks_.clear();
    }

    /** After a batch that replayed @p cells cells on @p platform. */
    void
    end(std::size_t cells, PlatformKind platform, std::uint32_t parent)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::size_t keys =
            ticks_.size() > cells ? ticks_.size() - cells : 0;
        for (std::size_t i = 0; i < ticks_.size(); ++i) {
            const Tick &t = ticks_[i];
            log_.add(SpanRecord{i < keys ? "harness.runner.functional"
                                         : replaySpan(platform),
                                t.end - t.cpu, t.end, 0, parent, t.tid});
        }
        ticks_.clear();
    }

  private:
    struct Tick
    {
        double end;
        double cpu;
        std::uint32_t tid;
    };

    /** Each thread's CPU clock at its previous tick (0 on a new
     *  thread, whose clock starts at 0). */
    static thread_local double lastCpu_;

    SpanLog &log_;
    std::mutex mutex_;
    std::vector<Tick> ticks_; ///< guarded by mutex_
};

thread_local double RunnerProbe::lastCpu_ = 0;

/**
 * A multi-axis Explorer grid over the six Table 3 workloads on a warm
 * trace cache, then a resume pass over the same journal.
 */
class WarmSweep : public Journey
{
  public:
    static constexpr PlatformKind kBackends[] = {
        PlatformKind::CharonNmp, PlatformKind::IgpuOffload,
        PlatformKind::CxlMsa};

    explicit WarmSweep(const JourneyConfig &cfg) : cfg_(cfg) {}

    void
    setup(SpanLog &log) override
    {
        Span setup(log, "setup", 0);
        runner_ = std::make_unique<ExperimentRunner>(
            harness::RunnerConfig{cfg_.jobs, cfg_.cacheDir});
        // Load the warm traces the way Explorer::profileFor would on
        // first use (main thread, one key at a time).
        for (const auto &name : tableThreeWorkloads()) {
            auto key = ExperimentRunner::resolve(
                makeCell(name, PlatformKind::HostDdr4, cfg_.seed).key);
            const auto bytes = fileBytes(runner_->cache().path(key));
            out.counts[bytes > 0 ? "harness.trace_cache.hits"
                                 : "harness.trace_cache.misses"] += 1;
            out.counts["harness.trace_cache.bytes"] +=
                static_cast<double>(bytes);
            out.check(bytes > 0, "warm cache holds " + key.str());
            Span span(log, "harness.trace_cache.load", setup.id());
            keys_.push_back(key);
            runner_->functional(key);
        }

        dse::ParamSpace space;
        space.base.seed = cfg_.seed;
        // Backend first: the enumeration is backend-major, so each
        // backend's points form one contiguous, in-order slice.
        std::vector<std::pair<std::string, std::vector<std::string>>>
            axes = {{"backend", {"nmp", "igpu", "cxl"}},
                    {"workload", tableThreeWorkloads()},
                    {"units", {"2", "4", "8", "16"}},
                    {"tsv-gbs", {"160", "320", "640"}},
                    {"link-gbs", {"40", "80", "160"}},
                    {"distributed", {"0", "1"}}};
        for (auto &[name, values] : axes) {
            std::string error;
            out.check(space.axis(name, values, &error),
                      "dse axis " + name + ": " + error);
        }
        points_ = space.enumerate();
    }

    void
    run(SpanLog &log, std::uint32_t parent) override
    {
        const std::string path = cfg_.workDir + "/sweep.dse.jsonl";
        std::filesystem::remove(path);
        std::unique_ptr<RunnerProbe> probe;
        if (log.enabled()) {
            probe = std::make_unique<RunnerProbe>(log);
            runner_->setProgressHook([p = probe.get()] { p->tick(); });
        }

        {
            Span sweep(log, "dse.sweep", parent);
            dse::SweepJournal journal(path);
            dse::Explorer explorer(*runner_, journal);
            // Every point's DDR4 baseline first, then one evaluate()
            // per backend: the same cells a single evaluate() runs,
            // with each harness batch replaying one platform.
            auto batch = [&](PlatformKind platform, auto &&call) {
                Span span(log, "dse.batch", sweep.id());
                const auto before = explorer.evaluatedCells();
                if (probe)
                    probe->begin();
                auto result = call();
                if (probe) {
                    probe->end(explorer.evaluatedCells() - before,
                               platform, span.id());
                }
                return result;
            };
            auto all = dse::pointCells(points_);
            std::vector<Cell> baseCells;
            std::vector<std::string> baseKeys;
            for (std::size_t i = 0; i < all.cells.size(); i += 2) {
                baseCells.push_back(all.cells[i]);
                baseKeys.push_back(all.keys[i]);
            }
            batch(PlatformKind::HostDdr4, [&] {
                return explorer.runCells(baseCells, baseKeys);
            });
            evals_.clear();
            for (auto backend : kBackends) {
                std::vector<dse::DsePoint> slice;
                for (const auto &p : points_) {
                    if (p.backend == backend)
                        slice.push_back(p);
                }
                auto evals = batch(backend,
                                   [&] { return explorer.evaluate(slice); });
                evals_.insert(evals_.end(), evals.begin(), evals.end());
            }
            frontier_ = frontier(evals_);
            out.counts["dse.cells_evaluated"] =
                static_cast<double>(explorer.evaluatedCells());
            out.counts["dse.incremental_hits"] =
                static_cast<double>(explorer.incrementalHits());
            out.counts["harness.runner.cells"] =
                static_cast<double>(explorer.evaluatedCells());
        }
        if (probe)
            runner_->setProgressHook({});

        {
            Span resume(log, "dse.resume", parent);
            ExperimentRunner runner(
                harness::RunnerConfig{cfg_.jobs, cfg_.cacheDir});
            dse::SweepJournal journal(path);
            dse::Explorer explorer(runner, journal);
            resumed_ = explorer.evaluate(points_);
            resumeFrontier_ = frontier(resumed_);
            resumeEvaluated_ = explorer.evaluatedCells();
            out.counts["dse.journal_hits"] =
                static_cast<double>(explorer.journalHits());
        }

        Span span(log, "report.render", parent);
        report::Table table({"design point", "speedup", "area mm2",
                             "energy J"});
        for (std::size_t i : frontier_) {
            const auto &e = evals_[i];
            table.addRow({e.point.str(), report::times(e.speedup),
                          report::num(e.areaMm2, 3),
                          report::num(e.energyJ, 4)});
        }
        table.print(std::cerr);
    }

    void
    check(SpanLog &log) override
    {
        out.counts["dse.points"] = static_cast<double>(points_.size());
        std::size_t failed = 0;
        Digest digest;
        for (const auto &e : evals_) {
            failed += e.ok ? 0 : 1;
            digest.add(e.point.str());
            digest.add(e.base.gcSeconds);
            digest.add(e.charon.gcSeconds);
            digest.add(e.energyJ);
            digest.add(e.areaMm2);
        }
        out.digest = digest.str();
        out.check(evals_.size() == points_.size() && failed == 0,
                  "dse points evaluated (" + std::to_string(failed)
                      + " failed)");
        out.check(resumeEvaluated_ == 0,
                  "dse resume evaluated " + std::to_string(resumeEvaluated_)
                      + " cells");
        bool same = resumeFrontier_ == frontier_;
        for (std::size_t i = 0; same && i < frontier_.size(); ++i) {
            const auto &a = evals_[frontier_[i]];
            const auto &b = resumed_[frontier_[i]];
            same = a.speedup == b.speedup && a.energyJ == b.energyJ
                   && a.areaMm2 == b.areaMm2;
        }
        out.check(same, "dse resume frontier");

        Span span(log, "check.roundtrip", 0);
        for (const auto &key : keys_) {
            auto run = runner_->functional(key);
            out.counts["workload.keys"] += 1;
            out.check(roundTrip(log, span.id(), run->trace, out),
                      "trace round-trip " + key.str());
        }
    }

  private:
    static std::vector<std::size_t>
    frontier(const std::vector<dse::PointEval> &evals)
    {
        std::vector<dse::Objectives> objectives;
        for (const auto &e : evals)
            objectives.push_back(e.objectives());
        return dse::paretoFrontier(objectives);
    }

    JourneyConfig cfg_;
    std::unique_ptr<ExperimentRunner> runner_;
    std::vector<FunctionalKey> keys_;
    std::vector<dse::DsePoint> points_;
    std::vector<dse::PointEval> evals_;
    std::vector<dse::PointEval> resumed_;
    std::vector<std::size_t> frontier_;
    std::vector<std::size_t> resumeFrontier_;
    std::size_t resumeEvaluated_ = 0;
};

// ----------------------------------------------------------------------
// Fleet.

/** bench/fleet's mixes with the tenants' trace seeds offset by the
 *  benchmark seed (seed 1 reproduces the bench exactly). */
std::vector<fleet::TenantSpec>
seededMix(const std::string &mix, std::uint64_t seed)
{
    auto specs = fleet::fleetMix(mix, kFleetTenants);
    for (auto &spec : specs)
        spec.seed += 2 * (seed - 1);
    return specs;
}

class Fleet : public Journey
{
  public:
    explicit Fleet(const JourneyConfig &cfg) : cfg_(cfg) {}

    void
    setup(SpanLog &log) override
    {
        Span setup(log, "setup", 0);
        runner_ = std::make_unique<ExperimentRunner>(
            harness::RunnerConfig{cfg_.jobs, cfg_.cacheDir});
        // The tenants' distinct functional keys, checked against the
        // warm cache before the profiles load them.
        for (const auto &mix : fleet::fleetMixNames()) {
            for (const auto &spec : seededMix(mix, cfg_.seed)) {
                FunctionalKey key;
                key.workload = spec.workload;
                key.collector = spec.collector;
                key.heapBytes = spec.heapBytes;
                key.seed = spec.seed;
                key = ExperimentRunner::resolve(key);
                keys_.emplace(key.str(), key);
            }
        }
        for (const auto &[name, key] : keys_) {
            const auto bytes = fileBytes(runner_->cache().path(key));
            out.counts[bytes > 0 ? "harness.trace_cache.hits"
                                 : "harness.trace_cache.misses"] += 1;
            out.counts["harness.trace_cache.bytes"] +=
                static_cast<double>(bytes);
            out.check(bytes > 0, "warm cache holds " + name);
        }
        for (const auto &mix : fleet::fleetMixNames()) {
            const auto specs = seededMix(mix, cfg_.seed);
            std::vector<fleet::TenantProfile> profiles;
            std::string error;
            bool ok = false;
            {
                Span span(log, "fleet.profile", setup.id());
                ok = fleet::buildProfiles(*runner_, specs, &profiles,
                                          &error);
            }
            // Two replay cells per tenant: its platform and DDR4.
            out.counts["harness.runner.cells"] +=
                static_cast<double>(2 * specs.size());
            out.check(ok, "fleet profiles " + mix + ": " + error);
            profiles_.emplace_back(mix, std::move(profiles));
        }
    }

    void
    run(SpanLog &log, std::uint32_t parent) override
    {
        // The grid's simulations are independent, so they run on the
        // fixed pool like every other journey's work; bench/fleet runs
        // them one after another.  A single-threaded journey would
        // time whichever vCPU it landed on: on a shared 4-vCPU host,
        // consecutive journeys differed by up to 50%.
        std::vector<fleet::FleetConfig> sims;
        std::vector<std::size_t> simMix;
        for (std::size_t m = 0; m < profiles_.size(); ++m) {
            for (int c = 0; c < fleet::kNumArrivalCurves; ++c) {
                for (int p = 0; p < fleet::kNumArbPolicies; ++p) {
                    fleet::FleetConfig cfg;
                    cfg.tenants = seededMix(profiles_[m].first, cfg_.seed);
                    cfg.policy = static_cast<fleet::ArbPolicy>(p);
                    cfg.arrival.curve = static_cast<fleet::ArrivalCurve>(c);
                    cfg.arrival.horizonSec = kFleetHorizonSec;
                    cfg.gcRateScale = kFleetGcScalePerSec * kFleetHorizonSec;
                    cfg.seed = cfg_.seed;
                    sims.push_back(cfg);
                    simMix.push_back(m);
                }
            }
        }
        std::vector<fleet::FleetResult> results(sims.size());
        {
            Span pool(log, "harness.pool.fleet", parent);
            harness::parallelFor(cfg_.jobs, sims.size(), [&](std::size_t i) {
                Span span(log, "fleet.des", pool.id());
                results[i] =
                    fleet::runFleet(sims[i], profiles_[simMix[i]].second);
            });
        }

        report::Table table({"mix", "arrival", "policy", "GC p50(ms)",
                             "GC p99(ms)", "GC p99.9(ms)", "host GCs"});
        Digest digest;
        for (std::size_t i = 0; i < sims.size(); ++i) {
            const fleet::FleetConfig &cfg = sims[i];
            const fleet::FleetResult &res = results[i];
            const std::string &mix = profiles_[simMix[i]].first;
            const int p = static_cast<int>(cfg.policy);
            const double p999 = res.pauseMs.quantile(0.999);
            std::string row = mix + "/"
                              + fleet::arrivalCurveName(cfg.arrival.curve)
                              + "/" + fleet::arbPolicyName(cfg.policy);
            digest.add(row);
            digest.add(res.pauseMs.quantile(0.50));
            digest.add(res.pauseMs.quantile(0.99));
            digest.add(p999);
            digest.add(static_cast<double>(res.requests));
            digest.add(static_cast<double>(res.hostFallbacks));
            if (cfg.arrival.curve == fleet::ArrivalCurve::Spike)
                spikeP999_[mix][p] = p999;
            hostGcs_[mix][p] += res.hostFallbacks;
            out.counts["fleet.sims"] += 1;
            out.counts["fleet.requests"] += static_cast<double>(res.requests);
            out.counts["fleet.host_gcs"] +=
                static_cast<double>(res.hostFallbacks);
            table.addRow({mix, fleet::arrivalCurveName(cfg.arrival.curve),
                          fleet::arbPolicyName(cfg.policy),
                          report::num(res.pauseMs.quantile(0.50), 3),
                          report::num(res.pauseMs.quantile(0.99), 3),
                          report::num(p999, 3),
                          std::to_string(res.hostFallbacks)});
        }
        out.digest = digest.str();
        Span span(log, "report.render", parent);
        table.print(std::cerr);
    }

    void
    check(SpanLog &log) override
    {
        const int fcfs = static_cast<int>(fleet::ArbPolicy::Fcfs);
        const int fair = static_cast<int>(fleet::ArbPolicy::FairShare);
        const int deadline = static_cast<int>(fleet::ArbPolicy::DeadlineAware);
        std::string wins, losses;
        for (const auto &[mix, profiles] : profiles_) {
            auto &q = spikeP999_[mix];
            const std::string regime =
                mix + " " + report::num(q[deadline], 3) + " vs "
                + report::num(q[fcfs], 3) + " ms";
            (q[deadline] < q[fcfs] ? wins : losses) += " " + regime;
            out.results["fleet.deadline_gain_pct." + mix] =
                100 * (q[fcfs] - q[deadline]) / q[fcfs];
            // The arbiter's contract: with no faults injected, only
            // the deadline policy bails out to the host.
            const auto &h = hostGcs_[mix];
            out.check(h[fcfs] == 0 && h[fair] == 0,
                      "fleet " + mix + ": only deadline falls back to "
                          "the host (fcfs " + std::to_string(h[fcfs])
                          + ", fair " + std::to_string(h[fair])
                          + ", deadline " + std::to_string(h[deadline])
                          + ")");
        }
        // bench/fleet's regime gate: deadline beats fcfs on spike
        // p99.9 in at least one mix.  At seed 1 (bench/fleet's own
        // configuration) it wins in both.  Elsewhere a single mix can
        // lose by a few percent, because the margin depends on the
        // seeded tenant traces; each mix's gain is reported.
        const bool both = cfg_.seed == 1;
        out.check(both ? losses.empty() : !wins.empty(),
                  std::string("fleet: deadline beats fcfs on spike p99.9 ")
                      + (both ? "in both mixes" : "in a mix")
                      + " (won:" + wins + "; lost:" + losses + ")");
        out.results["fleet.spike_p999_ms"] = spikeP999_["mixed"][deadline];

        // The tenants' traces, from the runner's memo (the profiles
        // loaded them).
        Span span(log, "check.roundtrip", 0);
        for (const auto &[name, key] : keys_) {
            out.counts["workload.keys"] += 1;
            auto run = runner_->functional(key);
            out.check(roundTrip(log, span.id(), run->trace, out),
                      "trace round-trip " + name);
        }
    }

  private:
    JourneyConfig cfg_;
    std::unique_ptr<ExperimentRunner> runner_;
    std::map<std::string, FunctionalKey> keys_;
    std::vector<std::pair<std::string, std::vector<fleet::TenantProfile>>>
        profiles_;
    std::map<std::string, std::array<double, fleet::kNumArbPolicies>>
        spikeP999_;
    std::map<std::string, std::array<std::uint64_t, fleet::kNumArbPolicies>>
        hostGcs_;
};

} // namespace

std::unique_ptr<Journey>
makeJourney(const JourneyConfig &cfg)
{
    if (cfg.workload == "cold-fig12")
        return std::make_unique<ColdFig12>(cfg);
    if (cfg.workload == "warm-sweep")
        return std::make_unique<WarmSweep>(cfg);
    if (cfg.workload == "fleet")
        return std::make_unique<Fleet>(cfg);
    return nullptr;
}

bool
fillCache(const JourneyConfig &cfg, std::string *error)
{
    ExperimentRunner runner(harness::RunnerConfig{cfg.jobs, cfg.cacheDir});
    if (cfg.workload == "warm-sweep") {
        std::vector<Cell> cells;
        for (const auto &name : tableThreeWorkloads()) {
            cells.push_back(makeCell(name, PlatformKind::HostDdr4, cfg.seed));
            cells.back().replay = false;
        }
        auto results = runner.run(cells);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!results[i].ok) {
                *error = cells[i].label + ": " + results[i].error;
                return false;
            }
        }
    } else if (cfg.workload == "fleet") {
        for (const auto &mix : fleet::fleetMixNames()) {
            std::vector<fleet::TenantProfile> profiles;
            if (!fleet::buildProfiles(runner, seededMix(mix, cfg.seed),
                                      &profiles, error)) {
                return false;
            }
        }
    }
    return true;
}

} // namespace charon::perf_e2e
