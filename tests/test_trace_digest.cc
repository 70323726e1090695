/**
 * @file
 * Functional trace digest: an FNV-1a hash of the encoded trace
 * (gc::writeTrace bytes) of each pinned FunctionalKey, compared with
 * tests/golden/trace_digests.json.
 *
 * The replay goldens check what the platforms make of a trace; this
 * checks the trace itself, so a change to the functional layer (the
 * mutator, a collector, the recorder) that claims to keep its output
 * is held to every byte.  The keys are the six Table 3 workloads under
 * ParallelScavenge at seed 1 (the Figure 12 recordings) plus CMS keys
 * whose promotion-guarantee checks fail and fall back to the
 * mark-compact collector.  After an intended change to the recorded
 * traces, regenerate and commit the file with the change:
 *
 *     CHARON_UPDATE_GOLDEN=1 build/tests/test_trace_digest
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "json_mini.hh"
#include "workload/catalog.hh"

using namespace charon;
using namespace charon::harness;

namespace
{

std::string
goldenPath()
{
    return std::string(CHARON_GOLDEN_DIR) + "/trace_digests.json";
}

std::vector<FunctionalKey>
digestKeys()
{
    std::vector<FunctionalKey> keys;
    for (const auto &w : workload::workloadCatalog()) {
        FunctionalKey k;
        k.workload = w.name;
        keys.push_back(ExperimentRunner::resolve(k));
    }
    // CMS: at its default heap KM's promotion guarantee fails after a
    // mark-sweep too, so it compacts; ALS near its minimum heap runs
    // dozens of compaction fallbacks.
    FunctionalKey km;
    km.workload = "KM";
    km.collector = CollectorKind::Cms;
    keys.push_back(ExperimentRunner::resolve(km));
    FunctionalKey als;
    als.workload = "ALS";
    als.collector = CollectorKind::Cms;
    als.heapBytes = 39321600; // 1.25 x ALS's minimum heap
    keys.push_back(als);
    return keys;
}

std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

struct Recorded
{
    std::string digest;
    bool oom = false;
    /** GCs that ran the mark-compact collector. */
    int compactions = 0;
};

Recorded
record(const FunctionalKey &key)
{
    FunctionalRun run = ExperimentRunner::executeFunctional(key);
    std::ostringstream os(std::ios::binary);
    gc::writeTrace(os, run.trace);
    Recorded r;
    r.digest = fnv1aHex(os.str());
    r.oom = run.oom;
    for (const auto &g : run.trace.gcs) {
        r.compactions += std::any_of(
            g.phases.begin(), g.phases.end(), [](const auto &p) {
                return p.kind == gc::PhaseKind::MajorCompact;
            });
    }
    return r;
}

void
writeGolden(const std::vector<FunctionalKey> &keys,
            const std::vector<Recorded> &recs)
{
    std::ofstream os(goldenPath());
    ASSERT_TRUE(os) << "cannot write " << goldenPath();
    os << "{\n  \"comment\": \"FNV-1a of gc::writeTrace bytes per "
          "FunctionalKey; regenerate with CHARON_UPDATE_GOLDEN=1 "
          "test_trace_digest\",\n  \"digests\": {\n";
    for (std::size_t i = 0; i < keys.size(); ++i) {
        os << "    \"" << keys[i].str() << "\": \"" << recs[i].digest
           << '"' << (i + 1 < keys.size() ? "," : "") << '\n';
    }
    os << "  }\n}\n";
}

} // namespace

TEST(TraceDigest, RecordedTracesMatchGolden)
{
    const auto keys = digestKeys();
    std::vector<Recorded> recs(keys.size());
    const int jobs = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    parallelFor(jobs, keys.size(),
                [&](std::size_t i) { recs[i] = record(keys[i]); });

    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_FALSE(recs[i].oom) << keys[i].str();
        if (keys[i].collector == CollectorKind::Cms) {
            EXPECT_GT(recs[i].compactions, 0)
                << keys[i].str() << " never fell back to mark-compact";
        }
    }

    if (std::getenv("CHARON_UPDATE_GOLDEN") != nullptr) {
        writeGolden(keys, recs);
        std::printf("golden file updated: %s\n", goldenPath().c_str());
        return;
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing " << goldenPath();
    std::stringstream text;
    text << in.rdbuf();
    auto root = testjson::parse(text.str());
    auto digests = root->get("digests");
    ASSERT_TRUE(digests && digests->isObject());
    EXPECT_EQ(digests->object.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto want = digests->get(keys[i].str());
        ASSERT_TRUE(want && want->isString())
            << "no golden digest for " << keys[i].str();
        EXPECT_EQ(recs[i].digest, want->string)
            << keys[i].str() << ": the recorded trace changed; if that "
            << "is intended, regenerate with CHARON_UPDATE_GOLDEN=1";
    }
}
