/**
 * @file
 * Tests for trace serialization: round trips (synthetic and real
 * workload traces), corruption rejection, and timing-equivalence of a
 * reloaded trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "gc/rollup.hh"
#include "gc/trace_io.hh"
#include "platform/platform_sim.hh"
#include "workload/mutator.hh"

using namespace charon;
using namespace charon::gc;

namespace
{

RunTrace
syntheticTrace()
{
    RunTrace trace;
    GcTrace gc;
    gc.major = true;
    gc.liveObjects = 123;
    gc.bytesCopied = 4567;
    PhaseTrace phase;
    phase.kind = PhaseKind::MajorCompact;
    phase.bitmapCacheHitRate = 0.875;
    phase.bitmapCacheWritebacks = 42;
    ThreadWork work;
    work.glueInstructions = 1000;
    work.glueMemAccesses = 50;
    Bucket b;
    b.kind = PrimKind::BitmapCount;
    b.srcCube = 2;
    b.dstCube = 2;
    b.invocations = 7;
    b.seqReadBytes = 224;
    b.rangeBits = 896;
    work.buckets.push_back(b);
    Bucket c;
    c.kind = PrimKind::Copy;
    c.srcCube = 1;
    c.dstCube = 3;
    c.hostOnly = true;
    c.invocations = 9;
    c.seqReadBytes = 999;
    c.writeBytes = 999;
    work.buckets.push_back(c);
    phase.addThread(work);
    phase.addThread(ThreadWork{}); // an idle thread
    gc.phases.push_back(phase);
    trace.gcs.push_back(gc);
    trace.gcs.push_back(GcTrace{}); // an empty minor GC
    trace.mutatorInstructions = {11, 22, 33};
    return trace;
}

} // namespace

TEST(TraceSoA, ColumnsRoundTripEveryField)
{
    // push() scatters a Bucket into the columns; get() must gather
    // back every field bit-for-bit, at any index.
    const RunTrace trace = syntheticTrace();
    const PhaseTrace &phase = trace.gcs[0].phases[0];
    ASSERT_EQ(phase.buckets.size(), 2u);
    const Bucket b0 = phase.buckets.get(0);
    EXPECT_EQ(b0.kind, PrimKind::BitmapCount);
    EXPECT_EQ(b0.srcCube, 2);
    EXPECT_EQ(b0.invocations, 7u);
    EXPECT_EQ(b0.rangeBits, 896u);
    EXPECT_FALSE(b0.hostOnly);
    const Bucket b1 = phase.buckets.get(1);
    EXPECT_EQ(b1.kind, PrimKind::Copy);
    EXPECT_EQ(b1.srcCube, 1);
    EXPECT_EQ(b1.dstCube, 3);
    EXPECT_TRUE(b1.hostOnly);
    EXPECT_EQ(b1.seqReadBytes, 999u);

    BucketColumns copy = phase.buckets;
    EXPECT_TRUE(copy == phase.buckets);
    copy.push(b0);
    EXPECT_TRUE(copy != phase.buckets);
}

TEST(TraceSoA, ThreadSpansPartitionTheBucketColumns)
{
    // addThread() appends each worker's buckets contiguously; the
    // spans must tile the columns exactly, in thread order.
    const RunTrace trace = syntheticTrace();
    const PhaseTrace &phase = trace.gcs[0].phases[0];
    ASSERT_EQ(phase.threads.size(), 2u);
    EXPECT_EQ(phase.threads[0].firstBucket, 0u);
    EXPECT_EQ(phase.threads[0].bucketCount, 2u);
    EXPECT_EQ(phase.threads[0].glueInstructions, 1000u);
    EXPECT_EQ(phase.threads[1].firstBucket, 2u);
    EXPECT_EQ(phase.threads[1].bucketCount, 0u);
    std::size_t covered = 0;
    for (const auto &span : phase.threads)
        covered += span.bucketCount;
    EXPECT_EQ(covered, phase.buckets.size());
    EXPECT_EQ(phase.totalInvocations(PrimKind::Copy), 9u);
    EXPECT_EQ(phase.totalBytes(PrimKind::BitmapCount), 224u);
}

TEST(TraceIo, SyntheticRoundTrip)
{
    RunTrace original = syntheticTrace();
    std::stringstream ss;
    writeTrace(ss, original);
    RunTrace loaded;
    std::string error;
    ASSERT_TRUE(readTrace(ss, loaded, &error)) << error;
    EXPECT_TRUE(traceEquals(original, loaded));
}

TEST(TraceIo, EmptyTraceRoundTrip)
{
    RunTrace empty;
    std::stringstream ss;
    writeTrace(ss, empty);
    RunTrace loaded;
    ASSERT_TRUE(readTrace(ss, loaded, nullptr));
    EXPECT_TRUE(traceEquals(empty, loaded));
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOTATRACE-------------";
    RunTrace loaded;
    std::string error;
    EXPECT_FALSE(readTrace(ss, loaded, &error));
    EXPECT_EQ(error, "bad magic");
}

TEST(TraceIo, RejectsTruncation)
{
    RunTrace original = syntheticTrace();
    std::stringstream ss;
    writeTrace(ss, original);
    std::string bytes = ss.str();
    for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                            std::size_t{20}}) {
        std::stringstream cut_ss(bytes.substr(0, cut));
        RunTrace loaded;
        std::string error;
        EXPECT_FALSE(readTrace(cut_ss, loaded, &error))
            << "cut at " << cut;
        EXPECT_FALSE(error.empty());
    }
}

TEST(TraceIo, RejectsWrongVersion)
{
    RunTrace original;
    std::stringstream ss;
    writeTrace(ss, original);
    std::string bytes = ss.str();
    bytes[8] = 99; // stomp the version field
    std::stringstream bad(bytes);
    RunTrace loaded;
    std::string error;
    EXPECT_FALSE(readTrace(bad, loaded, &error));
    EXPECT_EQ(error, "unsupported trace version");
}

TEST(TraceIo, TraceEqualsDetectsDifferences)
{
    RunTrace a = syntheticTrace();
    RunTrace b = syntheticTrace();
    EXPECT_TRUE(traceEquals(a, b));
    b.gcs[0].phases[0].buckets.invocations[0] += 1;
    EXPECT_FALSE(traceEquals(a, b));
}

TEST(TraceIo, RealWorkloadRoundTripPreservesTiming)
{
    // The load-bearing property: a reloaded trace replays to exactly
    // the same platform timing as the in-memory one.
    const auto &params = workload::findWorkload("ALS");
    workload::Mutator mut(params, params.heapBytes, 2);
    mut.run();
    const auto &original = mut.recorder().run();

    std::stringstream ss;
    writeTrace(ss, original);
    RunTrace loaded;
    std::string error;
    ASSERT_TRUE(readTrace(ss, loaded, &error)) << error;
    ASSERT_TRUE(traceEquals(original, loaded));

    sim::SystemConfig cfg;
    platform::PlatformSim sim_a(sim::PlatformKind::CharonNmp, cfg,
                                mut.cubeShift());
    platform::PlatformSim sim_b(sim::PlatformKind::CharonNmp, cfg,
                                mut.cubeShift());
    auto t_a = sim_a.simulate(original);
    auto t_b = sim_b.simulate(loaded);
    EXPECT_DOUBLE_EQ(t_a.gcSeconds, t_b.gcSeconds);
    EXPECT_DOUBLE_EQ(t_a.totalEnergyJ(), t_b.totalEnergyJ());
}

TEST(TraceIo, FileRoundTrip)
{
    RunTrace original = syntheticTrace();
    std::string path = ::testing::TempDir() + "charon_trace_test.bin";
    std::string error;
    ASSERT_TRUE(saveTraceFile(path, original, &error)) << error;
    RunTrace loaded;
    ASSERT_TRUE(loadTraceFile(path, loaded, &error)) << error;
    EXPECT_TRUE(traceEquals(original, loaded));
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails)
{
    RunTrace loaded;
    std::string error;
    EXPECT_FALSE(loadTraceFile("/nonexistent/path/trace.bin", loaded,
                               &error));
    EXPECT_FALSE(error.empty());
}

// --- Roll-up serialization ------------------------------------------

namespace
{

RunRollup
syntheticRollup()
{
    RunRollup rollup;
    GcRollup minor;
    minor.major = false;
    PhaseRollup roots;
    roots.kind = PhaseKind::MinorRoots;
    roots.simSeconds = 0.25;
    roots.glueSeconds = 0.125;
    roots.prims[static_cast<int>(PrimKind::Copy)] = {0.5, 4096, 7};
    roots.prims[static_cast<int>(PrimKind::ScanPush)] = {0.0625, 128,
                                                         3};
    minor.phases.push_back(roots);
    rollup.gcs.push_back(minor);

    GcRollup major;
    major.major = true;
    PhaseRollup compact;
    compact.kind = PhaseKind::MajorCompact;
    compact.simSeconds = 1.5;
    compact.glueSeconds = 0.75;
    compact.prims[static_cast<int>(PrimKind::BitmapCount)] = {
        0.375, 1 << 20, 99};
    major.phases.push_back(compact);
    rollup.gcs.push_back(major);
    return rollup;
}

} // namespace

TEST(RollupIo, RoundTrip)
{
    const RunRollup original = syntheticRollup();
    std::stringstream ss;
    writeRollup(ss, original);
    RunRollup loaded;
    std::string error;
    ASSERT_TRUE(readRollup(ss, loaded, &error)) << error;
    EXPECT_TRUE(rollupEquals(original, loaded));
}

TEST(RollupIo, HelpersSumAcrossPhases)
{
    const RunRollup r = syntheticRollup();
    EXPECT_DOUBLE_EQ(r.totalByKind(PrimKind::Copy).seconds, 0.5);
    EXPECT_EQ(r.totalByKind(PrimKind::Copy).bytes, 4096u);
    EXPECT_DOUBLE_EQ(r.totalByKind(PrimKind::BitmapCount).seconds,
                     0.375);
    EXPECT_DOUBLE_EQ(r.glueSeconds(), 0.875);
    EXPECT_DOUBLE_EQ(r.gcs[0].phases[0].threadSeconds(),
                     0.125 + 0.5 + 0.0625);
    EXPECT_EQ(r.gcs[0].phases[0].totalBytes(), 4096u + 128u);
}

TEST(RollupIo, EqualityDetectsDifferences)
{
    RunRollup a = syntheticRollup();
    RunRollup b = syntheticRollup();
    EXPECT_TRUE(rollupEquals(a, b));
    b.gcs[1].phases[0].prims[0].invocations += 1;
    EXPECT_FALSE(rollupEquals(a, b));
    b = syntheticRollup();
    b.gcs[0].phases[0].simSeconds += 1e-12;
    EXPECT_FALSE(rollupEquals(a, b));
}

TEST(RollupIo, BadMagicRejected)
{
    std::stringstream ss;
    writeRollup(ss, syntheticRollup());
    std::string bytes = ss.str();
    bytes[0] ^= 0xff;
    std::stringstream bad(bytes);
    RunRollup loaded;
    std::string error;
    EXPECT_FALSE(readRollup(bad, loaded, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(RollupIo, TruncationRejectedAtEveryPrefix)
{
    std::stringstream ss;
    writeRollup(ss, syntheticRollup());
    const std::string bytes = ss.str();
    // Every strict prefix must fail cleanly, never crash or accept.
    for (std::size_t n = 0; n < bytes.size(); n += 7) {
        std::stringstream cut(bytes.substr(0, n));
        RunRollup loaded;
        std::string error;
        EXPECT_FALSE(readRollup(cut, loaded, &error))
            << "prefix of " << n << " bytes was accepted";
    }
}

TEST(RollupIo, BadPhaseKindRejected)
{
    RunRollup r = syntheticRollup();
    std::stringstream ss;
    writeRollup(ss, r);
    std::string bytes = ss.str();
    // The first phase kind field sits right after magic + version +
    // gc count + major flag + phase count: 5 u64 little-endian words.
    bytes[5 * 8] = static_cast<char>(0x7f);
    std::stringstream bad(bytes);
    RunRollup loaded;
    std::string error;
    EXPECT_FALSE(readRollup(bad, loaded, &error));
}
