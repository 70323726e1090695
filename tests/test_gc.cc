/**
 * @file
 * Functional tests for the collectors: scavenge, mark-compact,
 * mark-sweep, the trigger policy, and the graph-fingerprint
 * invariant across collections.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "gc/collector.hh"
#include "gc/mark_compact.hh"
#include "gc/mark_sweep.hh"
#include "gc/recorder.hh"
#include "gc/scavenge.hh"
#include "gc/verify.hh"
#include "sim/rng.hh"

using namespace charon;
using namespace charon::gc;
using heap::Space;
using mem::Addr;

namespace
{

class GcTest : public ::testing::Test
{
  protected:
    GcTest()
    {
        nodeId = klasses.defineInstance("Node", 2, 2);
        bigId = klasses.defineInstance("Big", 1, 100);
        cfg.heapBytes = 16 * sim::kMiB;
        cfg.tenuringThreshold = 2;
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        rec = std::make_unique<TraceRecorder>(
            /*num_threads=*/4, /*cube_shift=*/22); // 4 MiB regions
    }

    /** Allocate a Node in Eden and keep it as root @p slot. */
    Addr
    rootNode(std::size_t slot)
    {
        Addr obj = heap->allocEden(nodeId);
        EXPECT_NE(obj, 0u);
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot] = obj;
        return obj;
    }

    /** Every heap word, for byte-exact before/after comparisons. */
    std::vector<std::uint64_t>
    arenaWords() const
    {
        std::vector<std::uint64_t> words;
        const auto &arena = heap->arena();
        for (Addr a = arena.base(); a < arena.limit(); a += 8)
            words.push_back(arena.load64(a));
        return words;
    }

    heap::KlassTable klasses;
    heap::KlassId nodeId = 0, bigId = 0;
    heap::HeapConfig cfg;
    std::unique_ptr<heap::ManagedHeap> heap;
    std::unique_ptr<TraceRecorder> rec;
};

} // namespace

// ---------------------------------------------------------------------
// Minor GC

TEST_F(GcTest, ScavengeKeepsReachableDropsGarbage)
{
    Addr keep = rootNode(0);
    heap->allocEden(nodeId); // garbage
    heap->allocEden(nodeId); // garbage
    Addr child = heap->allocEden(nodeId);
    heap->storeRef(keep, 0, child);

    auto before = fingerprintHeap(*heap);
    Scavenge sc(*heap, *rec);
    auto result = sc.collect();

    EXPECT_EQ(result.objectsCopied + result.objectsPromoted, 2u);
    EXPECT_EQ(fingerprintHeap(*heap), before);
    // Eden empty, survivors in From (post-swap).
    EXPECT_EQ(heap->region(Space::Eden).used(), 0u);
    EXPECT_EQ(heap->objectCount(Space::From), 2u);
    EXPECT_EQ(heap->region(Space::To).used(), 0u);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, ScavengeUpdatesRootsAndInternalRefs)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 0, a); // cycle

    Scavenge(*heap, *rec).collect();

    Addr new_a = heap->roots()[0];
    EXPECT_NE(new_a, a);
    EXPECT_EQ(heap->spaceOf(new_a), Space::From);
    Addr new_b = heap->refAt(new_a, 0);
    EXPECT_EQ(heap->spaceOf(new_b), Space::From);
    EXPECT_EQ(heap->refAt(new_b, 0), new_a); // cycle preserved
}

TEST_F(GcTest, ScavengeIncrementsAge)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect();
    EXPECT_EQ(heap->age(heap->roots()[0]), 1);
}

TEST_F(GcTest, AgedObjectIsPromoted)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect(); // age 1 (threshold 2)
    auto r2 = Scavenge(*heap, *rec).collect();
    EXPECT_EQ(r2.objectsPromoted, 1u);
    EXPECT_EQ(heap->spaceOf(heap->roots()[0]), Space::Old);
}

TEST_F(GcTest, PayloadSurvivesCopy)
{
    Addr obj = rootNode(0);
    // Node payload words are at offset 16 + 2 refs * 8 = 32.
    heap->store64(obj + 32, 0xdeadbeefcafebabeull);
    heap->store64(obj + 40, 0x1122334455667788ull);
    Scavenge(*heap, *rec).collect();
    Addr moved = heap->roots()[0];
    EXPECT_EQ(heap->load64(moved + 32), 0xdeadbeefcafebabeull);
    EXPECT_EQ(heap->load64(moved + 40), 0x1122334455667788ull);
}

TEST_F(GcTest, OldToYoungRefFoundViaCardTable)
{
    // Promote a holder into Old, then point it at a young object that
    // is reachable ONLY through it.
    Addr holder = rootNode(0);
    Scavenge(*heap, *rec).collect();
    Scavenge(*heap, *rec).collect(); // holder now in Old
    holder = heap->roots()[0];
    ASSERT_EQ(heap->spaceOf(holder), Space::Old);

    Addr young = heap->allocEden(nodeId);
    heap->store64(young + 32, 0x5555aaaa5555aaaaull);
    heap->storeRef(holder, 0, young); // dirties the card

    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_GE(result.dirtyCards, 1u);
    Addr moved = heap->refAt(heap->roots()[0], 0);
    EXPECT_NE(moved, 0u);
    EXPECT_EQ(heap->spaceOf(moved), Space::From);
    EXPECT_EQ(heap->load64(moved + 32), 0x5555aaaa5555aaaaull);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, CardStaysDirtyWhileOldToYoungRefPersists)
{
    Addr holder = rootNode(0);
    Scavenge(*heap, *rec).collect();
    Scavenge(*heap, *rec).collect();
    holder = heap->roots()[0];
    Addr young = heap->allocEden(nodeId);
    heap->storeRef(holder, 0, young);

    Scavenge(*heap, *rec).collect();
    // The young target survived into a survivor space, so the card
    // must have been re-dirtied for the next scavenge.
    auto &ct = heap->cardTable();
    EXPECT_TRUE(ct.isDirty(ct.cardIndex(heap->roots()[0])));

    // Once the target is promoted too, the card goes clean.
    Scavenge(*heap, *rec).collect();
    EXPECT_FALSE(ct.isDirty(ct.cardIndex(heap->roots()[0])));
    EXPECT_EQ(heap->spaceOf(heap->refAt(heap->roots()[0], 0)),
              Space::Old);
}

TEST_F(GcTest, SharedTargetCopiedOnce)
{
    Addr a = rootNode(0);
    Addr b = rootNode(1);
    Addr shared = heap->allocEden(nodeId);
    heap->storeRef(a, 0, shared);
    heap->storeRef(b, 0, shared);

    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_EQ(result.objectsCopied, 3u);
    EXPECT_EQ(heap->refAt(heap->roots()[0], 0),
              heap->refAt(heap->roots()[1], 0));
}

TEST_F(GcTest, SurvivorOverflowPromotes)
{
    // Fill eden with objects larger than the To space in total.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t big_bytes = 103 * 8; // Big instance: 2+1+100 words
    std::uint64_t count = to_cap / big_bytes + 8;
    heap->roots().resize(count, 0);
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots()[i] = o;
    }
    auto result = Scavenge(*heap, *rec).collect();
    EXPECT_GT(result.objectsPromoted, 0u);
    EXPECT_GT(result.objectsCopied, 0u);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, ScavengeTraceHasExpectedPhases)
{
    rootNode(0);
    Scavenge(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    EXPECT_FALSE(gc.major);
    ASSERT_EQ(gc.phases.size(), 3u);
    EXPECT_EQ(gc.phases[0].kind, PhaseKind::MinorRoots);
    EXPECT_EQ(gc.phases[1].kind, PhaseKind::MinorCardScan);
    EXPECT_EQ(gc.phases[2].kind, PhaseKind::MinorEvacuate);
    // The evacuation copied exactly one object.
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::Copy), 1u);
    EXPECT_GE(gc.phases[1].totalInvocations(PrimKind::Search), 1u);
}

TEST_F(GcTest, TraceCopyBytesMatchFunctionalBytes)
{
    for (int i = 0; i < 10; ++i)
        rootNode(static_cast<std::size_t>(i));
    auto result = Scavenge(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    std::uint64_t trace_bytes = 0;
    gc.phases[2].forEachBucket([&](const gc::Bucket &b) {
        if (b.kind == PrimKind::Copy)
            trace_bytes += b.seqReadBytes;
    });
    EXPECT_EQ(trace_bytes, result.bytesCopied + result.bytesPromoted);
}

namespace
{

/**
 * The promotion-guarantee estimate as a plain hash-set traversal:
 * the same roots and dirty-card holders, any visit order.
 */
Scavenge::SpaceDemand
referenceDemand(const heap::ManagedHeap &h, int threshold)
{
    Scavenge::SpaceDemand d;
    std::unordered_set<Addr> visited;
    std::vector<Addr> stack;
    auto consider = [&](Addr t) {
        if (t != 0 && h.inYoung(t) && visited.insert(t).second)
            stack.push_back(t);
    };
    for (Addr r : h.roots())
        consider(r);
    const auto &cards = h.cardTable();
    for (std::uint64_t c = 0; c < cards.numCards(); ++c) {
        if (!cards.isDirty(c))
            continue;
        Addr end = cards.cardStart(c) + heap::CardTable::kCardBytes;
        for (Addr o = h.firstObjectOnCard(c);
             o != 0 && o < end && o < h.region(Space::Old).top;
             o += h.sizeBytes(o)) {
            for (std::uint64_t i = 0; i < h.refCount(o); ++i)
                consider(h.refAt(o, i));
        }
    }
    while (!stack.empty()) {
        Addr o = stack.back();
        stack.pop_back();
        std::uint64_t bytes = h.sizeBytes(o);
        d.largestObject = std::max(d.largestObject, bytes);
        (h.age(o) + 1 >= threshold ? d.promoteBytes : d.survivorBytes) +=
            bytes;
        for (std::uint64_t i = 0; i < h.refCount(o); ++i)
            consider(h.refAt(o, i));
    }
    return d;
}

} // namespace

TEST_F(GcTest, EstimateDemandMatchesHashSetTraversal)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        heap = std::make_unique<heap::ManagedHeap>(cfg, klasses);
        sim::Rng rng(seed);
        auto alloc_young = [&] {
            return rng.chance(0.25)
                       ? heap->allocEden(klasses.objArrayId(),
                                         rng.range(1, 12))
                       : heap->allocEden(rng.chance(0.1) ? bigId
                                                         : nodeId);
        };
        auto link = [&](const std::vector<Addr> &from,
                        const std::vector<Addr> &to, double p) {
            for (Addr o : from) {
                for (std::uint64_t i = 0; i < heap->refCount(o); ++i) {
                    if (rng.chance(p))
                        heap->storeRef(o, i, to[rng.below(to.size())]);
                }
            }
        };
        // A first young generation, scavenged into From so the next
        // one lands beside survivors of other ages.
        std::vector<Addr> first;
        for (int i = 0; i < 300; ++i)
            first.push_back(alloc_young());
        link(first, first, 0.5);
        heap->roots().assign(first.begin(), first.begin() + 40);
        Scavenge(*heap, *rec).collect();

        std::vector<Addr> young(heap->roots().begin(),
                                heap->roots().end());
        for (int i = 0; i < 300; ++i)
            young.push_back(alloc_young());
        for (Addr o : young)
            heap->setAge(o, static_cast<int>(rng.below(5)));
        std::vector<Addr> old;
        for (int i = 0; i < 150; ++i)
            old.push_back(heap->allocOldObject(
                rng.chance(0.3) ? klasses.objArrayId() : nodeId,
                rng.range(1, 8)));
        // Old-to-young refs reached only through dirty cards.
        link(old, young, 0.3);
        link(old, old, 0.2);
        link(young, young, 0.4);
        heap->roots().clear();
        for (Addr o : young) {
            if (rng.chance(0.05))
                heap->roots().push_back(o);
        }
        const auto &cards = heap->cardTable();
        ASSERT_LT(cards.findDirty(0, cards.numCards()), cards.numCards());

        for (int threshold : {1, 2, 3, 6}) {
            auto got = Scavenge(*heap, *rec, threshold).estimateDemand();
            auto want = referenceDemand(*heap, threshold);
            ASSERT_GT(want.liveYoungBytes(), 0u);
            EXPECT_EQ(got.survivorBytes, want.survivorBytes)
                << "seed " << seed << " threshold " << threshold;
            EXPECT_EQ(got.promoteBytes, want.promoteBytes)
                << "seed " << seed << " threshold " << threshold;
            EXPECT_EQ(got.largestObject, want.largestObject)
                << "seed " << seed << " threshold " << threshold;
        }
    }
}

// ---------------------------------------------------------------------
// Major GC

TEST_F(GcTest, MarkCompactPreservesGraph)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    Addr c = heap->allocEden(nodeId);
    heap->storeRef(a, 0, b);
    heap->storeRef(b, 0, c);
    heap->storeRef(c, 1, a);
    heap->allocEden(bigId); // garbage

    auto before = fingerprintHeap(*heap);
    MarkCompact mc(*heap, *rec);
    auto result = mc.collect();

    EXPECT_FALSE(result.outOfMemory);
    EXPECT_EQ(result.liveObjects, 3u);
    EXPECT_EQ(fingerprintHeap(*heap), before);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, MarkCompactPacksHeapBottom)
{
    // Some garbage between live objects, then compact.
    std::vector<Addr> keep;
    for (int i = 0; i < 50; ++i) {
        Addr o = heap->allocEden(nodeId);
        if (i % 3 == 0)
            keep.push_back(o);
    }
    heap->roots().assign(keep.begin(), keep.end());
    MarkCompact mc(*heap, *rec);
    auto result = mc.collect();

    // Everything live is contiguous at the bottom of Old.
    EXPECT_EQ(heap->region(Space::Old).used(), result.liveBytes);
    EXPECT_EQ(heap->objectCount(Space::Old), result.liveObjects);
    EXPECT_EQ(heap->region(Space::Eden).used(), 0u);
    EXPECT_EQ(heap->region(Space::From).used(), 0u);
    EXPECT_EQ(heap->region(Space::To).used(), 0u);
    heap->verifySpace(Space::Old);
}

TEST_F(GcTest, MarkCompactIsIdempotentOnPackedHeap)
{
    for (int i = 0; i < 20; ++i)
        rootNode(static_cast<std::size_t>(i));
    MarkCompact(*heap, *rec).collect();
    auto fp1 = fingerprintHeap(*heap);
    auto r2 = MarkCompact(*heap, *rec).collect();
    // Already packed: every object "moves" to its own address.
    EXPECT_EQ(r2.bytesMoved, 0u);
    EXPECT_EQ(fingerprintHeap(*heap), fp1);
}

TEST_F(GcTest, MarkCompactEmitsBitmapCountAndCopy)
{
    Addr a = rootNode(0);
    Addr b = heap->allocEden(nodeId);
    heap->storeRef(a, 1, b);
    MarkCompact(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    ASSERT_EQ(gc.phases.size(), 3u);
    EXPECT_EQ(gc.phases[0].kind, PhaseKind::MajorMark);
    EXPECT_EQ(gc.phases[1].kind, PhaseKind::MajorSummary);
    EXPECT_EQ(gc.phases[2].kind, PhaseKind::MajorCompact);
    // 2 live objects, 1 non-null pointer + 1 root: BitmapCount =
    // adjusted pointers (2) + moved objects (2).  The two adjacent
    // objects move as one contiguous run -> one bulk Copy.
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::BitmapCount), 4u);
    EXPECT_EQ(gc.phases[2].totalInvocations(PrimKind::Copy), 1u);
    EXPECT_EQ(gc.phases[0].totalInvocations(PrimKind::ScanPush), 2u);
}

TEST_F(GcTest, MarkCompactBitmapCacheHitRateMeasured)
{
    for (int i = 0; i < 200; ++i)
        rootNode(static_cast<std::size_t>(i));
    MarkCompact(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    // Compaction walks the bitmap with strong locality; the 8 KB
    // cache should be comfortably above 50% on this stream (the paper
    // reports ~90% on full workloads).
    EXPECT_GT(gc.phases[2].bitmapCacheHitRate, 0.5);
}

TEST_F(GcTest, MarkCompactOutOfMemoryLeavesHeapIntact)
{
    // Make the live set bigger than Old: fill Old completely with
    // live data and add live Eden data on top.
    std::uint64_t big_bytes = 103 * 8;
    std::size_t slot = 0;
    while (true) {
        Addr o = heap->allocOld(103);
        if (o == 0)
            break;
        heap->store64(o, static_cast<std::uint64_t>(bigId)
                             | (103ull << 32));
        heap->store64(o + 8, 0);
        for (int i = 0; i < 1; ++i)
            heap->store64(o + 16 + static_cast<std::uint64_t>(i) * 8, 0);
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot++] = o;
    }
    while (true) {
        Addr o = heap->allocEden(bigId);
        if (o == 0)
            break;
        if (heap->roots().size() <= slot)
            heap->roots().resize(slot + 1, 0);
        heap->roots()[slot++] = o;
    }
    (void)big_bytes;

    auto before = fingerprintHeap(*heap);
    auto bytes_before = arenaWords();
    auto result = MarkCompact(*heap, *rec).collect();
    EXPECT_TRUE(result.outOfMemory);
    EXPECT_EQ(fingerprintHeap(*heap), before);
    // Not one header or slot written: no forwarding was installed.
    EXPECT_TRUE(arenaWords() == bytes_before);
}

TEST_F(GcTest, FullGcLeavesNoForwardingAndKeepsAges)
{
    // Survivors of every kind: old objects at the bottom that stay in
    // place (the dense prefix), old objects behind garbage that
    // slide, and young objects of mixed ages.  Each carries a tag in
    // its first payload word so it can be found after the move.
    sim::Rng rng(77);
    std::map<std::uint64_t, int> age_of_tag;
    std::uint64_t next_tag = 1;
    auto keep = [&](Addr o) {
        int age = static_cast<int>(rng.below(16));
        heap->setAge(o, age);
        heap->store64(o + 32, next_tag);
        age_of_tag[next_tag++] = age;
        heap->roots().push_back(o);
    };
    for (int i = 0; i < 20; ++i)
        keep(heap->allocOldObject(nodeId));
    for (int i = 0; i < 200; ++i) {
        Addr o = heap->allocOldObject(nodeId);
        if (rng.chance(0.5))
            keep(o);
    }
    for (int i = 0; i < 300; ++i) {
        Addr o = heap->allocEden(nodeId);
        if (rng.chance(0.5))
            keep(o);
    }

    auto result = MarkCompact(*heap, *rec).collect();
    ASSERT_FALSE(result.outOfMemory);
    EXPECT_EQ(result.liveObjects, age_of_tag.size());
    std::size_t seen = 0;
    heap->forEachObject(Space::Old, [&](Addr o) {
        EXPECT_FALSE(heap->isForwarded(o)) << std::hex << o;
        auto it = age_of_tag.find(heap->load64(o + 32));
        ASSERT_NE(it, age_of_tag.end()) << std::hex << o;
        EXPECT_EQ(heap->age(o), it->second) << "tag " << it->first;
        ++seen;
    });
    EXPECT_EQ(seen, age_of_tag.size());
    checkHeapIntegrity(*heap);
}

// ---------------------------------------------------------------------
// Collector policy

TEST_F(GcTest, PolicyRunsMinorWhenGuaranteeHolds)
{
    rootNode(0);
    Collector coll(*heap, *rec);
    EXPECT_EQ(coll.onAllocationFailure(), GcOutcome::Minor);
    EXPECT_EQ(coll.minorCount(), 1u);
    EXPECT_EQ(coll.majorCount(), 0u);
}

TEST_F(GcTest, PolicyEscalatesToMajorWhenOldIsFull)
{
    // Fill Old almost completely so the promotion guarantee fails,
    // with plenty of live young data.
    std::uint64_t old_free = heap->region(Space::Old).free();
    std::uint64_t blob_words = 1024;
    std::size_t slot = 0;
    while (heap->region(Space::Old).free()
           > blob_words * 8 + 4096) {
        Addr o = heap->allocOld(blob_words);
        ASSERT_NE(o, 0u);
        heap->store64(o, static_cast<std::uint64_t>(bigId)
                             | (blob_words << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 0);
        // Half of old data is garbage (no root).
        if (slot % 2 == 0) {
            heap->roots().push_back(o);
        }
        ++slot;
    }
    (void)old_free;
    // Live young data exceeding the To-space capacity, so the
    // survivor overflow cannot fit in Old's remaining free space.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t big_bytes = 103 * 8;
    std::uint64_t count = to_cap / big_bytes + 100;
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots().push_back(o);
    }
    Collector coll(*heap, *rec);
    EXPECT_EQ(coll.onAllocationFailure(), GcOutcome::Major);
    EXPECT_EQ(coll.majorCount(), 1u);
    checkHeapIntegrity(*heap);
}

// ---------------------------------------------------------------------
// Mark-sweep (CMS-style)

TEST_F(GcTest, MarkSweepReclaimsDeadOldObjects)
{
    // Populate Old with alternating live/dead objects.
    std::vector<Addr> all;
    for (int i = 0; i < 40; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(nodeId)
                             | (6ull << 32));
        // Use real node size (6 words) then filler would misalign;
        // instead size the header to the allocation (10 words) via a
        // long[] of 7 elements: 3 + 7 = 10 words.
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    for (std::size_t i = 0; i < all.size(); i += 2)
        heap->roots().push_back(all[i]);

    auto before = fingerprintHeap(*heap);
    MarkSweep ms(*heap, *rec);
    auto result = ms.collect();

    EXPECT_EQ(result.liveObjects, all.size() / 2);
    EXPECT_EQ(result.freedBytes, (all.size() / 2) * 80);
    EXPECT_EQ(fingerprintHeap(*heap), before); // nothing moved
    heap->verifySpace(Space::Old);             // fillers walkable
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, MarkSweepCoalescesAdjacentGarbage)
{
    std::vector<Addr> all;
    for (int i = 0; i < 30; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    // Keep only every 10th object: runs of 9 dead coalesce.
    for (std::size_t i = 0; i < all.size(); i += 10)
        heap->roots().push_back(all[i]);
    MarkSweep ms(*heap, *rec);
    auto result = ms.collect();
    EXPECT_EQ(result.freeChunks, 3u); // three runs of 9
    for (const auto &chunk : ms.freeList())
        EXPECT_EQ(chunk.bytes, 9u * 80);
}

TEST_F(GcTest, MarkSweepFreeListAllocationReusesHoles)
{
    std::vector<Addr> all;
    for (int i = 0; i < 20; ++i) {
        Addr o = heap->allocOld(10);
        heap->store64(o, static_cast<std::uint64_t>(
                             klasses.longArrayId())
                             | (10ull << 32));
        heap->store64(o + 8, 0);
        heap->store64(o + 16, 7);
        all.push_back(o);
    }
    for (std::size_t i = 0; i < all.size(); i += 2)
        heap->roots().push_back(all[i]);
    MarkSweep ms(*heap, *rec);
    ms.collect();

    auto chunks_before = ms.freeList().size();
    Addr obj = ms.allocateFromFreeList(nodeId); // 6 words into a
    ASSERT_NE(obj, 0u);                         // 10-word hole
    EXPECT_EQ(heap->klassOf(obj), nodeId);
    EXPECT_EQ(heap->sizeWords(obj), 6u);
    EXPECT_EQ(ms.freeList().size(), chunks_before); // split, not drop
    heap->verifySpace(Space::Old);
}

TEST_F(GcTest, MarkSweepNeverEmitsBitmapCount)
{
    rootNode(0);
    MarkSweep(*heap, *rec).collect();
    const auto &gc = rec->run().gcs.back();
    EXPECT_EQ(gc.totalInvocations(PrimKind::BitmapCount), 0u);
    EXPECT_GT(gc.totalInvocations(PrimKind::ScanPush), 0u);
}

// ---------------------------------------------------------------------
// Randomized end-to-end property test

TEST_F(GcTest, PropertyRandomGraphsSurviveManyCollections)
{
    sim::Rng rng(4242);
    // Build a random graph in Eden with payload data.
    std::vector<Addr> objs;
    for (int i = 0; i < 400; ++i) {
        Addr o = rng.chance(0.2)
                     ? heap->allocEden(klasses.objArrayId(),
                                       rng.range(1, 16))
                     : heap->allocEden(nodeId);
        ASSERT_NE(o, 0u);
        objs.push_back(o);
    }
    // Random edges.
    for (Addr o : objs) {
        std::uint64_t n = heap->refCount(o);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (rng.chance(0.6)) {
                heap->storeRef(o, i,
                               objs[rng.below(objs.size())]);
            }
        }
    }
    // A random subset as roots.
    for (Addr o : objs) {
        if (rng.chance(0.15))
            heap->roots().push_back(o);
    }

    auto fp = fingerprintHeap(*heap);
    for (int round = 0; round < 6; ++round) {
        if (round % 3 == 2)
            MarkCompact(*heap, *rec).collect();
        else
            Scavenge(*heap, *rec).collect();
        ASSERT_EQ(fingerprintHeap(*heap), fp) << "round " << round;
        checkHeapIntegrity(*heap);
    }
}

// ---------------------------------------------------------------------
// Adaptive tenuring (opt-in, HotSpot AdaptiveSizePolicy-style)

TEST_F(GcTest, AdaptiveTenuringLowersThresholdOnOverflow)
{
    Collector coll(*heap, *rec);
    coll.setAdaptiveTenuring(true);
    // Live young data far beyond the To space: every scavenge
    // overflows, so the threshold must walk down to 1.
    std::uint64_t to_cap = heap->region(Space::To).capacity();
    std::uint64_t count = to_cap / (103 * 8) * 3;
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr o = heap->allocEden(bigId);
        ASSERT_NE(o, 0u);
        heap->roots().push_back(o);
    }
    coll.minorCollect();
    // Overflow pushed the threshold down (promote sooner).
    EXPECT_LT(coll.tenuringThreshold(), cfg.tenuringThreshold);
    checkHeapIntegrity(*heap);
}

TEST_F(GcTest, AdaptiveTenuringRaisesThresholdWhenSurvivorsIdle)
{
    Collector coll(*heap, *rec);
    coll.setAdaptiveTenuring(true);
    rootNode(0); // a single tiny survivor
    int start = heap->config().tenuringThreshold;
    for (int i = 0; i < 5; ++i)
        coll.minorCollect();
    EXPECT_GT(coll.tenuringThreshold(), start);
    // With a high threshold the lone object keeps ping-ponging in
    // the survivor spaces instead of promoting.
    EXPECT_TRUE(heap->inYoung(heap->roots()[0]));
}

TEST_F(GcTest, FixedTenuringStaysPut)
{
    Collector coll(*heap, *rec); // adaptive off (default)
    rootNode(0);
    for (int i = 0; i < 4; ++i)
        coll.minorCollect();
    EXPECT_EQ(coll.tenuringThreshold(), cfg.tenuringThreshold);
}
