/**
 * @file
 * MajorGC: the mark-compact full collector (Figure 3(b)).
 *
 * Phase 1 (mark): trace the object graph from the roots, setting the
 * begin/end bits of every live object in the mark bitmaps
 * (Scan&Push + mark_obj).
 *
 * Phase 2 (summary): per heap region, the live-word total and the
 * destination prefix (cheap; <0.03% of MajorGC per the paper).
 *
 * Phase 3 (compact): viewing the heap as one linear space, every live
 * object's destination is
 *     dest = heap_base + 8 x (live words to its left)
 * computed in HotSpot as region_destination +
 * live_words_in_range(region_start, obj) — the Bitmap Count
 * primitive, invoked once per moved object and once per adjusted
 * pointer — followed by the Copy that moves the object.  The model
 * records those Bitmap Counts but reads the exact destination from a
 * forwarding pointer installed in each live object's mark word once
 * the live set is known to fit.
 *
 * All live objects (old and young) compact to the bottom of the Old
 * generation; the young spaces end up empty, like a HotSpot full GC.
 */

#ifndef CHARON_GC_MARK_COMPACT_HH
#define CHARON_GC_MARK_COMPACT_HH

#include <cstdint>
#include <vector>

#include "gc/recorder.hh"
#include "heap/heap.hh"

namespace charon::gc
{

/**
 * One full collection.
 */
class MarkCompact
{
  public:
    struct Result
    {
        std::uint64_t liveObjects = 0;
        std::uint64_t liveBytes = 0;
        std::uint64_t bytesMoved = 0;
        std::uint64_t pointersAdjusted = 0;
        bool outOfMemory = false; ///< live set exceeds Old capacity
    };

    /** Compaction region size (HotSpot ParallelCompact granularity). */
    static constexpr std::uint64_t kRegionBytes = 2048;

    MarkCompact(heap::ManagedHeap &heap, TraceRecorder &recorder);

    /** Run the collection; on OOM the heap is left unmodified. */
    Result collect();

  private:
    void markPhase();
    void summaryPhase();
    void compactPhase();

    bool isMarked(mem::Addr obj) const;

    /** Region index of @p addr. */
    std::uint64_t regionOf(mem::Addr addr) const;

    /** Destination of live object @p obj, recording the BitmapCount. */
    mem::Addr newAddrOf(mem::Addr obj);

    /**
     * Forward every live object to its destination (running prefix
     * of live words).  Only after the OOM check: an OOM collection
     * leaves the heap untouched.
     */
    void installForwarding();

    /** Exact new address from the mark word (no recording). */
    mem::Addr lookupNewAddr(mem::Addr obj) const;

    heap::ManagedHeap &heap_;
    TraceRecorder &rec_;
    Result result_;

    /** Live objects in ascending address order (from the begin map). */
    std::vector<mem::Addr> live_;
};

} // namespace charon::gc

#endif // CHARON_GC_MARK_COMPACT_HH
