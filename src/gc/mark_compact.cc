#include "mark_compact.hh"

#include "gc/mark_work.hh"
#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

MarkCompact::MarkCompact(heap::ManagedHeap &heap, TraceRecorder &recorder)
    : heap_(heap), rec_(recorder)
{
}

bool
MarkCompact::isMarked(Addr obj) const
{
    return heap_.begBitmap().test(obj);
}

void
MarkCompact::markPhase()
{
    // ParallelOld policies: begin+end bits for the compactor, an
    // explicit push charge per marked root, null referents skipped
    // before the weak-slot test.
    MarkOptions opt;
    opt.dualBitmap = true;
    opt.rootPushGlue = true;
    opt.nullCheckFirst = true;
    MarkStats stats = runMarkClosure(heap_, rec_, opt);
    result_.liveObjects = stats.liveObjects;
    result_.liveBytes = stats.liveBytes;

    // The begin map lists the live set in ascending address order.
    const auto &beg = heap_.begBitmap();
    const std::uint64_t bits = beg.numBits();
    live_.reserve(stats.liveObjects);
    for (std::uint64_t b = beg.findNextSet(0, bits); b < bits;
         b = beg.findNextSet(b + 1, bits))
        live_.push_back(beg.bitAddr(b));
    CHARON_ASSERT(live_.size() == stats.liveObjects,
                  "begin map holds %zu objects, marking found %llu",
                  live_.size(),
                  static_cast<unsigned long long>(stats.liveObjects));
}

std::uint64_t
MarkCompact::regionOf(Addr addr) const
{
    return (addr - heap_.base()) / kRegionBytes;
}

void
MarkCompact::summaryPhase()
{
    rec_.beginPhase(PhaseKind::MajorSummary);
    const auto &costs = rec_.costs();

    // Per-region live-word totals and destination prefixes, charged
    // per region.  The exact destinations are the running prefix of
    // live words, installed as forwarding pointers only once the
    // live set is known to fit in Old.
    const std::uint64_t num_regions =
        mem::divCeil(heap_.heapBytes(), kRegionBytes);
    for (std::uint64_t r = 0; r < num_regions; ++r) {
        rec_.recordGlue(costs.regionSummary, 1);
        rec_.nextThread();
    }
    result_.outOfMemory =
        result_.liveBytes > heap_.region(Space::Old).capacity();
    rec_.endPhase();
}

void
MarkCompact::installForwarding()
{
    Addr dest = heap_.base();
    for (Addr obj : live_) {
        heap_.setForwarding(obj, dest);
        dest += heap_.sizeBytes(obj);
    }
}

Addr
MarkCompact::lookupNewAddr(Addr obj) const
{
    CHARON_ASSERT(isMarked(obj) && heap_.isForwarded(obj),
                  "new address of a non-live object 0x%llx",
                  static_cast<unsigned long long>(obj));
    return heap_.forwardee(obj);
}

Addr
MarkCompact::newAddrOf(Addr obj)
{
    // What HotSpot computes as
    //   region_destination + live_words_in_range(region_start, obj):
    // record the Bitmap Count over [region start bit, obj bit) and
    // return the exact prefix-derived destination.
    const auto &beg = heap_.begBitmap();
    std::uint64_t obj_bit = beg.bitIndex(obj);
    std::uint64_t region_start_bit =
        regionOf(obj) * (kRegionBytes / 8);
    rec_.recordBitmapCount(
        beg.storageAddrOfBit(region_start_bit),
        heap_.endBitmap().storageAddrOfBit(region_start_bit),
        obj_bit - region_start_bit);
    return lookupNewAddr(obj);
}

void
MarkCompact::compactPhase()
{
    rec_.beginPhase(PhaseKind::MajorCompact);
    const auto &costs = rec_.costs();

    // Adjust: rewrite every reference (and root) to its target's
    // destination.  One Bitmap Count per pointer.
    for (std::size_t i = 0; i < live_.size(); ++i) {
        Addr obj = live_[i];
        rec_.recordGlue(costs.typeDispatch, 1);
        std::uint64_t n = heap_.refCount(obj);
        for (std::uint64_t s = 0; s < n; ++s) {
            Addr target = heap_.refAt(obj, s);
            if (target == 0)
                continue;
            Addr moved = newAddrOf(target);
            heap_.setRefRaw(obj, s, moved);
            rec_.recordGlue(costs.pointerAdjust, 2);
            ++result_.pointersAdjusted;
        }
        rec_.nextThread();
    }
    for (Addr &root : heap_.roots()) {
        if (root != 0) {
            root = newAddrOf(root);
            rec_.recordGlue(costs.pointerAdjust, 1);
            ++result_.pointersAdjusted;
        }
    }

    // Move: ascending order guarantees dest <= src, so in-place
    // sliding is safe.  One Bitmap Count (own destination) per
    // object, but Copy at HotSpot's granularity: contiguous live runs
    // move as single bulk copies (region filling), split where the
    // run crosses a cube boundary so the Copy/Search units stay
    // data-local.  Objects already at their destination form the
    // dense prefix and are not copied at all.  Every survivor drops
    // its forwarding mark and keeps its age.
    Addr run_src = 0, run_dst = 0;
    std::uint64_t run_len = 0;
    auto flush_run = [&] {
        if (run_len == 0)
            return;
        rec_.recordCopy(run_src, run_dst, run_len);
        rec_.nextThread();
        run_len = 0;
    };
    for (Addr obj : live_) {
        Addr dst = newAddrOf(obj);
        CHARON_ASSERT(dst <= obj, "compaction must move left");
        std::uint64_t bytes = heap_.sizeBytes(obj);
        rec_.recordGlue(costs.allocate, 1);
        if (dst == obj) {
            heap_.clearForwarding(obj);
            flush_run(); // dense prefix: stays in place
            continue;
        }
        heap_.copyObjectBytes(dst, obj, bytes);
        heap_.clearForwarding(dst);
        result_.bytesMoved += bytes;
        bool extends = run_len > 0 && obj == run_src + run_len
                       && dst == run_dst + run_len
                       && rec_.cubeOf(obj) == rec_.cubeOf(run_src)
                       && rec_.cubeOf(dst) == rec_.cubeOf(run_dst);
        if (!extends) {
            flush_run();
            run_src = obj;
            run_dst = dst;
        }
        run_len += bytes;
    }
    flush_run();
    rec_.endPhase();
}

MarkCompact::Result
MarkCompact::collect()
{
    rec_.beginGc(true);
    markPhase();
    summaryPhase();
    if (result_.outOfMemory) {
        // Leave the heap untouched; the caller surfaces the OOM.
        rec_.endGc();
        return result_;
    }
    installForwarding();
    compactPhase();

    GcTrace &trace = rec_.endGc();
    trace.liveObjects = result_.liveObjects;
    trace.bytesCopied = result_.bytesMoved;

    // The whole live set now sits at the bottom of Old; young spaces
    // are empty.
    Addr new_top = heap_.base() + result_.liveBytes;
    heap_.setOldTop(new_top);
    heap_.resetSpace(Space::Eden);
    heap_.resetSpace(Space::From);
    heap_.resetSpace(Space::To);
    heap_.rebuildBlockOffsets();
    // No old-to-young references can exist (young is empty).
    heap_.cardTable().cleanAll();
    return result_;
}

} // namespace charon::gc
