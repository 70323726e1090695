/**
 * @file
 * The object model over a flat backing arena, shared by every heap
 * organization in the repository (the HotSpot-style generational
 * ManagedHeap and the region-based G1Heap).
 *
 * An ObjectArena owns the bytes of a virtual-address range and knows
 * how to read objects laid out in it: the two-word header (klass id +
 * size, mark word), reference slots per klass kind, array lengths,
 * ages and forwarding pointers.  Heap organizations add spaces and
 * allocation policy on top.
 */

#ifndef CHARON_HEAP_ARENA_HH
#define CHARON_HEAP_ARENA_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "heap/klass.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"

namespace charon::heap
{

/**
 * Flat arena plus object accessors.
 */
class ObjectArena
{
  public:
    /**
     * @param base first VA of the arena
     * @param bytes arena size
     * @param klasses class table (must outlive the arena)
     */
    ObjectArena(mem::Addr base, std::uint64_t bytes,
                const KlassTable &klasses);

    mem::Addr base() const { return base_; }
    std::uint64_t bytes() const { return bytes_; }
    mem::Addr limit() const { return base_ + bytes_; }
    const KlassTable &klasses() const { return klasses_; }

    /** True when @p addr lies inside the arena. */
    bool
    contains(mem::Addr addr) const
    {
        return addr >= base_ && addr < base_ + bytes_;
    }

    // ------------------------------------------------------------------
    // Raw access

    std::uint64_t
    load64(mem::Addr addr) const
    {
        std::uint64_t v;
        std::memcpy(&v, raw(addr), 8);
        return v;
    }

    void
    store64(mem::Addr addr, std::uint64_t value)
    {
        std::memcpy(raw(addr), &value, 8);
    }

    /** memmove inside the arena (leftward overlaps are safe). */
    void copyBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes);

    // ------------------------------------------------------------------
    // Object layout

    /** Words an object of @p klass with @p array_len occupies. */
    std::uint64_t sizeWordsFor(KlassId klass,
                               std::uint64_t array_len) const;

    /** Write a fresh header (and null refs / length) at @p obj. */
    void writeHeader(mem::Addr obj, KlassId klass,
                     std::uint64_t size_words, std::uint64_t array_len);

    KlassId
    klassOf(mem::Addr obj) const
    {
        return static_cast<KlassId>(load64(obj) & 0xffffffffull);
    }

    std::uint64_t sizeWords(mem::Addr obj) const { return load64(obj) >> 32; }
    std::uint64_t sizeBytes(mem::Addr obj) const
    {
        return sizeWords(obj) * 8;
    }
    std::uint64_t arrayLength(mem::Addr obj) const
    {
        return load64(obj + 16);
    }

    std::uint64_t
    refCount(mem::Addr obj) const
    {
        const Klass &k = klasses_.get(klassOf(obj));
        switch (k.kind) {
          case KlassKind::ObjArray:
            return arrayLength(obj);
          case KlassKind::Instance:
          case KlassKind::InstanceMirror:
          case KlassKind::InstanceClassLoader:
          case KlassKind::InstanceRef:
            return k.refFields;
          default:
            return 0;
        }
    }

    mem::Addr
    refSlotAddr(mem::Addr obj, std::uint64_t i) const
    {
        const Klass &k = klasses_.get(klassOf(obj));
        if (k.kind == KlassKind::ObjArray)
            return obj + 24 + i * 8;
        return obj + 16 + i * 8;
    }

    mem::Addr
    refAt(mem::Addr obj, std::uint64_t i) const
    {
        return load64(refSlotAddr(obj, i));
    }

    void setRef(mem::Addr obj, std::uint64_t i, mem::Addr target);

    // ------------------------------------------------------------------
    // Mark word: age + forwarding

    int
    age(mem::Addr obj) const
    {
        return static_cast<int>((load64(obj + 8) & kAgeMask) >> kAgeShift);
    }

    void setAge(mem::Addr obj, int age);

    bool isForwarded(mem::Addr obj) const
    {
        return load64(obj + 8) & kFwdFlag;
    }

    mem::Addr
    forwardee(mem::Addr obj) const
    {
        CHARON_ASSERT(isForwarded(obj), "forwardee of unforwarded object");
        return (load64(obj + 8) >> kFwdAddrShift) << 3;
    }

    void setForwarding(mem::Addr obj, mem::Addr to);
    /** Drop the forwarding mark, keeping the age bits. */
    void clearForwarding(mem::Addr obj);

  private:
    // Mark-word encoding: bit 0 = forwarded, bits 1..6 = age,
    // bits 8..63 = forwarding address >> 3.
    static constexpr std::uint64_t kFwdFlag = 1ull;
    static constexpr std::uint64_t kAgeShift = 1;
    static constexpr std::uint64_t kAgeMask = 0x3full << kAgeShift;
    static constexpr std::uint64_t kFwdAddrShift = 8;

    std::uint8_t *
    raw(mem::Addr addr)
    {
        CHARON_ASSERT(contains(addr),
                      "arena access out of bounds: 0x%llx",
                      static_cast<unsigned long long>(addr));
        return data_.data() + (addr - base_);
    }

    const std::uint8_t *
    raw(mem::Addr addr) const
    {
        return const_cast<ObjectArena *>(this)->raw(addr);
    }

    mem::Addr base_;
    std::uint64_t bytes_;
    const KlassTable &klasses_;
    std::vector<std::uint8_t> data_;
};

} // namespace charon::heap

#endif // CHARON_HEAP_ARENA_HH
