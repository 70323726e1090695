#include "arena.hh"

#include <cstring>

#include "sim/logging.hh"

namespace charon::heap
{

ObjectArena::ObjectArena(mem::Addr base, std::uint64_t bytes,
                         const KlassTable &klasses)
    : base_(base), bytes_(bytes), klasses_(klasses), data_(bytes)
{
    CHARON_ASSERT((base & 7) == 0 && (bytes & 7) == 0,
                  "arena must be word aligned");
}

void
ObjectArena::copyBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes)
{
    CHARON_ASSERT(bytes > 0, "zero-byte copy");
    raw(src + bytes - 1);
    raw(dst + bytes - 1);
    std::memmove(raw(dst), raw(src), bytes);
}

std::uint64_t
ObjectArena::sizeWordsFor(KlassId klass, std::uint64_t array_len) const
{
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray)
        return 3 + array_len;
    if (isTypeArrayKind(k.kind)) {
        return 3
               + mem::divCeil(array_len
                                  * static_cast<std::uint64_t>(
                                      typeArrayElemBytes(k.kind)),
                              8);
    }
    if (k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        return 3 + mem::divCeil(array_len, 8);
    }
    return k.instanceWords();
}

void
ObjectArena::writeHeader(mem::Addr obj, KlassId klass,
                         std::uint64_t size_words,
                         std::uint64_t array_len)
{
    CHARON_ASSERT(size_words >= 2, "undersized object");
    CHARON_ASSERT(size_words < (1ull << 32), "oversized object");
    store64(obj, static_cast<std::uint64_t>(klass) | (size_words << 32));
    store64(obj + 8, 0);
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray || isTypeArrayKind(k.kind)
        || k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        store64(obj + 16, array_len);
        if (k.kind == KlassKind::ObjArray) {
            for (std::uint64_t i = 0; i < array_len; ++i)
                store64(obj + 24 + i * 8, 0);
        }
    } else {
        for (std::uint64_t i = 0; i < k.refFields; ++i)
            store64(obj + 16 + i * 8, 0);
    }
}

void
ObjectArena::setRef(mem::Addr obj, std::uint64_t i, mem::Addr target)
{
    store64(refSlotAddr(obj, i), target);
}

void
ObjectArena::setAge(mem::Addr obj, int age)
{
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & ~kAgeMask)
           | ((static_cast<std::uint64_t>(age) << kAgeShift) & kAgeMask);
    store64(obj + 8, mark);
}

void
ObjectArena::setForwarding(mem::Addr obj, mem::Addr to)
{
    CHARON_ASSERT((to & 7) == 0, "unaligned forwardee");
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & kAgeMask) | kFwdFlag | ((to >> 3) << kFwdAddrShift);
    store64(obj + 8, mark);
}

void
ObjectArena::clearForwarding(mem::Addr obj)
{
    store64(obj + 8, load64(obj + 8) & kAgeMask);
}

} // namespace charon::heap
