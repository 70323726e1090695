#include "rollup.hh"

#include <istream>
#include <ostream>

#include "gc/trace_io.hh"

namespace charon::gc
{

namespace
{

constexpr std::uint64_t kMagic = 0x4c4c4f524e524843ull; // "CHRNROLL"

/** Cap so a corrupted count cannot trigger a huge allocation. */
constexpr std::uint64_t kMaxVectorLen = 1u << 20;

} // namespace

double
PhaseRollup::threadSeconds() const
{
    double s = glueSeconds;
    for (const auto &p : prims)
        s += p.seconds;
    return s;
}

std::uint64_t
PhaseRollup::totalBytes() const
{
    std::uint64_t b = 0;
    for (const auto &p : prims)
        b += p.bytes;
    return b;
}

RollupCell
GcRollup::totalByKind(PrimKind kind) const
{
    RollupCell total;
    for (const auto &phase : phases) {
        const auto &c = phase.prims[static_cast<int>(kind)];
        total.seconds += c.seconds;
        total.bytes += c.bytes;
        total.invocations += c.invocations;
    }
    return total;
}

double
GcRollup::glueSeconds() const
{
    double s = 0;
    for (const auto &phase : phases)
        s += phase.glueSeconds;
    return s;
}

RollupCell
RunRollup::totalByKind(PrimKind kind) const
{
    RollupCell total;
    for (const auto &gc : gcs) {
        RollupCell c = gc.totalByKind(kind);
        total.seconds += c.seconds;
        total.bytes += c.bytes;
        total.invocations += c.invocations;
    }
    return total;
}

double
RunRollup::glueSeconds() const
{
    double s = 0;
    for (const auto &gc : gcs)
        s += gc.glueSeconds();
    return s;
}

void
writeRollup(std::ostream &os, const RunRollup &rollup)
{
    io::putU64(os, kMagic);
    io::putU64(os, kRollupFormatVersion);
    io::putU64(os, rollup.gcs.size());
    for (const auto &gc : rollup.gcs) {
        io::putU64(os, gc.major ? 1 : 0);
        io::putU64(os, gc.phases.size());
        for (const auto &phase : gc.phases) {
            io::putU64(os, static_cast<std::uint64_t>(phase.kind));
            io::putF64(os, phase.simSeconds);
            io::putF64(os, phase.glueSeconds);
            for (const auto &cell : phase.prims) {
                io::putF64(os, cell.seconds);
                io::putU64(os, cell.bytes);
                io::putU64(os, cell.invocations);
            }
        }
    }
}

bool
readRollup(std::istream &is, RunRollup &rollup, std::string *error)
{
    auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    std::uint64_t magic, version, gcs;
    if (!io::getU64(is, magic) || magic != kMagic)
        return fail("not a rollup stream (bad magic)");
    if (!io::getU64(is, version) || version != kRollupFormatVersion)
        return fail("unsupported rollup format version");
    if (!io::getU64(is, gcs) || gcs > kMaxVectorLen)
        return fail("truncated rollup stream");
    rollup.gcs.clear();
    rollup.gcs.reserve(gcs);
    for (std::uint64_t g = 0; g < gcs; ++g) {
        GcRollup gc;
        std::uint64_t major, phases;
        if (!io::getU64(is, major) || !io::getU64(is, phases)
            || phases > kMaxVectorLen) {
            return fail("truncated rollup stream");
        }
        gc.major = major != 0;
        gc.phases.reserve(phases);
        for (std::uint64_t p = 0; p < phases; ++p) {
            PhaseRollup phase;
            std::uint64_t kind;
            if (!io::getU64(is, kind)
                || kind > static_cast<std::uint64_t>(kLastPhaseKind)
                || !io::getF64(is, phase.simSeconds)
                || !io::getF64(is, phase.glueSeconds)) {
                return fail("truncated rollup stream");
            }
            phase.kind = static_cast<PhaseKind>(kind);
            for (auto &cell : phase.prims) {
                if (!io::getF64(is, cell.seconds)
                    || !io::getU64(is, cell.bytes)
                    || !io::getU64(is, cell.invocations)) {
                    return fail("truncated rollup stream");
                }
            }
            gc.phases.push_back(phase);
        }
        rollup.gcs.push_back(std::move(gc));
    }
    return true;
}

bool
rollupEquals(const RunRollup &a, const RunRollup &b)
{
    if (a.gcs.size() != b.gcs.size())
        return false;
    for (std::size_t g = 0; g < a.gcs.size(); ++g) {
        const GcRollup &x = a.gcs[g];
        const GcRollup &y = b.gcs[g];
        if (x.major != y.major || x.phases.size() != y.phases.size())
            return false;
        for (std::size_t p = 0; p < x.phases.size(); ++p) {
            const PhaseRollup &u = x.phases[p];
            const PhaseRollup &v = y.phases[p];
            if (u.kind != v.kind || u.simSeconds != v.simSeconds
                || u.glueSeconds != v.glueSeconds) {
                return false;
            }
            for (int k = 0; k < kNumPrimKinds; ++k) {
                if (u.prims[k].seconds != v.prims[k].seconds
                    || u.prims[k].bytes != v.prims[k].bytes
                    || u.prims[k].invocations != v.prims[k].invocations)
                    return false;
            }
        }
    }
    return true;
}

} // namespace charon::gc
