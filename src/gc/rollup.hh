/**
 * @file
 * The per-phase primitive roll-up: the queryable artifact behind the
 * Figure 4 / Figure 14 style breakdowns.
 *
 * A replay produces, per collection and per phase, the thread-seconds
 * each primitive consumed (from the timing layer) joined with the
 * bytes and invocation counts the primitive moved (from the functional
 * trace).  The structures live here, next to the trace they aggregate;
 * the platform simulator fills in the seconds, and the harness renders
 * the result as a table (text/CSV/JSON) or persists it with the same
 * versioned binary framing as the trace itself.
 */

#ifndef CHARON_GC_ROLLUP_HH
#define CHARON_GC_ROLLUP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gc/trace.hh"

namespace charon::gc
{

/** One (phase, primitive) aggregate of a replayed collection. */
struct RollupCell
{
    double seconds = 0;            ///< thread-seconds in the primitive
    std::uint64_t bytes = 0;       ///< trace bytes the primitive moved
    std::uint64_t invocations = 0; ///< primitive invocations
};

/** One phase of one collection. */
struct PhaseRollup
{
    PhaseKind kind = PhaseKind::MinorRoots;
    /** Barrier-to-barrier phase time in simulated seconds. */
    double simSeconds = 0;
    /** Per-primitive aggregates, indexed by PrimKind. */
    RollupCell prims[kNumPrimKinds];
    /** Non-offloadable host glue ("Other" in Figure 4). */
    double glueSeconds = 0;

    /** Thread-seconds across primitives + glue. */
    double threadSeconds() const;
    std::uint64_t totalBytes() const;
};

/** One collection. */
struct GcRollup
{
    bool major = false;
    std::vector<PhaseRollup> phases;

    RollupCell totalByKind(PrimKind kind) const;
    double glueSeconds() const;
};

/** A whole replayed run on one platform. */
struct RunRollup
{
    std::vector<GcRollup> gcs;

    RollupCell totalByKind(PrimKind kind) const;
    double glueSeconds() const;
};

/**
 * Current binary format version (independent of the trace format).
 * Version 2 widens the per-phase primitive array to the six-kind
 * PrimKind enum (BitSweep, RefCount) and admits the RC phase kinds.
 */
constexpr std::uint32_t kRollupFormatVersion = 2;

/** Serialize with the trace_io little-endian framing. */
void writeRollup(std::ostream &os, const RunRollup &rollup);

/**
 * Deserialize; rejects unknown versions and truncated input.
 * @param error set to a diagnostic on failure
 * @retval true the rollup was read completely
 */
bool readRollup(std::istream &is, RunRollup &rollup, std::string *error);

/** Structural equality (for round-trip tests). */
bool rollupEquals(const RunRollup &a, const RunRollup &b);

} // namespace charon::gc

#endif // CHARON_GC_ROLLUP_HH
