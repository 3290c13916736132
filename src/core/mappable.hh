/**
 * @file
 * Mappable-point discovery (paper §3.2.2): find the set of
 * instructions that exist in *all* binaries of a program and mark the
 * exact same point of execution.
 *
 * Procedure entry points are matched by symbol name; loop entry
 * points and loop back-branches are matched by debug-info source
 * line.  A matched point must have the same dynamic execution count
 * in every binary — that guarantee is what lets a
 * (marker, execution count) pair denote one precise point of
 * execution in any binary.
 *
 * Inlined-procedure recovery (§3.3): when an optimizer clones a loop
 * (inlining it into several callers), the clones share the original
 * source line; this matcher aggregates same-key clones into one
 * *marker group* per binary and compares the summed counts, which
 * recovers exactly the cases the paper's call-count heuristic
 * recovers and rejects the rest (split loops double their per-line
 * count; compiler-generated loops have no line at all).
 */

#ifndef XBSP_CORE_MAPPABLE_HH
#define XBSP_CORE_MAPPABLE_HH

#include <string>
#include <vector>

#include "binary/binary.hh"
#include "profile/profile.hh"

namespace xbsp::core
{

/** Identity of a candidate point across binaries. */
struct MappableKey
{
    bin::MarkerKind kind = bin::MarkerKind::ProcEntry;
    std::string symbol;  ///< procedure name (ProcEntry)
    u32 line = 0;        ///< source line (loops)

    auto operator<=>(const MappableKey&) const = default;

    /** Display form, e.g. "proc-entry main" or "loop-branch @142". */
    std::string describe() const;
};

/** One mappable point: a marker group per binary, equal counts. */
struct MappablePoint
{
    MappableKey key;
    u64 execCount = 0;  ///< identical in every binary
    /** markerIds[binaryIdx] = the clone group in that binary. */
    std::vector<std::vector<u32>> markerIds;
};

/** Why a candidate key was rejected. */
enum class RejectReason
{
    MissingInSomeBinary,  ///< no marker with this key somewhere
    CountMismatch,        ///< summed counts differ across binaries
    NeverExecuted         ///< count 0 everywhere (useless as anchor)
};

/** Rejection record, for diagnostics and the applu analysis. */
struct RejectedKey
{
    MappableKey key;
    RejectReason reason = RejectReason::MissingInSomeBinary;
    std::vector<u64> countsPerBinary;  ///< summed; 0 when absent
};

/** The result of matching a set of binaries. */
struct MappableSet
{
    std::size_t binaryCount = 0;
    std::vector<MappablePoint> points;
    std::vector<RejectedKey> rejected;

    /** markerToPoint[binaryIdx][markerId] -> point index/invalidId. */
    std::vector<std::vector<u32>> markerToPoint;

    /** Point index for a marker in a binary; invalidId if unmapped. */
    u32
    pointFor(std::size_t binaryIdx, u32 markerId) const
    {
        return markerToPoint[binaryIdx][markerId];
    }
};

/**
 * Match markers across binaries using their profiles.  All vectors
 * must be parallel (profiles[i] profiles *binaries[i]); at least one
 * binary is required.
 */
MappableSet findMappablePoints(
    const std::vector<const bin::Binary*>& binaries,
    const std::vector<const prof::MarkerProfile*>& profiles);

} // namespace xbsp::core

#endif // XBSP_CORE_MAPPABLE_HH
