/**
 * @file
 * One detailed (timing) simulation of a binary, with optional FLI and
 * VLI snapshot collection.  A single pass produces the full-program
 * truth *and* the per-interval statistics both sampling schemes need,
 * because warm sampled simulation of a region is statistically
 * identical to gating statistics over that region of the full run.
 * Cold sampled simulation of a binary's points is one more walk of
 * the same kind, which flushes its caches where each point begins.
 */

#ifndef XBSP_SIM_DETAILED_HH
#define XBSP_SIM_DETAILED_HH

#include <optional>
#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/vli.hh"
#include "cpu/core.hh"
#include "sim/snapshots.hh"

namespace xbsp::sim
{

/** Memory-system summary of a detailed run. */
struct MemoryStats
{
    u64 refs = 0;
    u64 l1Hits = 0;
    u64 l2Hits = 0;
    u64 l3Hits = 0;
    u64 dramAccesses = 0;
    u64 dramWritebacks = 0;

    double
    l1MissRate() const
    {
        return refs ? 1.0 - static_cast<double>(l1Hits) /
                                static_cast<double>(refs)
                    : 0.0;
    }
};

/** Everything a detailed run produces. */
struct DetailedRunResult
{
    cpu::CoreStats totals;
    MemoryStats memory;
    std::vector<IntervalStats> fliIntervals;  ///< empty if not asked
    std::vector<IntervalStats> vliIntervals;  ///< empty if not asked

    double trueCpi() const { return totals.cpi(); }
};

/** Inputs selecting which interval schemes to snapshot. */
struct DetailedRunRequest
{
    /** FLI boundary list (cumulative ends incl. final); empty = skip. */
    std::vector<InstrCount> fliBoundaries;

    /** VLI partition mapped via `mappable`; null = skip. */
    const core::MappableSet* mappable = nullptr;
    std::size_t binaryIdx = 0;
    const core::VliPartition* partition = nullptr;

    cache::HierarchyConfig memory;

    /** Timing backend (a model knob: part of the run's identity). */
    cpu::CoreConfig core;

    u64 seed = 0x5EEDull;
};

/** Run one binary to completion under the timing model. */
DetailedRunResult runDetailed(const bin::Binary& binary,
                              const DetailedRunRequest& request);

/**
 * runDetailed memoized under `key`, which must be
 * detailedRunKey(binary, request), for a caller that built the key
 * already.  The overload above builds the key and forwards here.
 */
DetailedRunResult runDetailed(const bin::Binary& binary,
                              const DetailedRunRequest& request,
                              const serial::Hash128& key);

/**
 * Cold simulation of `points`: interval indices, strictly increasing,
 * of the request's one interval scheme (fliBoundaries or partition;
 * fatal unless exactly one is set).  One walk of the whole run, not
 * memoized: it flushes the walk's cache hierarchy at the cut that
 * begins each point and returns the points' stats in order.  (A warm
 * point is runDetailed's interval of the same index.)  On the
 * in-order core a point's stats do not depend on the other points
 * listed; the decoupled core's frontend carries its fetch-queue
 * credit across earlier flushes (DESIGN.md, decision 4).
 */
std::vector<IntervalStats>
runColdPoints(const bin::Binary& binary,
              const DetailedRunRequest& request,
              std::span<const std::size_t> points);

/**
 * Artifact-store key of one detailed run (binary + every request
 * knob) — the exact key runDetailed memoizes under (artifact type
 * DetailedRunCodec).  Exposed so the pipeline scheduler can probe
 * whether a detailed-simulation stage is already cached.
 */
serial::Hash128 detailedRunKey(const bin::Binary& binary,
                               const DetailedRunRequest& request);

} // namespace xbsp::sim

#endif // XBSP_SIM_DETAILED_HH
