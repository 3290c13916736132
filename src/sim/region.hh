/**
 * @file
 * Standalone simulation of a single sampling region, with a choice of
 * warm (functionally warmed caches, the default everywhere else) or
 * cold (caches flushed at region start) initial state.  Used by the
 * warming ablation bench and by integration tests that validate the
 * snapshot-gating fast path against an explicit region run.
 *
 * Both flavours consume the same DetailedRunRequest a full detailed
 * run does (build it with makeRunRequest so memory/core/seed cannot
 * diverge from the study configuration): simulateFliRegion reads
 * request.fliBoundaries, simulateVliRegion reads request.mappable /
 * binaryIdx / partition, and both replay the run on the backend
 * request.core describes through the same timed walk (sim/walk.hh) a
 * full run takes, with the region's gate in one of its slots.
 */

#ifndef XBSP_SIM_REGION_HH
#define XBSP_SIM_REGION_HH

#include "core/vli.hh"
#include "sim/detailed.hh"
#include "sim/snapshots.hh"

namespace xbsp::sim
{

/** Initial cache state when the sampling region begins. */
enum class RegionWarming
{
    Warm,  ///< caches carry the state the fast-forward left behind
    Cold   ///< caches invalidated at region start
};

/**
 * Simulate interval `index` of the binary's FLI partition
 * (request.fliBoundaries: cumulative interval ends incl. final, from
 * the binary's profile pass; must be non-empty).
 */
IntervalStats simulateFliRegion(const bin::Binary& binary,
                                const DetailedRunRequest& request,
                                std::size_t index,
                                RegionWarming warming);

/**
 * Simulate interval `index` of the mapped VLI partition
 * (request.mappable / binaryIdx / partition; partition must be set).
 */
IntervalStats simulateVliRegion(const bin::Binary& binary,
                                const DetailedRunRequest& request,
                                std::size_t index,
                                RegionWarming warming);

} // namespace xbsp::sim

#endif // XBSP_SIM_REGION_HH
