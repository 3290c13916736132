/**
 * @file
 * Interval snapshot collectors: sinks that cut one detailed
 * simulation run into per-interval (instruction, cycle) statistics,
 * for both interval schemes:
 *
 *  - FliSnapshotter cuts at recorded cumulative instruction counts
 *    (the per-binary fixed-length-interval boundaries);
 *  - VliSnapshotter cuts at mapped (mappable point, firing count)
 *    boundary events replayed by a core::BoundaryTracker.
 *
 * Because the cache hierarchy stays live across the whole run, the
 * per-interval statistics are exactly what warm (functionally-warmed)
 * sampled simulation of those regions would measure — the way
 * PinPoints drives CMP$im.  A cold-point walk (sim::runColdPoints)
 * has the collector flush the hierarchy at the cuts that begin its
 * points.
 */

#ifndef XBSP_SIM_SNAPSHOTS_HH
#define XBSP_SIM_SNAPSHOTS_HH

#include <span>
#include <vector>

#include "core/vli.hh"
#include "cpu/core.hh"
#include "exec/engine.hh"
#include "util/types.hh"

namespace xbsp::cache
{
class Hierarchy;
} // namespace xbsp::cache

namespace xbsp::sim
{

/** Performance of one interval of execution. */
struct IntervalStats
{
    InstrCount instrs = 0;
    Cycles cycles = 0;

    double
    cpi() const
    {
        return instrs ? static_cast<double>(cycles) /
                            static_cast<double>(instrs)
                      : 0.0;
    }
};

/** Absolute (instr, cycle) snapshots -> per-interval deltas. */
class SnapshotSeries
{
  public:
    /**
     * Flush `hierarchy` at the cut that begins each of `intervals`
     * (strictly increasing indices; the span must outlive the run):
     * those intervals start cold.  Interval 0 begins with the run,
     * on a hierarchy that is still empty.
     */
    void flushAt(cache::Hierarchy& hierarchy,
                 std::span<const std::size_t> intervals);

    /** Record an interior boundary snapshot. */
    void snapshot(InstrCount instrs, Cycles cycles);

    /** Record the end-of-run snapshot and seal the series. */
    void finish(InstrCount instrs, Cycles cycles);

    /** Per-interval deltas; valid after finish(). */
    const std::vector<IntervalStats>& intervals() const;

  private:
    std::vector<IntervalStats> cuts;  ///< absolute values
    std::vector<IntervalStats> deltas;
    bool finished = false;
    cache::Hierarchy* flush = nullptr;
    std::span<const std::size_t> coldStarts;  ///< still to come
};

/** Cuts at recorded cumulative instruction counts (FLI). */
class FliSnapshotter : public exec::SinkBase
{
  public:
    /**
     * `boundaries` are the cumulative instruction counts at each
     * interval end, *including* the final one (as produced by
     * prof::FliBbvCollector::boundaries()).
     */
    FliSnapshotter(const exec::Engine& engine,
                   const cpu::Core& core,
                   std::vector<InstrCount> boundaries);

    bool wantsBlocks() const { return true; }
    bool wantsMems() const { return false; }
    bool wantsMarkers() const { return false; }

    void onBlock(u32 blockId, u32 instrs);
    void onRunEnd();

    /** Start `intervals` cold (SnapshotSeries::flushAt). */
    void
    flushAt(cache::Hierarchy& hierarchy,
            std::span<const std::size_t> intervals)
    {
        series.flushAt(hierarchy, intervals);
    }

    const std::vector<IntervalStats>& intervals() const;

  private:
    const exec::Engine& engine;
    const cpu::Core& core;
    std::vector<InstrCount> bounds;
    std::size_t next = 0;
    SnapshotSeries series;
};

/** Cuts at mapped VLI boundary events in any binary of the set. */
class VliSnapshotter : public exec::SinkBase
{
  public:
    VliSnapshotter(const exec::Engine& engine,
                   const cpu::Core& core,
                   const core::MappableSet& mappable,
                   std::size_t binaryIdx,
                   const core::VliPartition& partition);

    bool wantsBlocks() const { return false; }
    bool wantsMems() const { return false; }
    bool wantsMarkers() const { return true; }

    void onMarker(u32 markerId);
    void onRunEnd();

    /** Start `intervals` cold (SnapshotSeries::flushAt). */
    void
    flushAt(cache::Hierarchy& hierarchy,
            std::span<const std::size_t> intervals)
    {
        series.flushAt(hierarchy, intervals);
    }

    const std::vector<IntervalStats>& intervals() const;

  private:
    const exec::Engine& engine;
    const cpu::Core& core;
    core::BoundaryTracker tracker;
    SnapshotSeries series;
};

} // namespace xbsp::sim

#endif // XBSP_SIM_SNAPSHOTS_HH
