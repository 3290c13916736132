#include "sim/snapshots.hh"

#include "cache/hierarchy.hh"
#include "util/logging.hh"

namespace xbsp::sim
{

void
SnapshotSeries::flushAt(cache::Hierarchy& hierarchy,
                        std::span<const std::size_t> intervals)
{
    flush = &hierarchy;
    coldStarts = intervals;
    if (!coldStarts.empty() && coldStarts.front() == 0)
        coldStarts = coldStarts.subspan(1);
}

void
SnapshotSeries::snapshot(InstrCount instrs, Cycles cycles)
{
    if (finished)
        panic("SnapshotSeries::snapshot after finish");
    cuts.push_back(IntervalStats{instrs, cycles});
    // This cut begins interval cuts.size().
    if (!coldStarts.empty() && coldStarts.front() == cuts.size()) {
        flush->flushAll();
        coldStarts = coldStarts.subspan(1);
    }
}

void
SnapshotSeries::finish(InstrCount instrs, Cycles cycles)
{
    if (finished)
        panic("SnapshotSeries::finish called twice");
    // Drop a final cut that coincides with the end of the run (an
    // interval boundary exactly at program end yields no interval).
    if (!cuts.empty() && cuts.back().instrs == instrs)
        cuts.pop_back();
    cuts.push_back(IntervalStats{instrs, cycles});
    finished = true;

    deltas.reserve(cuts.size());
    IntervalStats prev{};
    for (const IntervalStats& cut : cuts) {
        if (cut.instrs < prev.instrs || cut.cycles < prev.cycles)
            panic("snapshot series is not monotonic");
        deltas.push_back(IntervalStats{cut.instrs - prev.instrs,
                                       cut.cycles - prev.cycles});
        prev = cut;
    }
}

const std::vector<IntervalStats>&
SnapshotSeries::intervals() const
{
    if (!finished)
        panic("SnapshotSeries::intervals before finish");
    return deltas;
}

FliSnapshotter::FliSnapshotter(const exec::Engine& eng,
                               const cpu::Core& c,
                               std::vector<InstrCount> boundaries)
    : engine(eng), core(c), bounds(std::move(boundaries))
{
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        if (bounds[i] <= bounds[i - 1])
            fatal("FLI boundaries must be strictly increasing");
    }
}

void
FliSnapshotter::onBlock(u32 blockId, u32 instrs)
{
    (void)blockId;
    (void)instrs;
    const InstrCount now = engine.instructionsExecuted();
    while (next < bounds.size() && now >= bounds[next]) {
        if (now != bounds[next])
            panic("FLI boundary {} ({} instrs) missed; engine is at "
                  "{} — boundary list does not match this execution",
                  next, bounds[next], now);
        if (next + 1 < bounds.size())
            series.snapshot(now, core.cycles());
        ++next;
    }
}

void
FliSnapshotter::onRunEnd()
{
    if (next != bounds.size())
        panic("run ended with {} of {} FLI boundaries crossed", next,
              bounds.size());
    series.finish(engine.instructionsExecuted(), core.cycles());
}

VliSnapshotter::VliSnapshotter(const exec::Engine& eng,
                               const cpu::Core& c,
                               const core::MappableSet& mappable,
                               std::size_t binaryIdx,
                               const core::VliPartition& partition)
    : engine(eng), core(c),
      tracker(mappable, binaryIdx, partition,
              [this](std::size_t) {
                  series.snapshot(engine.instructionsExecuted(),
                                  core.cycles());
              })
{
}

void
VliSnapshotter::onMarker(u32 markerId)
{
    tracker.onMarker(markerId);
}

void
VliSnapshotter::onRunEnd()
{
    if (!tracker.finished())
        panic("run ended with {} VLI boundaries still pending",
              tracker.crossed());
    series.finish(engine.instructionsExecuted(), core.cycles());
}

const std::vector<IntervalStats>&
FliSnapshotter::intervals() const
{
    return series.intervals();
}

const std::vector<IntervalStats>&
VliSnapshotter::intervals() const
{
    return series.intervals();
}

} // namespace xbsp::sim
