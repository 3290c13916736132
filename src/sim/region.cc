#include "sim/region.hh"

#include <type_traits>

#include "sim/walk.hh"
#include "util/logging.hh"

namespace xbsp::sim
{

namespace
{

/**
 * Records the core's counters at region start and end, flushing the
 * walk's hierarchy first when the region starts cold.  The derived
 * gates decide when the region starts and ends.
 */
class RegionGate
{
  public:
    /** `coldFlush`: the hierarchy to invalidate at start, or null. */
    RegionGate(const exec::Engine& eng, const cpu::Core& c,
               cache::Hierarchy* coldFlush)
        : engine(eng), core(c), flush(coldFlush)
    {
    }

    void
    onRunEnd()
    {
        if (started && !ended)
            end();
    }

    IntervalStats
    stats() const
    {
        if (!started || !ended)
            panic("region never fully executed");
        return IntervalStats{endSnap.instrs - startSnap.instrs,
                             endSnap.cycles - startSnap.cycles};
    }

  protected:
    const exec::Engine& engine;
    bool started = false;
    bool ended = false;

    void
    begin()
    {
        if (started)
            panic("region started twice");
        started = true;
        if (flush)
            flush->flushAll();
        startSnap = IntervalStats{engine.instructionsExecuted(),
                                  core.cycles()};
    }

    void
    end()
    {
        if (!started || ended)
            panic("region ended out of order");
        ended = true;
        endSnap = IntervalStats{engine.instructionsExecuted(),
                                core.cycles()};
    }

  private:
    const cpu::Core& core;
    cache::Hierarchy* flush;
    IntervalStats startSnap;
    IntervalStats endSnap;
};

/** FLI gate at block events: region = [bounds[i-1], bounds[i]). */
class FliRegionGate final : public RegionGate
{
  public:
    static constexpr bool atMarkers = false;

    FliRegionGate(const RegionGate& gate, InstrCount startAt,
                  InstrCount endAt)
        : RegionGate(gate), startInstr(startAt), endInstr(endAt)
    {
        if (startAt == 0)
            begin();
    }

    void
    onBlock(u32, u32)
    {
        const InstrCount now = engine.instructionsExecuted();
        if (!started && now >= startInstr)
            begin();
        if (started && !ended && now >= endInstr)
            end();
    }

  private:
    InstrCount startInstr;
    InstrCount endInstr;
};

/** VLI gate at the mapped boundary events of the marker stream. */
class VliRegionGate final : public RegionGate
{
  public:
    static constexpr bool atMarkers = true;

    VliRegionGate(const RegionGate& gate,
                  const core::MappableSet& mappable,
                  std::size_t binaryIdx,
                  const core::VliPartition& partition,
                  std::size_t index)
        : RegionGate(gate), regionIdx(index),
          tracker(mappable, binaryIdx, partition,
                  [this](std::size_t boundary) {
                      if (boundary + 1 == regionIdx)
                          begin();
                      else if (boundary == regionIdx)
                          end();
                  })
    {
        if (regionIdx == 0)
            begin();
    }

    void onMarker(u32 markerId) { tracker.onMarker(markerId); }

  private:
    std::size_t regionIdx;
    core::BoundaryTracker tracker;
};

/**
 * Replay the whole run through the timed walk with one GateT, built
 * from `args`, in the sink slot of its event kind; the hierarchy it
 * flushes when cold is the walk's own.
 */
template <typename GateT, typename... Args>
IntervalStats
replayRegion(const bin::Binary& binary,
             const DetailedRunRequest& request, RegionWarming warming,
             const Args&... args)
{
    exec::Engine engine(binary, request.seed);
    return withCore(request.core, [&]<typename CoreT>(CoreT& core) {
        using Sink = std::conditional_t<
            GateT::atMarkers, DetailedSink<CoreT, EmptySlot, GateT>,
            DetailedSink<CoreT, GateT, EmptySlot>>;
        Sink sink{cache::Hierarchy(request.memory), core, nullptr,
                  nullptr};
        GateT gate(RegionGate(engine, core,
                              warming == RegionWarming::Cold
                                  ? &sink.hierarchy
                                  : nullptr),
                   args...);
        if constexpr (GateT::atMarkers)
            sink.vli = &gate;
        else
            sink.fli = &gate;
        engine.runWith(sink);
        core.flushStats();
        return gate.stats();
    });
}

} // namespace

IntervalStats
simulateFliRegion(const bin::Binary& binary,
                  const DetailedRunRequest& request, std::size_t index,
                  RegionWarming warming)
{
    const std::vector<InstrCount>& boundaries = request.fliBoundaries;
    if (index >= boundaries.size())
        fatal("FLI region index {} out of range ({} intervals)",
              index, boundaries.size());
    const InstrCount startAt = index == 0 ? 0 : boundaries[index - 1];
    return replayRegion<FliRegionGate>(binary, request, warming,
                                       startAt, boundaries[index]);
}

IntervalStats
simulateVliRegion(const bin::Binary& binary,
                  const DetailedRunRequest& request, std::size_t index,
                  RegionWarming warming)
{
    if (request.partition == nullptr)
        fatal("VLI region simulation needs request.partition");
    if (index >= request.partition->intervalCount())
        fatal("VLI region index {} out of range ({} intervals)",
              index, request.partition->intervalCount());
    return replayRegion<VliRegionGate>(binary, request, warming,
                                       *request.mappable,
                                       request.binaryIdx,
                                       *request.partition, index);
}

} // namespace xbsp::sim
