#include "profile/profile.hh"

#include <algorithm>
#include <utility>

#include "binary/serial.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "profile/serial.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace xbsp::prof
{

MarkerProfiler::MarkerProfiler(const bin::Binary& binary)
{
    profile.counts.assign(binary.markerCount(), 0);
}

void
MarkerProfiler::finish(InstrCount totalInstrs)
{
    profile.totalInstructions = totalInstrs;
}

void
MarkerProfiler::onBulk(const exec::Summary& trip, u64 trips,
                       const exec::ObserverHooks& streams)
{
    if (!streams.markers)
        return;
    for (const exec::IdCount& m : trip.markerCounts)
        profile.counts[m.id] += trips * m.count;
}

BbvAccumulator::BbvAccumulator(u32 dimension)
{
    dense.assign(dimension, 0.0);
}

void
BbvAccumulator::add(u32 block, double value)
{
    if (dense[block] == 0.0)
        touched.push_back(block);
    dense[block] += value;
}

void
BbvAccumulator::addTrips(const bin::Binary& binary,
                         const exec::Summary& trip, u64 trips)
{
    for (const exec::IdCount& b : trip.blockCounts) {
        add(b.id, static_cast<double>(trips * b.count *
                                      binary.blocks[b.id].instrs));
    }
}

void
BbvAccumulator::flushInto(sp::FrequencyVectorSet& fvs, InstrCount length)
{
    std::sort(touched.begin(), touched.end());
    for (u32 block : touched) {
        fvs.pushEntry(block, dense[block]);
        dense[block] = 0.0;
    }
    touched.clear();
    fvs.closeInterval(length);
}

FliBbvCollector::FliBbvCollector(const exec::Engine& eng,
                                 InstrCount targetSize)
    : engine(eng), target(targetSize),
      accum(eng.binary().blockCount())
{
    if (target == 0)
        fatal("FLI interval target must be > 0");
    fvs.dimension = eng.binary().blockCount();
}

void
FliBbvCollector::onBlock(u32 blockId, u32 instrs)
{
    accum.add(blockId, static_cast<double>(instrs));
    const InstrCount now = engine.instructionsExecuted();
    if (now - intervalStart >= target) {
        accum.flushInto(fvs, now - intervalStart);
        ends.push_back(now);
        intervalStart = now;
    }
}

u64
FliBbvCollector::quietTrips(const exec::Summary& trip, u64 maxTrips,
                            const exec::ObserverHooks& streams) const
{
    // An interval closes at the first block event with
    // used >= target, so used < target between events, and no event
    // of n trips sees more than used + n * trip.instrs.
    if (!streams.blocks || trip.instrs == 0)
        return maxTrips;
    const InstrCount used = engine.instructionsExecuted() - intervalStart;
    return std::min(maxTrips, (target - 1 - used) / trip.instrs);
}

void
FliBbvCollector::onBulk(const exec::Summary& trip, u64 trips,
                        const exec::ObserverHooks& streams)
{
    if (streams.blocks)
        accum.addTrips(engine.binary(), trip, trips);
}

void
FliBbvCollector::onRunEnd()
{
    const InstrCount now = engine.instructionsExecuted();
    if (now > intervalStart) {
        accum.flushInto(fvs, now - intervalStart);
        ends.push_back(now);
        intervalStart = now;
    }
}

sp::FrequencyVectorSet
FliBbvCollector::takeIntervals()
{
    fvs.seal();
    return std::exchange(fvs, {});
}

namespace
{

ProfilePass runProfilePassUncached(const bin::Binary& binary,
                                   InstrCount fliTarget, u64 seed);

} // namespace

serial::Hash128
profilePassKey(const bin::Binary& binary, InstrCount fliTarget,
               u64 seed)
{
    serial::Hasher h;
    h.str("profile");
    bin::hashBinary(h, binary);
    h.u64v(fliTarget);
    h.u64v(seed);
    return h.finish();
}

ProfilePass
runProfilePass(const bin::Binary& binary, InstrCount fliTarget,
               u64 seed)
{
    return runProfilePass(binary, fliTarget, seed,
                          profilePassKey(binary, fliTarget, seed));
}

ProfilePass
runProfilePass(const bin::Binary& binary, InstrCount fliTarget,
               u64 seed, const serial::Hash128& key)
{
    return store::ArtifactStore::global()
        .getOrCompute<ProfilePassCodec>(key, "profile", [&] {
            return runProfilePassUncached(binary, fliTarget, seed);
        });
}

namespace
{

/**
 * Concrete sink for the profile pass — blocks into the BBV
 * collector, markers into the marker profiler, no memory stream, and
 * bulk steps wherever the open FLI interval stays short of its
 * target.
 * Both observer classes are final, so every call devirtualizes and
 * the whole pass compiles into one tight loop.  Event routing and
 * run-end order match the legacy registration (markers, then bbv)
 * exactly.
 */
struct ProfileSink
{
    MarkerProfiler& markers;
    FliBbvCollector& bbv;

    bool wantsBlocks() const { return true; }
    bool wantsMems() const { return false; }
    bool wantsMarkers() const { return true; }

    void onBlock(u32 blockId, u32 instrs)
    {
        bbv.onBlock(blockId, instrs);
    }
    void onMemRefs(std::span<const mem::MemRef>) {}
    void onMarker(u32 markerId) { markers.onMarker(markerId); }
    void onRunEnd() { bbv.onRunEnd(); }

    u64
    quietTrips(const exec::Summary& trip, u64 maxTrips) const
    {
        return std::min(markers.quietTrips(trip, maxTrips, markers.hooks()),
                        bbv.quietTrips(trip, maxTrips, bbv.hooks()));
    }

    void
    onBulk(const exec::Summary& trip, u64 trips)
    {
        markers.onBulk(trip, trips, markers.hooks());
        bbv.onBulk(trip, trips, bbv.hooks());
    }
};

ProfilePass
runProfilePassUncached(const bin::Binary& binary, InstrCount fliTarget,
                       u64 seed)
{
    obs::TraceSpan span(
        format("profile {}", binary.displayName()), "profile");
    exec::Engine engine(binary, seed);
    MarkerProfiler markers(binary);
    FliBbvCollector bbv(engine, fliTarget);
    ProfileSink sink{markers, bbv};
    engine.runWith(sink);
    markers.finish(engine.instructionsExecuted());

    ProfilePass pass;
    pass.markers = markers.result();
    pass.fliIntervals = bbv.takeIntervals();
    pass.fliBoundaries = bbv.boundaries();
    pass.totalInstructions = engine.instructionsExecuted();

    auto& reg = obs::StatRegistry::global();
    reg.counter("profile.passes").add();
    reg.counter("profile.fliIntervals")
        .add(pass.fliIntervals.size());
    return pass;
}

} // namespace

} // namespace xbsp::prof
