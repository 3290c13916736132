#include "core/vli.hh"

#include <algorithm>
#include <utility>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "store/store.hh"
#include "util/logging.hh"

namespace xbsp::core
{

namespace
{

/** Credit the mappable-point firings of `trips` repetitions of `trip`. */
void
addFirings(std::vector<u64>& fireCounts, const MappableSet& mappable,
           std::size_t binaryIdx, const exec::Summary& trip, u64 trips)
{
    for (const exec::IdCount& m : trip.markerCounts) {
        const u32 pointIdx = mappable.pointFor(binaryIdx, m.id);
        if (pointIdx != invalidId)
            fireCounts[pointIdx] += trips * m.count;
    }
}

} // namespace

VliBbvCollector::VliBbvCollector(const exec::Engine& eng,
                                 const MappableSet& set,
                                 std::size_t bIdx,
                                 InstrCount targetSize)
    : engine(eng), mappable(set), binaryIdx(bIdx), target(targetSize),
      accum(eng.binary().blockCount())
{
    if (target == 0)
        fatal("VLI interval target must be > 0");
    if (binaryIdx >= mappable.binaryCount)
        fatal("binary index {} out of range ({} binaries)",
              binaryIdx, mappable.binaryCount);
    fireCounts.assign(mappable.points.size(), 0);
    fvs.dimension = eng.binary().blockCount();
}

void
VliBbvCollector::onBlock(u32 blockId, u32 instrs)
{
    accum.add(blockId, static_cast<double>(instrs));
}

void
VliBbvCollector::closeInterval(InstrCount now)
{
    accum.flushInto(fvs, now - intervalStart);
    intervalStart = now;
}

void
VliBbvCollector::onMarker(u32 markerId)
{
    const u32 pointIdx = mappable.pointFor(binaryIdx, markerId);
    if (pointIdx == invalidId)
        return;
    const u64 count = ++fireCounts[pointIdx];
    const InstrCount now = engine.instructionsExecuted();
    if (now - intervalStart >= target) {
        part.boundaries.push_back(Boundary{pointIdx, count});
        closeInterval(now);
    }
}

u64
VliBbvCollector::quietTrips(const exec::Summary& trip, u64 maxTrips,
                            const exec::ObserverHooks& streams) const
{
    if (!streams.markers)
        return maxTrips;
    const bool mapped = std::any_of(
        trip.markerCounts.begin(), trip.markerCounts.end(),
        [&](const exec::IdCount& m) {
            return mappable.pointFor(binaryIdx, m.id) != invalidId;
        });
    if (!mapped)
        return maxTrips;
    // A mappable firing closes the interval once used >= target, even
    // in a zero-instruction trip (a call to an empty procedure), and
    // no event of n trips sees more than used + n * trip.instrs.
    const InstrCount used = engine.instructionsExecuted() - intervalStart;
    if (used >= target)
        return 0;
    if (trip.instrs == 0)
        return maxTrips;
    return std::min(maxTrips, (target - 1 - used) / trip.instrs);
}

void
VliBbvCollector::onBulk(const exec::Summary& trip, u64 trips,
                        const exec::ObserverHooks& streams)
{
    if (streams.blocks)
        accum.addTrips(engine.binary(), trip, trips);
    if (streams.markers)
        addFirings(fireCounts, mappable, binaryIdx, trip, trips);
}

void
VliBbvCollector::onRunEnd()
{
    const InstrCount now = engine.instructionsExecuted();
    if (now > intervalStart)
        closeInterval(now);
    if (fvs.size() != part.intervalCount()) {
        // A boundary fired exactly at program end: the final interval
        // is empty.  Drop the trailing boundary so intervals and
        // boundaries stay consistent.
        if (fvs.size() + 1 == part.intervalCount() &&
            !part.boundaries.empty()) {
            part.boundaries.pop_back();
        } else {
            panic("VLI collector inconsistency: {} intervals vs {} "
                  "boundaries", fvs.size(), part.boundaries.size());
        }
    }
}

sp::FrequencyVectorSet
VliBbvCollector::takeIntervals()
{
    fvs.seal();
    return std::exchange(fvs, {});
}

namespace
{
VliBuild buildVliPartitionUncached(const bin::Binary& primary,
                                   const MappableSet& mappable,
                                   std::size_t primaryIdx,
                                   InstrCount targetSize, u64 seed);
} // namespace

serial::Hash128
vliBuildKey(const bin::Binary& primary, const MappableSet& mappable,
            std::size_t primaryIdx, InstrCount targetSize, u64 seed)
{
    serial::Hasher h;
    h.str("vli");
    bin::hashBinary(h, primary);
    hashMappable(h, mappable);
    h.u64v(primaryIdx);
    h.u64v(targetSize);
    h.u64v(seed);
    return h.finish();
}

VliBuild
buildVliPartition(const bin::Binary& primary,
                  const MappableSet& mappable, std::size_t primaryIdx,
                  InstrCount targetSize, u64 seed)
{
    return buildVliPartition(
        primary, mappable, primaryIdx, targetSize, seed,
        vliBuildKey(primary, mappable, primaryIdx, targetSize, seed));
}

VliBuild
buildVliPartition(const bin::Binary& primary,
                  const MappableSet& mappable, std::size_t primaryIdx,
                  InstrCount targetSize, u64 seed,
                  const serial::Hash128& key)
{
    return store::ArtifactStore::global().getOrCompute<VliBuildCodec>(
        key, "vli", [&] {
            return buildVliPartitionUncached(primary, mappable,
                                             primaryIdx, targetSize,
                                             seed);
        });
}

namespace
{

VliBuild
buildVliPartitionUncached(const bin::Binary& primary,
                          const MappableSet& mappable,
                          std::size_t primaryIdx,
                          InstrCount targetSize, u64 seed)
{
    exec::Engine engine(primary, seed);
    VliBbvCollector collector(engine, mappable, primaryIdx,
                              targetSize);
    engine.addObserver(&collector, collector.hooks());
    engine.run();

    VliBuild build;
    build.partition = collector.partition();
    build.intervals = collector.takeIntervals();
    build.totalInstructions = engine.instructionsExecuted();
    return build;
}

} // namespace

BoundaryTracker::BoundaryTracker(const MappableSet& set,
                                 std::size_t bIdx,
                                 const VliPartition& partition,
                                 Callback onBoundary)
    : mappable(set), binaryIdx(bIdx), part(partition),
      callback(std::move(onBoundary))
{
    fireCounts.assign(mappable.points.size(), 0);
    // Sanity: boundary counts never exceed the points' total counts.
    for (const Boundary& b : part.boundaries) {
        if (b.pointIdx >= mappable.points.size())
            panic("boundary references point {} out of range",
                  b.pointIdx);
        if (b.fireCount == 0 ||
            b.fireCount > mappable.points[b.pointIdx].execCount) {
            panic("boundary fire count {} outside point '{}' total {}",
                  b.fireCount,
                  mappable.points[b.pointIdx].key.describe(),
                  mappable.points[b.pointIdx].execCount);
        }
    }
}

void
BoundaryTracker::onMarker(u32 markerId)
{
    const u32 pointIdx = mappable.pointFor(binaryIdx, markerId);
    if (pointIdx == invalidId)
        return;
    const u64 count = ++fireCounts[pointIdx];
    if (next >= part.boundaries.size())
        return;
    const Boundary& expected = part.boundaries[next];
    if (expected.pointIdx == pointIdx) {
        if (count == expected.fireCount) {
            callback(next);
            ++next;
        } else if (count > expected.fireCount) {
            panic("boundary {} ('{}' firing {}) was missed: point is "
                  "now at firing {} — mappable points did not execute "
                  "in the same semantic order",
                  next,
                  mappable.points[pointIdx].key.describe(),
                  expected.fireCount, count);
        }
    }
}

u64
BoundaryTracker::quietTrips(const exec::Summary& trip, u64 maxTrips,
                            const exec::ObserverHooks& streams) const
{
    if (!streams.markers || finished())
        return maxTrips;
    // Only firings of the next boundary's point can cross it or
    // panic; n trips take that point from `have` to have + n * h.
    const Boundary& expected = part.boundaries[next];
    u64 h = 0;
    for (const exec::IdCount& m : trip.markerCounts) {
        if (mappable.pointFor(binaryIdx, m.id) == expected.pointIdx)
            h += m.count;
    }
    if (h == 0)
        return maxTrips;
    const u64 have = fireCounts[expected.pointIdx];
    if (have >= expected.fireCount)
        return 0;
    return std::min(maxTrips, (expected.fireCount - 1 - have) / h);
}

void
BoundaryTracker::onBulk(const exec::Summary& trip, u64 trips,
                        const exec::ObserverHooks& streams)
{
    if (streams.markers)
        addFirings(fireCounts, mappable, binaryIdx, trip, trips);
}

} // namespace xbsp::core
