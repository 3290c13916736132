#include "sim/detailed.hh"

#include <optional>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "cpu/serial.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/serial.hh"
#include "sim/walk.hh"
#include "store/store.hh"
#include "util/format.hh"

namespace xbsp::sim
{

namespace
{

DetailedRunResult runDetailedUncached(const bin::Binary& binary,
                                      const DetailedRunRequest& req);

} // namespace

serial::Hash128
detailedRunKey(const bin::Binary& binary,
               const DetailedRunRequest& req)
{
    serial::Hasher h;
    h.str("detailed");
    bin::hashBinary(h, binary);
    h.u64v(req.fliBoundaries.size());
    for (InstrCount boundary : req.fliBoundaries)
        h.u64v(boundary);
    h.boolean(req.partition != nullptr);
    if (req.partition) {
        core::hashMappable(h, *req.mappable);
        h.u64v(req.binaryIdx);
        core::hashPartition(h, *req.partition);
    }
    hashHierarchy(h, req.memory);
    cpu::hashCoreConfig(h, req.core);
    h.u64v(req.seed);
    return h.finish();
}

DetailedRunResult
runDetailed(const bin::Binary& binary, const DetailedRunRequest& req)
{
    return runDetailed(binary, req, detailedRunKey(binary, req));
}

DetailedRunResult
runDetailed(const bin::Binary& binary, const DetailedRunRequest& req,
            const serial::Hash128& key)
{
    return store::ArtifactStore::global()
        .getOrCompute<DetailedRunCodec>(key, "detailed", [&] {
            return runDetailedUncached(binary, req);
        });
}

namespace
{

/**
 * Walk the whole run with the given collectors; gather the result.
 * A cold-point walk fills one slot and names the intervals whose
 * cuts flush the walk's hierarchy in `coldPoints`; its cache counters
 * stay out of the registry, which counts detailed runs.
 */
template <typename CoreT, typename FliT, typename VliT>
DetailedRunResult
walkRun(exec::Engine& engine, const DetailedRunRequest& req,
        CoreT& core, FliT* fli, VliT* vli,
        std::span<const std::size_t> coldPoints = {})
{
    using Sink = DetailedSink<CoreT, FliT, VliT>;
    Sink sink{cache::Hierarchy(req.memory), core, fli, vli};
    if constexpr (Sink::hasFli)
        fli->flushAt(sink.hierarchy, coldPoints);
    if constexpr (Sink::hasVli)
        vli->flushAt(sink.hierarchy, coldPoints);
    engine.runWith(sink);
    core.flushStats();
    const cache::Hierarchy& hierarchy = sink.hierarchy;
    if (coldPoints.empty()) {
        auto& reg = obs::StatRegistry::global();
        reg.counter("cache.refs.elided").add(hierarchy.elidedRefs());
        reg.counter("cache.set_walks").add(hierarchy.setWalks());
    }

    DetailedRunResult result;
    result.totals = core.totals();
    result.memory.refs = hierarchy.totalAccesses();
    result.memory.l1Hits = hierarchy.servicedAt(cache::HitLevel::L1);
    result.memory.l2Hits = hierarchy.servicedAt(cache::HitLevel::L2);
    result.memory.l3Hits = hierarchy.servicedAt(cache::HitLevel::L3);
    result.memory.dramAccesses =
        hierarchy.servicedAt(cache::HitLevel::Memory);
    result.memory.dramWritebacks = hierarchy.dramWritebacks();
    if constexpr (Sink::hasFli)
        result.fliIntervals = fli->intervals();
    if constexpr (Sink::hasVli)
        result.vliIntervals = vli->intervals();
    return result;
}

/** One full run over a concrete (devirtualized) backend. */
template <typename CoreT>
DetailedRunResult
runDetailedOn(const bin::Binary& binary,
              const DetailedRunRequest& req, CoreT& core)
{
    exec::Engine engine(binary, req.seed);
    std::optional<FliSnapshotter> fli;
    if (!req.fliBoundaries.empty())
        fli.emplace(engine, core, req.fliBoundaries);
    std::optional<VliSnapshotter> vli;
    if (req.partition) {
        vli.emplace(engine, core, *req.mappable, req.binaryIdx,
                    *req.partition);
    }

    constexpr EmptySlot* none = nullptr;
    if (fli && vli)
        return walkRun(engine, req, core, &*fli, &*vli);
    if (fli)
        return walkRun(engine, req, core, &*fli, none);
    if (vli)
        return walkRun(engine, req, core, none, &*vli);
    return walkRun(engine, req, core, none, none);
}

DetailedRunResult
runDetailedUncached(const bin::Binary& binary,
                    const DetailedRunRequest& req)
{
    obs::TraceSpan span(
        format("detailed {}", binary.displayName()), "sim");
    obs::StatRegistry::global().counter("sim.detailedRuns").add();
    return withCore(req.core, [&](auto& core) {
        return runDetailedOn(binary, req, core);
    });
}

} // namespace

std::vector<IntervalStats>
runColdPoints(const bin::Binary& binary, const DetailedRunRequest& req,
              std::span<const std::size_t> points)
{
    const bool fli = !req.fliBoundaries.empty();
    if (fli == (req.partition != nullptr))
        fatal("cold points need exactly one interval scheme (FLI "
              "boundaries or a VLI partition)");
    const std::size_t count = fli ? req.fliBoundaries.size()
                                  : req.partition->intervalCount();
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i] >= count)
            fatal("cold point {} out of range ({} intervals)",
                  points[i], count);
        if (i > 0 && points[i] <= points[i - 1])
            fatal("cold points must be strictly increasing ({} after "
                  "{})", points[i], points[i - 1]);
    }

    exec::Engine engine(binary, req.seed);
    const DetailedRunResult run = withCore(req.core, [&](auto& core) {
        constexpr EmptySlot* none = nullptr;
        if (fli) {
            FliSnapshotter snap(engine, core, req.fliBoundaries);
            return walkRun(engine, req, core, &snap, none, points);
        }
        VliSnapshotter snap(engine, core, *req.mappable, req.binaryIdx,
                            *req.partition);
        return walkRun(engine, req, core, none, &snap, points);
    });
    const std::vector<IntervalStats>& intervals =
        fli ? run.fliIntervals : run.vliIntervals;
    std::vector<IntervalStats> stats;
    stats.reserve(points.size());
    for (const std::size_t point : points)
        stats.push_back(intervals[point]);
    return stats;
}

} // namespace xbsp::sim
