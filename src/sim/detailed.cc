#include "sim/detailed.hh"

#include <memory>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "cpu/decoupled.hh"
#include "cpu/inorder.hh"
#include "cpu/serial.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/serial.hh"
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
 * Concrete sink for the detailed run, specialized over the timing
 * backend and over which snapshot collectors are attached.  Memory
 * references and block events hit the core first, then the FLI
 * snapshotter (the "core is registered first" contract: snapshotters
 * read fully updated counters); markers go to the core (when its
 * model consumes them) before the VLI tracker; run-end order matches
 * the legacy registration (core has no run-end hook, then fli, then
 * vli).  Core and observer classes are final, so the whole hot path
 * devirtualizes per backend.  Stack spills reach the core as one run
 * per block (exec::StackRunSink), never materialized.
 */
template <typename CoreT, bool HasFli, bool HasVli>
struct DetailedSink
{
    CoreT& core;
    FliSnapshotter* fli;
    VliSnapshotter* vli;

    bool wantsBlocks() const { return true; }
    bool wantsMems() const { return true; }
    bool wantsMarkers() const { return HasVli || CoreT::usesMarkers; }

    void
    onBlock(u32 blockId, u32 instrs)
    {
        core.onBlock(blockId, instrs);
        if constexpr (HasFli)
            fli->onBlock(blockId, instrs);
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        core.onMemRefs(refs);
    }

    void
    onStackRun(Addr base, u32 cursor, u32 n)
    {
        core.onStackRun(base, cursor, n);
    }

    void
    onMarker(u32 markerId)
    {
        if constexpr (CoreT::usesMarkers)
            core.onMarker(markerId);
        if constexpr (HasVli)
            vli->onMarker(markerId);
        else if constexpr (!CoreT::usesMarkers)
            (void)markerId;
    }

    void
    onRunEnd()
    {
        if constexpr (HasFli)
            fli->onRunEnd();
        if constexpr (HasVli)
            vli->onRunEnd();
    }
};

template <typename CoreT, bool HasFli, bool HasVli>
void
runDetailedWith(exec::Engine& engine, CoreT& core,
                FliSnapshotter* fli, VliSnapshotter* vli)
{
    DetailedSink<CoreT, HasFli, HasVli> sink{core, fli, vli};
    engine.runWith(sink);
}

/** One full run over a concrete (devirtualized) backend. */
template <typename CoreT>
DetailedRunResult
runDetailedOn(const bin::Binary& binary,
              const DetailedRunRequest& req, CoreT& core,
              cache::Hierarchy& hierarchy)
{
    exec::Engine engine(binary, req.seed);

    std::unique_ptr<FliSnapshotter> fli;
    if (!req.fliBoundaries.empty()) {
        fli = std::make_unique<FliSnapshotter>(engine, core,
                                               req.fliBoundaries);
    }

    std::unique_ptr<VliSnapshotter> vli;
    if (req.partition) {
        vli = std::make_unique<VliSnapshotter>(
            engine, core, *req.mappable, req.binaryIdx,
            *req.partition);
    }

    if (fli && vli) {
        runDetailedWith<CoreT, true, true>(engine, core, fli.get(),
                                           vli.get());
    } else if (fli) {
        runDetailedWith<CoreT, true, false>(engine, core, fli.get(),
                                            nullptr);
    } else if (vli) {
        runDetailedWith<CoreT, false, true>(engine, core, nullptr,
                                            vli.get());
    } else {
        runDetailedWith<CoreT, false, false>(engine, core, nullptr,
                                             nullptr);
    }
    core.flushStats();
    auto& reg = obs::StatRegistry::global();
    reg.counter("cache.refs.elided").add(hierarchy.elidedRefs());
    reg.counter("cache.set_walks").add(hierarchy.setWalks());

    DetailedRunResult result;
    result.totals = core.totals();
    result.memory.refs = hierarchy.totalAccesses();
    result.memory.l1Hits = hierarchy.servicedAt(cache::HitLevel::L1);
    result.memory.l2Hits = hierarchy.servicedAt(cache::HitLevel::L2);
    result.memory.l3Hits = hierarchy.servicedAt(cache::HitLevel::L3);
    result.memory.dramAccesses =
        hierarchy.servicedAt(cache::HitLevel::Memory);
    result.memory.dramWritebacks = hierarchy.dramWritebacks();
    if (fli)
        result.fliIntervals = fli->intervals();
    if (vli)
        result.vliIntervals = vli->intervals();
    return result;
}

DetailedRunResult
runDetailedUncached(const bin::Binary& binary,
                    const DetailedRunRequest& req)
{
    obs::TraceSpan span(
        format("detailed {}", binary.displayName()), "sim");
    obs::StatRegistry::global().counter("sim.detailedRuns").add();
    cache::Hierarchy hierarchy(req.memory);
    // Dispatch on the backend once, here, so every event of the run
    // flows through a concrete core type.
    if (req.core.kind == cpu::CoreKind::Decoupled) {
        cpu::DecoupledCore core(hierarchy, req.core);
        return runDetailedOn(binary, req, core, hierarchy);
    }
    cpu::InOrderCore core(hierarchy);
    return runDetailedOn(binary, req, core, hierarchy);
}

} // namespace

} // namespace xbsp::sim
