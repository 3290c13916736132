/**
 * @file
 * The timed walk: the one place a timed run reaches the cache
 * hierarchy.  DetailedSink owns the run's cache::Hierarchy, services
 * each block's pattern batch (accessBatch) and stack run
 * (accessStackRun) there, and hands the core the stall cycles; the
 * core never sees an address.  Full detailed runs (sim/detailed.cc)
 * put snapshot collectors in the sink's FLI and VLI slots; a
 * cold-point walk puts one collector in its slot, which flushes the
 * sink's hierarchy at the cuts that begin its points.
 */

#ifndef XBSP_SIM_WALK_HH
#define XBSP_SIM_WALK_HH

#include <span>
#include <type_traits>

#include "cache/hierarchy.hh"
#include "cpu/decoupled.hh"
#include "cpu/inorder.hh"
#include "exec/engine.hh"
#include "util/logging.hh"

namespace xbsp::sim
{

/** An empty FLI or VLI slot of a DetailedSink. */
struct EmptySlot
{
};

/**
 * Engine sink of a timed run over a concrete core and the collectors
 * in its FLI slot (block events: onBlock, onRunEnd) and VLI slot
 * (marker events: onMarker, onRunEnd).  Block events hit the core
 * first, then the FLI slot; markers go to the core (when its model
 * consumes them) before the VLI slot — collectors read fully updated
 * counters.  Core classes are final and collectors non-virtual, so
 * the whole hot path devirtualizes into one instantiation per
 * combination.
 */
template <typename CoreT, typename FliT, typename VliT>
struct DetailedSink
{
    static constexpr bool hasFli = !std::is_same_v<FliT, EmptySlot>;
    static constexpr bool hasVli = !std::is_same_v<VliT, EmptySlot>;

    cache::Hierarchy hierarchy;
    CoreT& core;
    FliT* fli = nullptr;
    VliT* vli = nullptr;

    bool wantsBlocks() const { return true; }
    bool wantsMems() const { return true; }
    bool wantsMarkers() const { return hasVli || CoreT::usesMarkers; }

    void
    onBlock(u32 blockId, u32 instrs)
    {
        core.onBlock(blockId, instrs);
        if constexpr (hasFli)
            fli->onBlock(blockId, instrs);
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        core.onStall(hierarchy.accessBatch(refs), refs.size());
    }

    /** A block's stack spills, never materialized (exec::StackRunSink). */
    void
    onStackRun(Addr base, u32 cursor, u32 n)
    {
        core.onStall(hierarchy.accessStackRun(base, cursor, n), n);
    }

    void
    onMarker(u32 markerId)
    {
        if constexpr (CoreT::usesMarkers)
            core.onMarker(markerId);
        if constexpr (hasVli)
            vli->onMarker(markerId);
        else if constexpr (!CoreT::usesMarkers)
            (void)markerId;
    }

    void
    onRunEnd()
    {
        if constexpr (hasFli)
            fli->onRunEnd();
        if constexpr (hasVli)
            vli->onRunEnd();
    }
};

/**
 * Call `fn(core)` with the backend `config` describes, as its
 * concrete type: the one core-kind dispatch.  Fatal on an unknown
 * kind or out-of-range knobs.
 */
template <typename Fn>
auto
withCore(const cpu::CoreConfig& config, Fn&& fn)
{
    switch (config.kind) {
      case cpu::CoreKind::InOrder: {
        cpu::InOrderCore core;
        return fn(core);
      }
      case cpu::CoreKind::Decoupled: {
        cpu::DecoupledCore core(config);
        return fn(core);
      }
    }
    fatal("unknown core kind {}", static_cast<u32>(config.kind));
}

} // namespace xbsp::sim

#endif // XBSP_SIM_WALK_HH
