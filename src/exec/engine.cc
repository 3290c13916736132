#include "exec/engine.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "util/rng.hh"

namespace xbsp::exec
{

Engine::Engine(const bin::Binary& binary, u64 seed) : bin(binary)
{
    states.resize(bin.blocks.size());
    u32 maxRefs = 0;
    for (u32 i = 0; i < bin.blocks.size(); ++i) {
        const bin::MachineBlock& blk = bin.blocks[i];
        if (blk.memOps > 0) {
            states[i].gen = std::make_unique<mem::AddressGenerator>(
                blk.pattern, hashMix(seed ^ (static_cast<u64>(i) << 32)));
        }
        maxRefs = std::max(maxRefs, blk.memOps + blk.stackOps);
    }
    if (maxRefs > 0)
        refBuf = std::make_unique<mem::MemRef[]>(maxRefs);
}

void
Engine::addObserver(Observer* observer, const ObserverHooks& hooks)
{
    if (ran)
        panic("Engine::addObserver after run()");
    if (hooks.blocks)
        blockObservers.push_back(observer);
    if (hooks.memRefs)
        memObservers.push_back(observer);
    if (hooks.markers)
        markerObservers.push_back(observer);
    allObservers.push_back(observer);
}

/**
 * The observer path as a sink: fan every event out to the
 * registered observer vectors, in registration order.
 */
struct Engine::VirtualSink
{
    Engine& engine;

    bool wantsBlocks() const { return !engine.blockObservers.empty(); }
    bool wantsMems() const { return !engine.memObservers.empty(); }
    bool
    wantsMarkers() const
    {
        return !engine.markerObservers.empty();
    }

    void
    onBlock(u32 blockId, u32 instrs)
    {
        for (Observer* obs : engine.blockObservers)
            obs->onBlock(blockId, instrs);
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        for (Observer* obs : engine.memObservers)
            obs->onMemRefs(refs);
    }

    void
    onMarker(u32 markerId)
    {
        for (Observer* obs : engine.markerObservers)
            obs->onMarker(markerId);
    }

    void
    onRunEnd()
    {
        for (Observer* obs : engine.allObservers)
            obs->onRunEnd();
    }
};

void
Engine::run()
{
    VirtualSink sink{*this};
    runWith(sink);
}

void
Engine::flushStats()
{
    auto& reg = obs::StatRegistry::global();
    reg.counter("engine.runs").add();
    reg.counter("engine.blocks").add(blocksExecuted);
    reg.counter("engine.instrs").add(instrCount);
    reg.counter("engine.memRefs").add(refsIssued);
    reg.counter("engine.markers").add(markersFired);
    reg.distribution("engine.instrsPerRun").sample(instrCount);
}

InstrCount
runOnce(const bin::Binary& binary,
        const std::vector<Observer*>& observers, u64 seed)
{
    Engine engine(binary, seed);
    for (Observer* obs : observers)
        engine.addObserver(obs, obs->hooks());
    engine.run();
    return engine.instructionsExecuted();
}

bool
selectEngineMode(std::string_view mode)
{
    if (mode == "compiled" || mode == "interp")
        return true;
    warn("unknown engine mode '{}' (compiled|interp)", mode);
    return false;
}

} // namespace xbsp::exec
