#include "cpu/core.hh"

#include "obs/stats.hh"
#include "util/logging.hh"

namespace xbsp::cpu
{

void
Core::flushStats() const
{
    auto& reg = obs::StatRegistry::global();
    reg.counter("cpu.runs").add();
    reg.counter("cpu.instrs").add(stats.instructions);
    reg.counter("cpu.cycles").add(stats.cycles);
    reg.counter("cpu.memRefs").add(stats.memRefs);
    reg.counter("cpu.branches").add(stats.branches);
    reg.counter("cpu.mispredicts").add(stats.mispredicts);
    reg.counter("cpu.flushes").add(stats.flushes);
    reg.counter("cpu.fetchBubbles").add(stats.fetchBubbles);
}

std::string_view
coreKindName(CoreKind kind)
{
    return kind == CoreKind::Decoupled ? "decoupled" : "inorder";
}

std::optional<CoreKind>
parseCoreKind(std::string_view name)
{
    if (name == "inorder" || name == "in-order")
        return CoreKind::InOrder;
    if (name == "decoupled")
        return CoreKind::Decoupled;
    return std::nullopt;
}

bool
selectCore(std::string_view name)
{
    if (parseCoreKind(name))
        return true;
    warn("core '{}' unknown (want inorder|decoupled)", name);
    return false;
}

CoreConfig
coreConfigFor(CoreKind kind)
{
    CoreConfig config;
    config.kind = kind;
    return config;
}

} // namespace xbsp::cpu
