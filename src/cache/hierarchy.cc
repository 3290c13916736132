#include "cache/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace xbsp::cache
{

std::string
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        return "L1";
      case HitLevel::L2:
        return "L2";
      case HitLevel::L3:
        return "L3";
      case HitLevel::Memory:
        return "DRAM";
    }
    panic("unknown HitLevel {}", static_cast<int>(level));
}

Hierarchy::Hierarchy(const HierarchyConfig& config)
    : cfg(config),
      levels{SetAssociativeCache(config.l1),
             SetAssociativeCache(config.l2),
             SetAssociativeCache(config.l3)}
{
    if (cfg.l1.lineSize != cfg.l2.lineSize ||
        cfg.l2.lineSize != cfg.l3.lineSize) {
        fatal("hierarchy requires a uniform line size, got {}/{}/{}",
              cfg.l1.lineSize, cfg.l2.lineSize, cfg.l3.lineSize);
    }
    latencyTable = {cfg.l1.hitLatency, cfg.l2.hitLatency,
                    cfg.l3.hitLatency, cfg.dramLatency};
    lineMask = ~(static_cast<Addr>(cfg.l1.lineSize) - 1);
}

void
Hierarchy::writebackInto(std::size_t level, Addr lineAddr)
{
    // Non-inclusive write-back: a line already resident in the next
    // level down is re-touched and dirtied (not a demand access in
    // the hit/miss statistics); otherwise the dirty line is installed
    // there (allocating), possibly cascading.
    for (; level < levels.size(); ++level) {
        const Eviction ev = levels[level].absorbWriteback(lineAddr);
        if (!ev.dirty)
            return;
        lineAddr = ev.lineAddr;
    }
    ++dramWbCount;
}

HitLevel
Hierarchy::missBelow(Addr addr, const Eviction& l1Victim)
{
    // Walk down, installing the line at every level that misses,
    // until one hits (or DRAM services it).
    std::array<Eviction, 3> victims{l1Victim};
    std::size_t hitAt = levels.size();
    for (std::size_t i = 1; i < levels.size(); ++i) {
        const AccessResult r = levels[i].accessOrFill(addr, false);
        if (r.hit) {
            hitAt = i;
            break;
        }
        victims[i] = r.evicted;
    }
    // Then write the displaced dirty lines back, deepest level first:
    // every level sees its fill before the writebacks from the
    // levels above, in the order lookup-then-fill produces them.
    for (std::size_t i = hitAt; i-- > 0;) {
        if (victims[i].dirty)
            writebackInto(i + 1, victims[i].lineAddr);
    }
    ++serviced[hitAt];
    return static_cast<HitLevel>(hitAt);
}

Cycles
Hierarchy::accessStackRun(Addr base, u32 cursor, u32 n)
{
    const u64 lineBytes = ~lineMask + 1;
    Cycles total = 0;
    for (u32 i = 0; i < n;) {
        const u32 at = cursor + i;
        const mem::MemRef first = mem::stackRef(base, at);
        // The references after `first` stay in its line until the
        // line ends or the window wraps.
        const u64 toLineEnd = lineBytes - (first.addr & ~lineMask);
        const u64 inLine =
            (toLineEnd + mem::stackSlotBytes - 1) / mem::stackSlotBytes;
        const u32 toWrap =
            mem::stackSlots - (at & (mem::stackSlots - 1));
        const u32 run = static_cast<u32>(
            std::min<u64>({inLine, toWrap, n - i}));
        total += latencyTable[static_cast<std::size_t>(
            access(first.addr, first.isWrite))];
        if (run > 1) {
            // Slots alternate load/store, so two or more references
            // hold a store: the line ends dirty.
            levels[0].hitFront(first.addr, run - 1, true);
            total += (run - 1) * latencyTable[0];
        }
        i += run;
    }
    return total;
}

void
Hierarchy::flushAll()
{
    for (auto& level : levels)
        level.flush();
    lastLine = kNoLine;
}

void
Hierarchy::resetStats()
{
    for (auto& level : levels)
        level.resetStats();
    serviced.fill(0);
    dramWbCount = 0;
}

u64
Hierarchy::servicedAt(HitLevel level) const
{
    if (level == HitLevel::L1)
        return levels[0].accesses() - levels[0].misses();
    return serviced[static_cast<std::size_t>(level)];
}

u64
Hierarchy::totalAccesses() const
{
    return levels[0].accesses();
}

u64
Hierarchy::setWalks() const
{
    u64 total = 0;
    for (const auto& level : levels)
        total += level.walks();
    return total;
}

} // namespace xbsp::cache
