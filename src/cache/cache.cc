#include "cache/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace xbsp::cache
{

namespace
{

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

u32
log2u(u64 v)
{
    u32 n = 0;
    while ((1ull << n) < v)
        ++n;
    return n;
}

} // namespace

SetAssociativeCache::SetAssociativeCache(const LevelConfig& config)
    : cfg(config)
{
    // The line words keep the valid and dirty flags in the two low
    // bits of the line's base address, so a line must span at least
    // 4 bytes for those bits to be free.
    if (cfg.lineSize < 4 || !isPow2(cfg.lineSize))
        fatal("cache {}: line size {} is not a power of two >= 4",
              cfg.name, cfg.lineSize);
    if (cfg.associativity == 0)
        fatal("cache {}: associativity must be > 0", cfg.name);
    const u64 numLines = cfg.capacityBytes / cfg.lineSize;
    if (numLines == 0 || numLines % cfg.associativity != 0)
        fatal("cache {}: capacity {} not divisible into {}-way sets",
              cfg.name, cfg.capacityBytes, cfg.associativity);
    ways = cfg.associativity;
    const u64 numSets = numLines / cfg.associativity;
    if (!isPow2(numSets))
        fatal("cache {}: set count {} is not a power of two",
              cfg.name, numSets);
    setShift = log2u(cfg.lineSize);
    setMask = numSets - 1;
    lineMask = ~(static_cast<u64>(cfg.lineSize) - 1);
    lines.assign(static_cast<std::size_t>(numLines), 0);
}

void
SetAssociativeCache::flush()
{
    std::fill(lines.begin(), lines.end(), 0);
}

double
SetAssociativeCache::missRate() const
{
    return accessCount
               ? static_cast<double>(missCount) /
                     static_cast<double>(accessCount)
               : 0.0;
}

void
SetAssociativeCache::resetStats()
{
    accessCount = 0;
    missCount = 0;
    writebackCount = 0;
    walkCount = 0;
}

} // namespace xbsp::cache
