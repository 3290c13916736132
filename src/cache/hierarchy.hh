/**
 * @file
 * Three-level non-inclusive write-back cache hierarchy with the
 * paper's Table 1 configuration as default: L1D 32KB/2-way,
 * L2 512KB/8-way, L3 1MB/16-way, all 64-byte lines and LRU, with
 * 3/14/35-cycle hit latencies and 250-cycle DRAM.
 *
 * The access path is line-granular and one-pass.  The hierarchy
 * remembers the line of the last reference: every access leaves its
 * line at the front of its L1 set, and writebacks only touch L2/L3,
 * so a reference to that same line is a depth-0 L1 hit and is
 * serviced from the counters alone, with no set walk (an *elided*
 * reference).  Any other reference walks its L1 set once, inline;
 * a miss has already been installed by that walk and goes to the
 * out-of-line path, which installs the line in each lower level as
 * it walks down and then replays the displaced dirty lines, deepest
 * level first.  Statistics and LRU state are exactly those of the
 * reference-by-reference lookup-then-fill model (DESIGN.md, "Cache
 * hot loop").
 */

#ifndef XBSP_CACHE_HIERARCHY_HH
#define XBSP_CACHE_HIERARCHY_HH

#include <array>
#include <span>

#include "cache/cache.hh"
#include "mem/pattern.hh"
#include "util/types.hh"

namespace xbsp::cache
{

/** Which level serviced a reference. */
enum class HitLevel { L1, L2, L3, Memory };

/** Display name, e.g. "L2". */
std::string hitLevelName(HitLevel level);

/** Full hierarchy configuration. */
struct HierarchyConfig
{
    LevelConfig l1{"L1D", 32 * 1024, 2, 64, 3};
    LevelConfig l2{"L2D", 512 * 1024, 8, 64, 14};
    LevelConfig l3{"L3D", 1024 * 1024, 16, 64, 35};
    Cycles dramLatency = 250;

    /** The configuration of the paper's Table 1 (also the default). */
    static HierarchyConfig paperTable1() { return HierarchyConfig{}; }
};

/**
 * The memory system: lookups walk L1 -> L2 -> L3 -> DRAM; misses fill
 * every level on the way back (allocate-on-miss); dirty evictions are
 * written back into the next level without back-invalidation
 * (non-inclusive).  Writeback traffic is counted but costs no cycles,
 * matching CMP$im's simple timing.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(
        const HierarchyConfig& config = HierarchyConfig::paperTable1());

    /** Service one reference; returns the level that hit. */
    HitLevel
    access(Addr addr, bool isWrite)
    {
        const Addr line = addr & lineMask;
        if (line == lastLine) {
            levels[0].hitFront(addr, 1, isWrite);
            return HitLevel::L1;
        }
        lastLine = line;
        const AccessResult l1 = levels[0].accessOrFill(addr, isWrite);
        if (l1.hit)
            return HitLevel::L1;
        return missBelow(addr, l1.evicted);
    }

    /**
     * Service a whole block's reference batch in issue order and
     * return the summed latency.  Statistics are updated exactly as
     * if access() had been called per reference; this entry point
     * exists so batch-aware timing observers pay one call per block
     * instead of two virtual dispatches per reference.
     */
    Cycles
    accessBatch(std::span<const mem::MemRef> refs)
    {
        Cycles total = 0;
        for (const mem::MemRef& ref : refs) {
            total += latencyTable[static_cast<std::size_t>(
                access(ref.addr, ref.isWrite))];
        }
        return total;
    }

    /**
     * Service the `n` stack-spill references of one block execution,
     * mem::stackRef(base, cursor) through stackRef(base, cursor + n
     * - 1), and return the summed latency.  Exactly n access() calls
     * in order, done as one access per line touched: the rest of a
     * line's references are depth-0 hits, and a line with two or
     * more of them (loads and stores alternate) ends dirty.
     */
    Cycles accessStackRun(Addr base, u32 cursor, u32 n);

    /** Total latency of a reference serviced at `level`. */
    Cycles
    latency(HitLevel level) const
    {
        return latencyTable[static_cast<std::size_t>(level)];
    }

    /** Invalidate all levels (cold-start sampling ablation). */
    void flushAll();

    /** Zero all per-level statistics (cache contents kept). */
    void resetStats();

    const SetAssociativeCache& l1() const { return levels[0]; }
    const SetAssociativeCache& l2() const { return levels[1]; }
    const SetAssociativeCache& l3() const { return levels[2]; }
    const HierarchyConfig& config() const { return cfg; }

    /** References serviced per level plus DRAM writebacks. */
    u64 servicedAt(HitLevel level) const;
    u64 dramWritebacks() const { return dramWbCount; }
    u64 totalAccesses() const;

    /** References serviced as depth-0 L1 hits without a set walk. */
    u64
    elidedRefs() const
    {
        return levels[0].accesses() - levels[0].walks();
    }

    /** Set walks done at all levels (demand and writeback). */
    u64 setWalks() const;

  private:
    /** No line: lines are aligned, so no masked address is odd. */
    static constexpr Addr kNoLine = ~Addr(0);

    HierarchyConfig cfg;
    std::array<SetAssociativeCache, 3> levels;
    std::array<Cycles, 4> latencyTable{};  ///< per HitLevel
    /// References serviced at L2, L3 and DRAM (L1 hits are the L1
    /// level's accesses minus its misses).
    std::array<u64, 4> serviced{};
    u64 dramWbCount = 0;
    Addr lineMask = 0;        ///< ~(lineSize - 1)
    Addr lastLine = kNoLine;  ///< line of the last reference

    /** Slow path: L1 missed and installed `addr`, evicting `l1Victim`. */
    HitLevel missBelow(Addr addr, const Eviction& l1Victim);
    void writebackInto(std::size_t level, Addr lineAddr);
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_HIERARCHY_HH
