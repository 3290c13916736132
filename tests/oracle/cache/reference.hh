/**
 * @file
 * Reference memory-system model: the cache and hierarchy exactly as
 * they were before the engine fast path — array-of-structs lines,
 * full set walks with no MRU hint, per-reference level loop, probe()-
 * then-lookup() writebacks and a switch for latencies.
 *
 * This is an independent twin of SetAssociativeCache/Hierarchy: it
 * shares no state or code with the optimized classes, so it pins down
 * the semantics the fast path must reproduce bit for bit (see
 * test_hierarchy).  Keep it boring; never optimize it.
 */

#ifndef XBSP_CACHE_REFERENCE_HH
#define XBSP_CACHE_REFERENCE_HH

#include <array>
#include <vector>

#include "cache/hierarchy.hh"
#include "util/types.hh"

namespace xbsp::cache
{

/** One cache level of the reference model (pre-fast-path verbatim). */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const LevelConfig& config);

    /** Full set walk; on a hit bump LRU and (for writes) dirty. */
    bool lookup(Addr addr, bool isWrite);

    /** Allocate-on-miss install, evicting the LRU way if needed. */
    Eviction fill(Addr addr, bool dirty);

    /** Presence check without any state change. */
    bool probe(Addr addr) const;

    void flush();

    const LevelConfig& config() const { return cfg; }
    u64 accesses() const { return accessCount; }
    u64 misses() const { return missCount; }
    u64 writebacksOut() const { return writebackCount; }
    void resetStats();

  private:
    struct Line
    {
        Addr tag = 0;
        u64 lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    LevelConfig cfg;
    u32 numSets = 0;
    u32 setShift = 0;
    u64 setMask = 0;
    std::vector<Line> lines;
    u64 tick = 0;
    u64 accessCount = 0;
    u64 missCount = 0;
    u64 writebackCount = 0;

    Line* findLine(Addr addr);
    const Line* findLine(Addr addr) const;
    Line* victimLine(Addr addr);
};

/**
 * The reference three-level hierarchy: one out-of-line lookup per
 * level per reference, fills on the way back, probe()-then-lookup()
 * writeback handling, latencies via a switch.  Must agree with
 * Hierarchy on every observable — hit levels, latencies, statistics
 * and final contents — for any access sequence.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(
        const HierarchyConfig& config = HierarchyConfig::paperTable1());

    /** Service one reference; returns the level that hit. */
    HitLevel access(Addr addr, bool isWrite);

    /** Total latency of a reference serviced at `level`. */
    Cycles latency(HitLevel level) const;

    void flushAll();
    void resetStats();

    const ReferenceCache& l1() const { return levels[0]; }
    const ReferenceCache& l2() const { return levels[1]; }
    const ReferenceCache& l3() const { return levels[2]; }
    const HierarchyConfig& config() const { return cfg; }

    u64 servicedAt(HitLevel level) const;
    u64 dramWritebacks() const { return dramWbCount; }
    u64 totalAccesses() const;

  private:
    HierarchyConfig cfg;
    std::array<ReferenceCache, 3> levels;
    std::array<u64, 4> serviced{};
    u64 dramWbCount = 0;

    void writebackInto(std::size_t level, Addr lineAddr);
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_REFERENCE_HH
