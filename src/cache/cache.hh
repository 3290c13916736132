/**
 * @file
 * Set-associative cache with true-LRU replacement and write-back
 * dirty tracking — one level of the CMP$im-style hierarchy.
 *
 * Each set is a recency-ordered array of `ways` u64 words, one per
 * line, most recently used first.  A word is the line's base byte
 * address with the valid and dirty flags in its low two bits (lines
 * are at least 4 bytes, so those bits are always zero in the
 * address); 0 is an empty slot.  Only flush() ever invalidates a
 * line, so the valid lines of a set always form a prefix and a walk
 * can stop at the first empty slot.
 *
 * True LRU is then just move-to-front, and one walk does a whole
 * access: it scans from the front, shifting each word it passes down
 * by one, until it meets the line (a hit: the line lands at the front
 * with the words above it shifted, exactly a move-to-front), an empty
 * slot (a miss into free space) or the end of the set (a miss that
 * displaces the LRU word).  A miss leaves the new line at the front.
 * The set contents after every operation are exactly those of the
 * classic "first free way, else the oldest timestamp" policy, so
 * every hit level, count and eviction matches the timestamped oracle
 * kept in tests/oracle.
 */

#ifndef XBSP_CACHE_CACHE_HH
#define XBSP_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "util/types.hh"

namespace xbsp::cache
{

/** Geometry and timing of one cache level. */
struct LevelConfig
{
    std::string name = "L1D";
    u64 capacityBytes = 32 * 1024;
    u32 associativity = 2;
    u32 lineSize = 64;
    Cycles hitLatency = 3;
};

/** A line a miss displaced from its set, if any. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/** Outcome of one demand access. */
struct AccessResult
{
    bool hit = false;
    Eviction evicted;  ///< the displaced line (misses only)
};

/**
 * One set-associative, true-LRU, write-back cache level.  Addresses
 * are full byte addresses; the cache derives line/set indices itself.
 */
class SetAssociativeCache
{
  public:
    explicit SetAssociativeCache(const LevelConfig& config);

    /**
     * Demand access (allocate-on-miss), in one walk of the set.  A
     * hit moves the line to the front and, for writes, marks it
     * dirty.  A miss counts as one and installs the line at the
     * front (dirty for writes), displacing the LRU line if the set
     * is full.
     */
    AccessResult
    accessOrFill(Addr addr, bool isWrite)
    {
        ++accessCount;
        AccessResult result;
        const u64 displaced = walk(addr, isWrite ? kDirty : 0);
        result.hit = displaced == kHit;
        if (!result.hit) {
            ++missCount;
            result.evicted = evictionOf(displaced);
        }
        return result;
    }

    /**
     * A dirty line written back from the level above: a resident
     * line is touched (moved to the front, counted as one access)
     * and dirtied; otherwise it is installed dirty without counting
     * an access, displacing the LRU line if the set is full.
     * @return the displaced line (valid=false on a hit or free slot).
     */
    Eviction
    absorbWriteback(Addr lineAddr)
    {
        const u64 displaced = walk(lineAddr, kDirty);
        if (displaced == kHit) {
            ++accessCount;
            return {};
        }
        return evictionOf(displaced);
    }

    /**
     * `n` more hits on the line at the front of `addr`'s set, which
     * the caller knows is `addr`'s line; dirties it when `isWrite`.
     * No walk: the line is already most recently used.
     */
    void
    hitFront(Addr addr, u64 n, bool isWrite)
    {
        accessCount += n;
        if (isWrite) {
            u64& front = lines[setBase(addr)];
            if ((front & kDirty) == 0)
                front |= kDirty;
        }
    }

    /** Invalidate everything (cold-start a sampling region). */
    void flush();

    /** True if the line containing `addr` is present (no LRU touch). */
    bool
    probe(Addr addr) const
    {
        const u64* set = &lines[setBase(addr)];
        const u64 key = (addr & lineMask) | kValid | kDirty;
        for (u32 d = 0; d < ways && set[d] != 0; ++d) {
            if ((set[d] | kDirty) == key)
                return true;
        }
        return false;
    }

    const LevelConfig& config() const { return cfg; }
    u64 accesses() const { return accessCount; }
    u64 misses() const { return missCount; }
    u64 writebacksOut() const { return writebackCount; }
    /** Set walks done (demand accesses and absorbed writebacks). */
    u64 walks() const { return walkCount; }
    double missRate() const;
    void resetStats();

  private:
    static constexpr u64 kValid = 1;
    static constexpr u64 kDirty = 2;
    /** walk()'s result on a hit; no line word is ever this value. */
    static constexpr u64 kHit = kDirty;

    /** Index in `lines` of the first slot of `addr`'s set. */
    std::size_t
    setBase(Addr addr) const
    {
        return ((addr >> setShift) & setMask) * ways;
    }

    /**
     * The one set walk.  On a hit the line moves to the front with
     * `flags` OR-ed in, and the result is kHit.  On a miss the line
     * is installed at the front with `flags`, and the result is the
     * word the set lost: the LRU line, or 0 when a slot was free.
     * A word is stored only when its value changes, so a depth-0
     * hit that adds no flag writes nothing.
     */
    u64
    walk(Addr addr, u64 flags)
    {
        ++walkCount;
        u64* set = &lines[setBase(addr)];
        const u64 key = (addr & lineMask) | kValid | kDirty;
        u64 carry = set[0];
        if ((carry | kDirty) == key) {
            if ((carry & flags) != flags)
                set[0] = carry | flags;
            return kHit;
        }
        // Shift each passed word down by one; the front slot is
        // written last, with the hit line or the installed one.
        u64 front = (key & ~kDirty) | flags;
        for (u32 d = 1; carry != 0 && d < ways; ++d) {
            const u64 line = set[d];
            set[d] = carry;
            if ((line | kDirty) == key) {
                front = line | flags;
                carry = kHit;
                break;
            }
            carry = line;
        }
        set[0] = front;
        return carry;
    }

    /** The Eviction a miss's displaced word describes. */
    Eviction
    evictionOf(u64 displaced)
    {
        Eviction ev;
        if (displaced != 0) {
            ev.valid = true;
            ev.dirty = (displaced & kDirty) != 0;
            ev.lineAddr = displaced & lineMask;
            if (ev.dirty)
                ++writebackCount;
        }
        return ev;
    }

    LevelConfig cfg;
    u32 ways = 0;       ///< cfg.associativity, hot copy
    u32 setShift = 0;   ///< log2(lineSize)
    u64 setMask = 0;    ///< numSets - 1
    u64 lineMask = 0;   ///< ~(lineSize - 1)
    /** numSets * ways line words, each set ordered MRU first. */
    std::vector<u64> lines;
    u64 accessCount = 0;
    u64 missCount = 0;
    u64 writebackCount = 0;
    u64 walkCount = 0;
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_CACHE_HH
