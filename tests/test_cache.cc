/**
 * @file
 * Unit tests for the set-associative LRU cache level.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"

using namespace xbsp;
using cache::LevelConfig;
using cache::SetAssociativeCache;

namespace
{

/** 2-way, 4-set toy cache: 8 lines of 64B. */
LevelConfig
toyConfig()
{
    return LevelConfig{"toy", 8 * 64, 2, 64, 3};
}

/** Address of set `set`, distinct tag `tag`. */
Addr
addrFor(u64 set, u64 tag)
{
    return (tag * 4 + set) * 64; // 4 sets
}

} // namespace

TEST(Cache, MissThenHit)
{
    SetAssociativeCache cache(toyConfig());
    EXPECT_FALSE(cache.accessOrFill(0x1000, false).hit);
    EXPECT_TRUE(cache.accessOrFill(0x1000, false).hit);
    // Same line, different byte offset.
    EXPECT_TRUE(cache.accessOrFill(0x103F, false).hit);
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.walks(), 3u);
}

TEST(Cache, LruEviction)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), c = addrFor(0, 3);
    EXPECT_FALSE(cache.accessOrFill(a, false).evicted.valid);
    EXPECT_FALSE(cache.accessOrFill(b, false).evicted.valid);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(cache.accessOrFill(a, false).hit);
    const cache::AccessResult r = cache.accessOrFill(c, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted.valid);
    EXPECT_FALSE(r.evicted.dirty);
    EXPECT_EQ(r.evicted.lineAddr, b);
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, DirtyEvictionReported)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(1, 1), b = addrFor(1, 2), c = addrFor(1, 3);
    cache.accessOrFill(a, false);
    EXPECT_TRUE(cache.accessOrFill(a, true).hit); // make dirty
    cache.accessOrFill(b, false);
    // Evicts a (LRU), which is dirty.
    const cache::Eviction ev = cache.accessOrFill(c, false).evicted;
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, a);
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, WriteMissInstallsDirtyLine)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(2, 1);
    EXPECT_FALSE(cache.accessOrFill(a, true).hit);
    // Evict it with two clean misses; the dirty line writes back.
    cache.accessOrFill(addrFor(2, 2), false);
    cache.accessOrFill(addrFor(2, 3), false);
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), c = addrFor(0, 3);
    cache.accessOrFill(a, false);
    cache.accessOrFill(b, false);
    // probe(a) must NOT refresh a; a stays LRU and gets evicted.
    EXPECT_TRUE(cache.probe(a));
    EXPECT_EQ(cache.accessOrFill(c, false).evicted.lineAddr, a);
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssociativeCache cache(toyConfig());
    cache.accessOrFill(0x0, true);
    cache.accessOrFill(0x40, false);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x40));
    // Flush drops dirty data without writeback accounting.
    cache.accessOrFill(addrFor(0, 7), false);
    EXPECT_EQ(cache.writebacksOut(), 0u);
}

TEST(Cache, MissRateAndResetStats)
{
    SetAssociativeCache cache(toyConfig());
    cache.accessOrFill(0x0, false);
    cache.accessOrFill(0x0, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
    cache.resetStats();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.walks(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.0);
    EXPECT_TRUE(cache.probe(0x0)) << "contents survive resetStats";
}

TEST(Cache, AssociativityIsolation)
{
    // Filling every set's both ways keeps all lines resident.
    SetAssociativeCache cache(toyConfig());
    for (u64 set = 0; set < 4; ++set) {
        cache.accessOrFill(addrFor(set, 1), false);
        cache.accessOrFill(addrFor(set, 2), false);
    }
    for (u64 set = 0; set < 4; ++set) {
        EXPECT_TRUE(cache.probe(addrFor(set, 1)));
        EXPECT_TRUE(cache.probe(addrFor(set, 2)));
    }
}

TEST(Cache, BadGeometryFatal)
{
    LevelConfig bad = toyConfig();
    bad.lineSize = 48;
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "power of two");
    // Power-of-two lines too short to keep the valid and dirty flags
    // in the low bits of the line address.
    for (const u32 tooShort : {1u, 2u}) {
        bad = toyConfig();
        bad.lineSize = tooShort;
        EXPECT_EXIT(SetAssociativeCache{bad},
                    ::testing::ExitedWithCode(1), "power of two >= 4");
    }
    bad = toyConfig();
    bad.associativity = 0;
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "associativity");
    bad = toyConfig();
    bad.capacityBytes = 3 * 64; // not divisible into 2-way sets
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "divisible");
}

TEST(Cache, AbsorbWritebackTouchesResidentLine)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1);
    cache.accessOrFill(a, false);
    const u64 before = cache.accesses();
    EXPECT_FALSE(cache.absorbWriteback(a).valid);
    // Counts one access (like the write lookup it stands for), no
    // miss, and the line is now dirty: evicting it writes back.
    EXPECT_EQ(cache.accesses(), before + 1);
    EXPECT_EQ(cache.misses(), 1u);
    cache.accessOrFill(addrFor(0, 2), false);
    cache.accessOrFill(addrFor(0, 3), false);
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, AbsorbWritebackInstallsAbsentLineDirty)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1), b = addrFor(0, 9);
    cache.accessOrFill(a, false);
    const u64 before = cache.accesses();
    EXPECT_FALSE(cache.absorbWriteback(b).valid) << "a free way";
    // An install is not a demand access.
    EXPECT_EQ(cache.accesses(), before);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_TRUE(cache.probe(b));
    // The set is full with b most recent: the next install evicts a
    // (clean), the one after that b (dirty).
    const cache::Eviction first = cache.absorbWriteback(addrFor(0, 3));
    EXPECT_EQ(first.lineAddr, a);
    EXPECT_FALSE(first.dirty);
    const cache::Eviction second =
        cache.accessOrFill(addrFor(0, 4), false).evicted;
    EXPECT_EQ(second.lineAddr, b);
    EXPECT_TRUE(second.dirty);
    EXPECT_EQ(cache.writebacksOut(), 1u);
    EXPECT_EQ(cache.walks(), 4u);
}

TEST(Cache, AbsorbWritebackRefreshesLru)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(3, 1), b = addrFor(3, 2), c = addrFor(3, 3);
    cache.accessOrFill(a, false);
    cache.accessOrFill(b, false);
    // Touch a so b becomes LRU, exactly like a hitting access would.
    cache.absorbWriteback(a);
    EXPECT_EQ(cache.accessOrFill(c, false).evicted.lineAddr, b);
}

TEST(Cache, HitFrontCountsWithoutWalking)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(1, 1);
    cache.accessOrFill(a, false);
    cache.hitFront(a + 8, 5, false);
    EXPECT_EQ(cache.accesses(), 6u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.walks(), 1u);
    // A read leaves the line clean, a write dirties it.
    cache.accessOrFill(addrFor(1, 2), false);
    EXPECT_FALSE(cache.accessOrFill(addrFor(1, 3), false).evicted.dirty);
    cache.hitFront(addrFor(1, 3), 1, true);
    cache.accessOrFill(addrFor(1, 4), false);
    EXPECT_TRUE(cache.accessOrFill(addrFor(1, 5), false).evicted.dirty);
}

TEST(Cache, HitAtDepthMovesToFrontAndKeepsEvictionOrder)
{
    // One 8-way set holding lines 1..8, line 1 least recently used.
    // A hit at depth d promotes exactly that line to most recently
    // used; the others keep their relative order, so eight further
    // fills evict them oldest first and the promoted line last.
    constexpr u32 kWays = 8;
    for (u32 depth = 0; depth < kWays; ++depth) {
        for (const bool write : {false, true}) {
            SetAssociativeCache cache(
                LevelConfig{"set", kWays * 64, kWays, 64, 1});
            for (u64 tag = 1; tag <= kWays; ++tag)
                cache.accessOrFill(tag * 64, false);
            const u64 hitTag = kWays - depth; // depth 0 = newest
            EXPECT_TRUE(cache.accessOrFill(hitTag * 64, write).hit);
            std::vector<Addr> expected;
            for (u64 tag = 1; tag <= kWays; ++tag) {
                if (tag != hitTag)
                    expected.push_back(tag * 64);
            }
            expected.push_back(hitTag * 64);
            for (u32 i = 0; i < kWays; ++i) {
                const cache::Eviction ev =
                    cache.accessOrFill((100 + i) * 64, false).evicted;
                ASSERT_TRUE(ev.valid);
                EXPECT_EQ(ev.lineAddr, expected[i])
                    << "depth " << depth << " eviction " << i;
                EXPECT_EQ(ev.dirty, write && i == kWays - 1);
            }
            EXPECT_EQ(cache.misses(), kWays * 2);
        }
    }
}

TEST(Cache, FourByteLinesKeepAddressAndFlagsApart)
{
    // The smallest legal line: the flags fill both free low bits.
    SetAssociativeCache cache(LevelConfig{"tiny", 2 * 4, 2, 4, 1});
    const Addr a = 0xFFFF'FFFF'FFFF'FFF4ull, b = 0x10, c = 0x24;
    cache.accessOrFill(a + 3, true);
    cache.accessOrFill(b, false);
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(a + 4));
    const cache::Eviction ev = cache.accessOrFill(c, false).evicted;
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, a);
}

TEST(Cache, PaperGeometriesConstruct)
{
    (void)SetAssociativeCache(LevelConfig{"L1D", 32768, 2, 64, 3});
    (void)SetAssociativeCache(LevelConfig{"L2D", 524288, 8, 64, 14});
    (void)SetAssociativeCache(LevelConfig{"L3D", 1048576, 16, 64, 35});
    SUCCEED();
}
