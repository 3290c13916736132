/**
 * @file
 * Unit tests for the three-level cache hierarchy and the in-order
 * core timing model.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/reference.hh"
#include "compile/compiler.hh"
#include "core/mappable.hh"
#include "core/vli.hh"
#include "cpu/decoupled.hh"
#include "cpu/inorder.hh"
#include "exec/engine.hh"
#include "profile/profile.hh"
#include "sim/detailed.hh"
#include "sim/snapshots.hh"
#include "workloads/workloads.hh"

using namespace xbsp;
using cache::Hierarchy;
using cache::HierarchyConfig;
using cache::HitLevel;

TEST(Hierarchy, FirstAccessGoesToMemoryThenHitsL1)
{
    Hierarchy hierarchy;
    EXPECT_EQ(hierarchy.access(0x4000, false), HitLevel::Memory);
    EXPECT_EQ(hierarchy.access(0x4000, false), HitLevel::L1);
    EXPECT_EQ(hierarchy.access(0x4020, false), HitLevel::L1)
        << "same 64B line";
}

TEST(Hierarchy, EvictedFromL1HitsInL2)
{
    Hierarchy hierarchy;
    // L1 is 32KB 2-way with 256 sets; lines mapping to set 0 are
    // 16KB apart.  Three of them overflow the 2 ways.
    const Addr a = 0, b = 16384, c = 32768;
    hierarchy.access(a, false);
    hierarchy.access(b, false);
    hierarchy.access(c, false); // evicts a from L1
    EXPECT_EQ(hierarchy.access(a, false), HitLevel::L2);
}

TEST(Hierarchy, LatencyMatchesTable1)
{
    Hierarchy hierarchy;
    EXPECT_EQ(hierarchy.latency(HitLevel::L1), 3u);
    EXPECT_EQ(hierarchy.latency(HitLevel::L2), 14u);
    EXPECT_EQ(hierarchy.latency(HitLevel::L3), 35u);
    EXPECT_EQ(hierarchy.latency(HitLevel::Memory), 250u);
}

TEST(Hierarchy, ServicedCountsSumToAccesses)
{
    Hierarchy hierarchy;
    Rng rng(3);
    for (int i = 0; i < 20000; ++i)
        hierarchy.access(rng.nextBelow(1u << 21), i % 3 == 0);
    EXPECT_EQ(hierarchy.totalAccesses(), 20000u);
    EXPECT_EQ(hierarchy.servicedAt(HitLevel::L1) +
                  hierarchy.servicedAt(HitLevel::L2) +
                  hierarchy.servicedAt(HitLevel::L3) +
                  hierarchy.servicedAt(HitLevel::Memory),
              20000u);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackNotLost)
{
    Hierarchy hierarchy;
    const Addr a = 0, b = 16384, c = 32768;
    hierarchy.access(a, true); // dirty in L1
    hierarchy.access(b, false);
    hierarchy.access(c, false); // a evicted from L1, written into L2
    // a must still be close (L2), not re-fetched from DRAM.
    EXPECT_EQ(hierarchy.access(a, false), HitLevel::L2);
}

TEST(Hierarchy, WorkingSetsLandAtTheRightLevel)
{
    auto avgLatency = [](u64 footprint) {
        Hierarchy hierarchy;
        Rng rng(7);
        const u64 lines = footprint / 64;
        for (u64 i = 0; i < lines * 4; ++i)
            hierarchy.access((i % lines) * 64, false); // warm
        Cycles total = 0;
        const int n = 30000;
        for (int i = 0; i < n; ++i) {
            total += hierarchy.latency(
                hierarchy.access(rng.nextBelow(lines) * 64, false));
        }
        return static_cast<double>(total) / n;
    };
    const double l1 = avgLatency(16 * 1024);
    const double l2 = avgLatency(256 * 1024);
    const double dram = avgLatency(64ull << 20);
    EXPECT_NEAR(l1, 3.0, 0.5);
    EXPECT_GT(l2, 8.0);
    EXPECT_LT(l2, 20.0);
    EXPECT_GT(dram, 150.0);
}

TEST(Hierarchy, FlushAllColdRestart)
{
    Hierarchy hierarchy;
    hierarchy.access(0x123400, false);
    EXPECT_EQ(hierarchy.access(0x123400, false), HitLevel::L1);
    hierarchy.flushAll();
    EXPECT_EQ(hierarchy.access(0x123400, false), HitLevel::Memory);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    Hierarchy hierarchy;
    hierarchy.access(0x9000, false);
    hierarchy.resetStats();
    EXPECT_EQ(hierarchy.totalAccesses(), 0u);
    EXPECT_EQ(hierarchy.access(0x9000, false), HitLevel::L1);
}

TEST(Hierarchy, MismatchedLineSizesFatal)
{
    HierarchyConfig config;
    config.l2.lineSize = 128;
    EXPECT_EXIT(Hierarchy{config}, ::testing::ExitedWithCode(1),
                "uniform line size");
}

namespace
{

/** One hierarchy geometry the twin models are compared under. */
struct TwinGeometry
{
    std::string name;
    HierarchyConfig config;
};

/**
 * Table 1, every power-of-two associativity from direct-mapped to
 * 16-way (on shrunken levels, so evictions cascade often), 128 B
 * lines, and odd 3/6/5-way capacities that are not powers of two.
 */
std::vector<TwinGeometry>
twinGeometries()
{
    std::vector<TwinGeometry> out{{"table1", HierarchyConfig{}}};
    for (const u32 ways : {1u, 2u, 4u, 8u, 16u}) {
        HierarchyConfig c;
        c.l1 = {"L1D", 8 * 1024, ways, 64, 3};
        c.l2 = {"L2D", 64 * 1024, ways, 64, 14};
        c.l3 = {"L3D", 256 * 1024, ways, 64, 35};
        out.push_back({std::to_string(ways) + "-way", c});
    }
    HierarchyConfig wide;
    wide.l1.lineSize = wide.l2.lineSize = wide.l3.lineSize = 128;
    out.push_back({"128B-line", wide});
    HierarchyConfig odd;
    odd.l1 = {"L1D", 24 * 1024, 3, 64, 3};
    odd.l2 = {"L2D", 96 * 1024, 6, 64, 14};
    odd.l3 = {"L3D", 320 * 1024, 5, 64, 35};
    out.push_back({"odd-capacity", odd});
    return out;
}

/** Every per-level and per-hierarchy counter of the two models. */
void
expectSameCounters(const Hierarchy& fast,
                   const cache::ReferenceHierarchy& reference)
{
    const cache::SetAssociativeCache* f[] = {&fast.l1(), &fast.l2(),
                                             &fast.l3()};
    const cache::ReferenceCache* r[] = {
        &reference.l1(), &reference.l2(), &reference.l3()};
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(f[i]->accesses(), r[i]->accesses()) << "level " << i;
        EXPECT_EQ(f[i]->misses(), r[i]->misses()) << "level " << i;
        EXPECT_EQ(f[i]->writebacksOut(), r[i]->writebacksOut())
            << "level " << i;
    }
    for (const HitLevel level :
         {HitLevel::L1, HitLevel::L2, HitLevel::L3,
          HitLevel::Memory}) {
        EXPECT_EQ(fast.servicedAt(level), reference.servicedAt(level))
            << cache::hitLevelName(level);
    }
    EXPECT_EQ(fast.dramWritebacks(), reference.dramWritebacks());
}

/** Same lines resident at all three levels, over [from, to). */
void
expectSameContentsIn(const Hierarchy& fast,
                     const cache::ReferenceHierarchy& reference,
                     Addr from, Addr to)
{
    const u32 line = fast.config().l1.lineSize;
    for (Addr addr = from; addr < to; addr += line) {
        ASSERT_EQ(fast.l1().probe(addr), reference.l1().probe(addr))
            << "L1 line " << addr;
        ASSERT_EQ(fast.l2().probe(addr), reference.l2().probe(addr))
            << "L2 line " << addr;
        ASSERT_EQ(fast.l3().probe(addr), reference.l3().probe(addr))
            << "L3 line " << addr;
    }
}

} // namespace

TEST(Hierarchy, ReferenceModelMatchesFastPathExactly)
{
    // Drive twin hierarchies with the same pseudo-random stream — one
    // through the recency-ordered sets, one through the standalone
    // timestamped reference model — and require identical hit levels,
    // latencies, statistics and final contents at every level, for
    // every geometry, a mixed and a write-heavy stream, and with
    // resetStats()/flushAll() landing mid-stream.
    constexpr int kRefs = 100000;
    for (const TwinGeometry& geometry : twinGeometries()) {
        for (const u32 writeEighths : {4u, 7u}) {
            SCOPED_TRACE(geometry.name + " writes=" +
                         std::to_string(writeEighths) + "/8");
            Hierarchy fast(geometry.config);
            cache::ReferenceHierarchy reference(geometry.config);
            // 1.5x the L3 so DRAM participates; half the stream
            // stays inside twice the L1 so hits reach every depth.
            const Addr footprint =
                geometry.config.l3.capacityBytes * 3 / 2;
            const Addr hot = geometry.config.l1.capacityBytes * 2;
            u64 state = 0x9E3779B97F4A7C15ull;
            Cycles fastCycles = 0, refCycles = 0;
            for (int i = 0; i < kRefs; ++i) {
                if (i == kRefs / 3) {
                    fast.resetStats();
                    reference.resetStats();
                }
                if (i == 2 * kRefs / 3) {
                    fast.flushAll();
                    reference.flushAll();
                }
                state = state * 6364136223846793005ull +
                        1442695040888963407ull;
                const Addr addr = (state >> 17) %
                                  (((state >> 5) & 1) ? hot : footprint);
                const bool isWrite = ((state >> 8) & 7) < writeEighths;
                const HitLevel f = fast.access(addr, isWrite);
                const HitLevel r = reference.access(addr, isWrite);
                ASSERT_EQ(f, r) << "ref " << i;
                fastCycles += fast.latency(f);
                refCycles += reference.latency(r);
            }
            EXPECT_EQ(fastCycles, refCycles);
            EXPECT_EQ(fast.totalAccesses(), kRefs - kRefs / 3);
            expectSameCounters(fast, reference);
            expectSameContentsIn(fast, reference, 0, footprint);
        }
    }
}

TEST(Hierarchy, SameLineStreamsMatchReferenceModel)
{
    // Short 8-byte walks with alternating loads and stores from
    // random starts: most references go to the line the previous one
    // left at the front of its L1 set and are serviced without a set
    // walk.  Hit levels, counters and contents must still be the
    // oracle's, and the elided references must be counted.
    constexpr int kWalks = 20000;
    for (const TwinGeometry& geometry : twinGeometries()) {
        SCOPED_TRACE(geometry.name);
        Hierarchy fast(geometry.config);
        cache::ReferenceHierarchy reference(geometry.config);
        const Addr footprint = geometry.config.l3.capacityBytes * 3 / 2;
        u64 state = 0x2545F4914F6CDD1Dull;
        u64 refs = 0;
        for (int w = 0; w < kWalks; ++w) {
            if (w == kWalks / 2) {
                fast.flushAll();
                reference.flushAll();
            }
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            const Addr start = ((state >> 17) % footprint) & ~Addr(7);
            const u32 length = 1 + static_cast<u32>((state >> 7) % 40);
            for (u32 k = 0; k < length; ++k, ++refs) {
                const Addr addr = start + 8 * k;
                const bool isWrite = (k & 1) != 0;
                ASSERT_EQ(fast.access(addr, isWrite),
                          reference.access(addr, isWrite))
                    << "walk " << w << " ref " << k;
            }
        }
        EXPECT_EQ(fast.totalAccesses(), refs);
        EXPECT_GT(fast.elidedRefs(), refs / 2);
        EXPECT_EQ(fast.elidedRefs() + fast.l1().walks(), refs);
        expectSameCounters(fast, reference);
        expectSameContentsIn(fast, reference, 0,
                             footprint + 8 * 40);
    }
}

TEST(Hierarchy, StackRunsMatchReferenceByReference)
{
    // accessStackRun(base, cursor, n) must be exactly n accesses of
    // mem::stackRef(base, cursor + i): for every twin geometry plus
    // 32 B lines (the 512 B window spans 16 lines, so run lengths
    // must come from the line size), every n in 0..150, cursors that
    // wrap the window (63 -> 0) and the u32 counter, interleaved
    // with random traffic that evicts stack lines.
    std::vector<TwinGeometry> geometries = twinGeometries();
    HierarchyConfig narrow;
    narrow.l1 = {"L1D", 8 * 1024, 2, 32, 3};
    narrow.l2 = {"L2D", 64 * 1024, 4, 32, 14};
    narrow.l3 = {"L3D", 256 * 1024, 8, 32, 35};
    geometries.push_back({"32B-line", narrow});
    for (const TwinGeometry& geometry : geometries) {
        SCOPED_TRACE(geometry.name);
        Hierarchy fast(geometry.config);
        cache::ReferenceHierarchy reference(geometry.config);
        const Addr footprint = geometry.config.l2.capacityBytes;
        u64 state = 0x9E3779B97F4A7C15ull;
        Cycles fastCycles = 0, refCycles = 0;
        u64 refs = 0;
        for (u32 n = 0; n <= 150; ++n) {
            const u32 proc = n % 3;
            const Addr base = mem::stackBase(proc);
            const u32 cursor =
                n % 5 == 4 ? 0xFFFFFFC0u + 60 + n % 8 : 56 + n % 16;
            fastCycles += fast.accessStackRun(base, cursor, n);
            for (u32 i = 0; i < n; ++i) {
                const mem::MemRef ref = mem::stackRef(base, cursor + i);
                refCycles += reference.latency(
                    reference.access(ref.addr, ref.isWrite));
            }
            refs += n;
            // Random traffic between the runs, through both models.
            for (int k = 0; k < 200; ++k, ++refs) {
                state = state * 6364136223846793005ull +
                        1442695040888963407ull;
                const Addr addr = (state >> 17) % footprint;
                const bool isWrite = ((state >> 9) & 3) == 0;
                fastCycles += fast.latency(fast.access(addr, isWrite));
                refCycles += reference.latency(
                    reference.access(addr, isWrite));
            }
            ASSERT_EQ(fastCycles, refCycles) << "n " << n;
        }
        EXPECT_EQ(fast.totalAccesses(), refs);
        expectSameCounters(fast, reference);
        expectSameContentsIn(fast, reference, 0, footprint);
        for (u32 proc = 0; proc < 3; ++proc) {
            const Addr base = mem::stackBase(proc);
            expectSameContentsIn(
                fast, reference, base,
                base + mem::stackSlots * mem::stackSlotBytes);
        }
    }
}

TEST(Hierarchy, StackRunWalksOncePerLine)
{
    // A full window pass from a line-aligned cursor walks the L1 once
    // per line it touches: 8 lines of 64 B, 16 of 32 B.
    for (const u32 lineSize : {64u, 32u}) {
        HierarchyConfig config;
        config.l1.lineSize = config.l2.lineSize = config.l3.lineSize =
            lineSize;
        Hierarchy hierarchy(config);
        hierarchy.accessStackRun(mem::stackBase(0), 0, 64);
        const u64 lines = 512 / lineSize;
        EXPECT_EQ(hierarchy.l1().walks(), lines) << lineSize;
        EXPECT_EQ(hierarchy.elidedRefs(), 64 - lines) << lineSize;
        EXPECT_EQ(hierarchy.servicedAt(HitLevel::Memory), lines);
    }
}

namespace
{

/**
 * Feeds every memory reference of a run to both models: the fast one
 * through the batched walk the timing cores use, the reference one
 * reference by reference.
 */
struct TwinObserver final : exec::Observer
{
    Hierarchy fast;
    cache::ReferenceHierarchy reference;
    Cycles fastCycles = 0;
    Cycles refCycles = 0;

    exec::ObserverHooks hooks() const override
    {
        return {false, true, false};
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs) override
    {
        fastCycles += fast.accessBatch(refs);
        for (const mem::MemRef& ref : refs) {
            refCycles +=
                reference.latency(reference.access(ref.addr, ref.isWrite));
        }
    }
};

} // namespace

TEST(Hierarchy, ReferenceModelMatchesOnSuiteTraffic)
{
    // The detailed reference stream of two real suite programs, all
    // four binaries each, through both models.
    for (const char* name : {"mcf", "swim"}) {
        const ir::Program program = workloads::makeWorkload(name, 0.3);
        for (const bin::Target target :
             {bin::target32u, bin::target32o, bin::target64u,
              bin::target64o}) {
            SCOPED_TRACE(std::string(name) + "/" +
                         bin::targetName(target));
            const bin::Binary binary =
                compile::compileProgram(program, target);
            TwinObserver twins;
            exec::Engine engine(binary, 0x5EEDull);
            engine.addObserver(&twins, twins.hooks());
            engine.run();
            EXPECT_GT(twins.fast.totalAccesses(), 0u);
            EXPECT_EQ(twins.fastCycles, twins.refCycles);
            expectSameCounters(twins.fast, twins.reference);
        }
    }
}

namespace
{

/**
 * A core behind a hierarchy, walked reference by reference: each
 * reference is one Hierarchy::access and one onStall(latency, 1).
 */
template <typename CoreT>
struct PerRefTimer : exec::Observer
{
    Hierarchy& hierarchy;
    CoreT& core;

    PerRefTimer(Hierarchy& h, CoreT& c) : hierarchy(h), core(c) {}

    exec::ObserverHooks
    hooks() const override
    {
        return {true, true, CoreT::usesMarkers};
    }

    void
    onBlock(u32 blockId, u32 instrs) override
    {
        core.onBlock(blockId, instrs);
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs) override
    {
        for (const mem::MemRef& ref : refs)
            core.onStall(
                hierarchy.latency(hierarchy.access(ref.addr, ref.isWrite)),
                1);
    }

    void
    onMarker(u32 markerId) override
    {
        if constexpr (CoreT::usesMarkers)
            core.onMarker(markerId);
        else
            (void)markerId;
    }
};

void
expectSameIntervals(const std::vector<sim::IntervalStats>& a,
                    const std::vector<sim::IntervalStats>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].instrs, b[i].instrs) << "interval " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "interval " << i;
    }
}

/**
 * Walk `binary` reference by reference through `core` with both
 * snapshot collectors attached, and require runDetailed's exact
 * totals, memory statistics and FLI/VLI interval stats.
 */
template <typename CoreT>
void
expectPerRefWalkMatches(const bin::Binary& binary,
                        const sim::DetailedRunRequest& request,
                        const sim::DetailedRunResult& runs, CoreT& core)
{
    Hierarchy hierarchy(request.memory);
    PerRefTimer<CoreT> timer(hierarchy, core);
    exec::Engine engine(binary, request.seed);
    sim::FliSnapshotter fli(engine, core, request.fliBoundaries);
    sim::VliSnapshotter vliSnap(engine, core, *request.mappable,
                                request.binaryIdx, *request.partition);
    engine.addObserver(&timer, timer.hooks());
    engine.addObserver(&fli, fli.hooks());
    engine.addObserver(&vliSnap, vliSnap.hooks());
    engine.run();

    EXPECT_EQ(runs.totals, core.totals());
    EXPECT_EQ(runs.memory.refs, hierarchy.totalAccesses());
    EXPECT_EQ(runs.memory.l1Hits, hierarchy.servicedAt(HitLevel::L1));
    EXPECT_EQ(runs.memory.l2Hits, hierarchy.servicedAt(HitLevel::L2));
    EXPECT_EQ(runs.memory.l3Hits, hierarchy.servicedAt(HitLevel::L3));
    EXPECT_EQ(runs.memory.dramAccesses,
              hierarchy.servicedAt(HitLevel::Memory));
    EXPECT_EQ(runs.memory.dramWritebacks, hierarchy.dramWritebacks());
    expectSameIntervals(runs.fliIntervals, fli.intervals());
    expectSameIntervals(runs.vliIntervals, vliSnap.intervals());
    EXPECT_FALSE(runs.vliIntervals.empty());
}

} // namespace

TEST(Hierarchy, StackRunDetailedRunMatchesMaterializedRun)
{
    // runDetailed services each block's pattern references as one
    // batch and its stack spills as one run, and hands the core the
    // summed stalls.  A reference-by-reference walk (one access and
    // one onStall per reference) must end both timing cores with the
    // same totals, memory statistics and FLI/VLI interval stats.
    constexpr InstrCount kInterval = 100000;
    for (const char* name : {"mcf", "swim"}) {
        const ir::Program program = workloads::makeWorkload(name, 0.3);
        std::vector<bin::Binary> binaries;
        std::vector<prof::ProfilePass> passes;
        for (const bin::Target target :
             {bin::target32u, bin::target32o, bin::target64u,
              bin::target64o}) {
            binaries.push_back(compile::compileProgram(program, target));
            passes.push_back(
                prof::runProfilePass(binaries.back(), kInterval));
        }
        std::vector<const bin::Binary*> bins;
        std::vector<const prof::MarkerProfile*> profs;
        for (std::size_t i = 0; i < binaries.size(); ++i) {
            bins.push_back(&binaries[i]);
            profs.push_back(&passes[i].markers);
        }
        const core::MappableSet mappable =
            core::findMappablePoints(bins, profs);
        const core::VliBuild vli =
            core::buildVliPartition(binaries[0], mappable, 0, kInterval);

        for (std::size_t b = 0; b < binaries.size(); ++b) {
            for (const cpu::CoreKind kind :
                 {cpu::CoreKind::InOrder, cpu::CoreKind::Decoupled}) {
                SCOPED_TRACE(std::string(name) + " binary " +
                             std::to_string(b) + " " +
                             std::string(cpu::coreKindName(kind)));
                sim::DetailedRunRequest request;
                request.fliBoundaries = passes[b].fliBoundaries;
                request.mappable = &mappable;
                request.binaryIdx = b;
                request.partition = &vli.partition;
                request.core = cpu::coreConfigFor(kind);
                const sim::DetailedRunResult runs =
                    sim::runDetailed(binaries[b], request);
                if (kind == cpu::CoreKind::InOrder) {
                    cpu::InOrderCore core;
                    expectPerRefWalkMatches(binaries[b], request, runs,
                                            core);
                } else {
                    cpu::DecoupledCore core(request.core);
                    expectPerRefWalkMatches(binaries[b], request, runs,
                                            core);
                }
            }
        }
    }
}

TEST(InOrderCore, CyclesAreInstrsPlusMemoryLatency)
{
    cache::Hierarchy hierarchy;
    cpu::InOrderCore core;
    core.onBlock(0, 100);
    EXPECT_EQ(core.instructions(), 100u);
    EXPECT_EQ(core.cycles(), 100u);

    const auto serve = [&](Addr addr) {
        core.onStall(hierarchy.latency(hierarchy.access(addr, false)), 1);
    };
    serve(0x8000); // cold: DRAM
    EXPECT_EQ(core.cycles(), 100u + 250u);
    serve(0x8000); // L1 hit
    EXPECT_EQ(core.cycles(), 100u + 250u + 3u);
    EXPECT_EQ(core.totals().memRefs, 2u);
}

TEST(InOrderCore, CpiMath)
{
    cpu::InOrderCore core;
    EXPECT_DOUBLE_EQ(core.totals().cpi(), 0.0);
    core.onBlock(0, 10);
    core.onStall(250, 1); // one DRAM reference
    EXPECT_DOUBLE_EQ(core.totals().cpi(), 26.0);
}
