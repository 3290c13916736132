/**
 * @file
 * Unit and property tests for the execution engine: instruction
 * accounting, determinism, event-kind filtering and event ordering.
 */

#include <gtest/gtest.h>

#include "exec/engine.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

/** Counts the events of the kinds it wants (all, by default). */
struct CountingSink
{
    bool wantBlocks = true;
    bool wantMems = true;
    bool wantMarkers = true;
    u64 blocks = 0;
    InstrCount instrs = 0;
    u64 memRefs = 0;
    u64 markers = 0;
    bool ended = false;

    bool wantsBlocks() const { return wantBlocks; }
    bool wantsMems() const { return wantMems; }
    bool wantsMarkers() const { return wantMarkers; }

    void
    onBlock(u32, u32 n)
    {
        ++blocks;
        instrs += n;
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        memRefs += refs.size();
    }

    void onMarker(u32) { ++markers; }
    void onRunEnd() { ended = true; }
};

} // namespace

TEST(Engine, InstructionCountMatchesStaticComputation)
{
    const auto bins = test::compileFour(test::tinyProgram());
    for (const auto& binary : bins) {
        exec::Engine engine(binary);
        CountingSink sink;
        engine.runWith(sink);
        EXPECT_EQ(sink.instrs, engine.instructionsExecuted());
        EXPECT_EQ(engine.instructionsExecuted(),
                  bin::staticDynamicInstrCount(binary))
            << binary.displayName();
    }
}

TEST(Engine, SinkTotalsConsistent)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    CountingSink counts;
    engine.runWith(counts);
    EXPECT_TRUE(counts.ended);
    EXPECT_EQ(counts.instrs, engine.instructionsExecuted());
    // Memory references = sum over blocks of (memOps + stackOps) x
    // executions; cross-check against a manual walk.
    u64 expectedRefs = 0;
    {
        exec::Engine recount(binary);
        struct RefCounter : exec::SinkBase
        {
            const bin::Binary& bin;
            u64 refs = 0;
            explicit RefCounter(const bin::Binary& b) : bin(b) {}
            bool wantsBlocks() const { return true; }
            bool wantsMems() const { return false; }
            bool wantsMarkers() const { return false; }
            void
            onBlock(u32 id, u32)
            {
                refs += bin.blocks[id].memOps + bin.blocks[id].stackOps;
            }
        } counter(binary);
        recount.runWith(counter);
        expectedRefs = counter.refs;
    }
    EXPECT_EQ(counts.memRefs, expectedRefs);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target64o);
    std::vector<Addr> first;
    for (int run = 0; run < 2; ++run) {
        exec::Engine engine(binary, 1234);
        struct Recorder : exec::SinkBase
        {
            std::vector<Addr>* sink;
            bool wantsBlocks() const { return false; }
            bool wantsMems() const { return true; }
            bool wantsMarkers() const { return false; }
            void
            onMemRefs(std::span<const mem::MemRef> refs)
            {
                for (const mem::MemRef& ref : refs) {
                    if (sink->size() < 10000)
                        sink->push_back(ref.addr);
                }
            }
        } recorder;
        std::vector<Addr> addrs;
        recorder.sink = &addrs;
        engine.runWith(recorder);
        if (run == 0)
            first = addrs;
        else
            EXPECT_EQ(first, addrs);
    }
}

TEST(Engine, SeedChangesAddressStreamNotCounts)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32o);
    exec::Engine a(binary, 1), b(binary, 2);
    CountingSink ca, cb;
    a.runWith(ca);
    b.runWith(cb);
    EXPECT_EQ(ca.instrs, cb.instrs);
    EXPECT_EQ(ca.blocks, cb.blocks);
    EXPECT_EQ(ca.markers, cb.markers);
    EXPECT_EQ(ca.memRefs, cb.memRefs);
}

TEST(Engine, WantsFilterEventKinds)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    CountingSink everything;
    CountingSink onlyBlocks{.wantMems = false, .wantMarkers = false};
    CountingSink onlyMems{.wantBlocks = false, .wantMarkers = false};
    CountingSink onlyMarkers{.wantBlocks = false, .wantMems = false};
    for (CountingSink* sink :
         {&everything, &onlyBlocks, &onlyMems, &onlyMarkers}) {
        exec::Engine engine(binary);
        engine.runWith(*sink);
        EXPECT_TRUE(sink->ended);
        EXPECT_EQ(engine.instructionsExecuted(),
                  bin::staticDynamicInstrCount(binary));
    }
    EXPECT_GT(everything.blocks, 0u);
    EXPECT_GT(everything.memRefs, 0u);
    EXPECT_GT(everything.markers, 0u);
    EXPECT_EQ(onlyBlocks.blocks, everything.blocks);
    EXPECT_EQ(onlyBlocks.memRefs, 0u);
    EXPECT_EQ(onlyBlocks.markers, 0u);
    EXPECT_EQ(onlyMems.blocks, 0u);
    EXPECT_EQ(onlyMems.memRefs, everything.memRefs);
    EXPECT_EQ(onlyMems.markers, 0u);
    EXPECT_EQ(onlyMarkers.blocks, 0u);
    EXPECT_EQ(onlyMarkers.memRefs, 0u);
    EXPECT_EQ(onlyMarkers.markers, everything.markers);
}

TEST(Engine, MemRefsDispatchedBeforeBlockEvent)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    struct OrderChecker : exec::SinkBase
    {
        u64 refsSinceBlock = 0;
        const bin::Binary& bin;
        bool ok = true;
        explicit OrderChecker(const bin::Binary& b) : bin(b) {}
        bool wantsBlocks() const { return true; }
        bool wantsMems() const { return true; }
        bool wantsMarkers() const { return false; }
        void
        onMemRefs(std::span<const mem::MemRef> refs)
        {
            refsSinceBlock += refs.size();
        }

        void
        onBlock(u32 id, u32)
        {
            const auto& blk = bin.blocks[id];
            ok &= refsSinceBlock == blk.memOps + blk.stackOps;
            refsSinceBlock = 0;
        }
    } checker(binary);
    engine.runWith(checker);
    EXPECT_TRUE(checker.ok);
}

TEST(Engine, MarkerEventsMatchProfileSemantics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const auto profile = test::profileMarkers(binary);
    // main entered once, setup once, work and tail 10x.
    EXPECT_EQ(test::markerGroupCount(binary, profile,
                                     bin::MarkerKind::ProcEntry,
                                     "main", 0), 1u);
    EXPECT_EQ(test::markerGroupCount(binary, profile,
                                     bin::MarkerKind::ProcEntry,
                                     "setup", 0), 1u);
    EXPECT_EQ(test::markerGroupCount(binary, profile,
                                     bin::MarkerKind::ProcEntry,
                                     "work", 0), 10u);
    EXPECT_EQ(test::markerGroupCount(binary, profile,
                                     bin::MarkerKind::ProcEntry,
                                     "tail", 0), 10u);
}

TEST(Engine, RunTwicePanics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    CountingSink sink;
    engine.runWith(sink);
    EXPECT_DEATH(engine.runWith(sink), "run called twice");
}

TEST(Engine, AddObserverAfterRunPanics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    CountingSink sink;
    engine.runWith(sink);
    EXPECT_DEATH(engine.addObserver(&sink, {true, true, true}),
                 "after run");
}

TEST(Engine, SelectEngineModeChecksNames)
{
    EXPECT_TRUE(exec::selectEngineMode("compiled"));
    EXPECT_TRUE(exec::selectEngineMode("interp"));
    EXPECT_FALSE(exec::selectEngineMode("jit"));
    EXPECT_FALSE(exec::selectEngineMode(""));
}

class EngineWorkloadTest
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(EngineWorkloadTest, InstrCountMatchesStaticOnAllTargets)
{
    const ir::Program program =
        workloads::makeWorkload(GetParam(), 0.05);
    for (const auto& target : compile::standardTargets()) {
        const bin::Binary binary =
            compile::compileProgram(program, target);
        // The profiler calls every trip quiet: one bulk step from the
        // entry procedure's summary.
        exec::Engine engine(binary);
        prof::MarkerProfiler markers(binary);
        engine.runWith(markers);
        EXPECT_EQ(engine.instructionsExecuted(),
                  bin::staticDynamicInstrCount(binary))
            << binary.displayName();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineWorkloadTest,
    ::testing::Values("ammp", "applu", "apsi", "art", "bzip2",
                      "crafty", "eon", "equake", "fma3d", "gcc",
                      "gzip", "lucas", "mcf", "mesa", "perlbmk",
                      "sixtrack", "swim", "twolf", "vortex", "vpr",
                      "wupwise"));
