/**
 * @file
 * Unit and property tests for the execution engine: instruction
 * accounting, determinism, observer hooks and event ordering.
 */

#include <gtest/gtest.h>

#include "exec/engine.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

struct CountingObserver : exec::Observer
{
    u64 blocks = 0;
    InstrCount instrs = 0;
    u64 memRefs = 0;
    u64 markers = 0;
    bool ended = false;

    void
    onBlock(u32, u32 n) override
    {
        ++blocks;
        instrs += n;
    }

    void onMemRef(Addr, bool) override { ++memRefs; }
    void onMarker(u32) override { ++markers; }
    void onRunEnd() override { ended = true; }
};

} // namespace

TEST(Engine, InstructionCountMatchesStaticComputation)
{
    const auto bins = test::compileFour(test::tinyProgram());
    for (const auto& binary : bins) {
        exec::Engine engine(binary);
        engine.run();
        EXPECT_EQ(engine.instructionsExecuted(),
                  bin::staticDynamicInstrCount(binary))
            << binary.displayName();
    }
}

TEST(Engine, ObserverTotalsConsistent)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    CountingObserver obs;
    engine.addObserver(&obs, {true, true, true});
    engine.run();
    EXPECT_TRUE(obs.ended);
    EXPECT_EQ(obs.instrs, engine.instructionsExecuted());
    // Memory references = sum over blocks of (memOps + stackOps) x
    // executions; cross-check against a manual walk.
    u64 expectedRefs = 0;
    {
        exec::Engine recount(binary);
        struct RefCounter : exec::Observer
        {
            const bin::Binary& bin;
            u64 refs = 0;
            explicit RefCounter(const bin::Binary& b) : bin(b) {}
            void
            onBlock(u32 id, u32) override
            {
                refs += bin.blocks[id].memOps + bin.blocks[id].stackOps;
            }
        } counter(binary);
        recount.addObserver(&counter, {true, false, false});
        recount.run();
        expectedRefs = counter.refs;
    }
    EXPECT_EQ(obs.memRefs, expectedRefs);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target64o);
    std::vector<Addr> first;
    for (int run = 0; run < 2; ++run) {
        exec::Engine engine(binary, 1234);
        struct Recorder : exec::Observer
        {
            std::vector<Addr>* sink;
            void
            onMemRef(Addr addr, bool) override
            {
                if (sink->size() < 10000)
                    sink->push_back(addr);
            }
        } recorder;
        std::vector<Addr> addrs;
        recorder.sink = &addrs;
        engine.addObserver(&recorder, {false, true, false});
        engine.run();
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
    CountingObserver ca, cb;
    a.addObserver(&ca, {true, true, true});
    b.addObserver(&cb, {true, true, true});
    a.run();
    b.run();
    EXPECT_EQ(ca.instrs, cb.instrs);
    EXPECT_EQ(ca.blocks, cb.blocks);
    EXPECT_EQ(ca.markers, cb.markers);
    EXPECT_EQ(ca.memRefs, cb.memRefs);
}

TEST(Engine, HooksFilterEventKinds)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    CountingObserver onlyBlocks, onlyMarkers;
    engine.addObserver(&onlyBlocks, {true, false, false});
    engine.addObserver(&onlyMarkers, {false, false, true});
    engine.run();
    EXPECT_GT(onlyBlocks.blocks, 0u);
    EXPECT_EQ(onlyBlocks.memRefs, 0u);
    EXPECT_EQ(onlyBlocks.markers, 0u);
    EXPECT_EQ(onlyMarkers.blocks, 0u);
    EXPECT_GT(onlyMarkers.markers, 0u);
    EXPECT_TRUE(onlyBlocks.ended);
    EXPECT_TRUE(onlyMarkers.ended);
}

TEST(Engine, MemRefsDispatchedBeforeBlockEvent)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    struct OrderChecker : exec::Observer
    {
        u64 refsSinceBlock = 0;
        const bin::Binary& bin;
        bool ok = true;
        explicit OrderChecker(const bin::Binary& b) : bin(b) {}
        void onMemRef(Addr, bool) override { ++refsSinceBlock; }
        void
        onBlock(u32 id, u32) override
        {
            const auto& blk = bin.blocks[id];
            ok &= refsSinceBlock == blk.memOps + blk.stackOps;
            refsSinceBlock = 0;
        }
    } checker(binary);
    engine.addObserver(&checker, {true, true, false});
    engine.run();
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

TEST(Engine, RunOnceSubscribesPerObserverHooks)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);

    // An observer that declares a blocks-only subscription must not
    // receive memory references or markers through runOnce.
    struct BlocksOnly : CountingObserver
    {
        exec::ObserverHooks
        hooks() const override
        {
            return {true, false, false};
        }
    } blocksOnly;
    // The default hooks() is all-on, so undeclared observers keep
    // the old runOnce behaviour.
    CountingObserver everything;

    const InstrCount ran =
        exec::runOnce(binary, {&blocksOnly, &everything});
    EXPECT_EQ(ran, bin::staticDynamicInstrCount(binary));
    EXPECT_GT(blocksOnly.blocks, 0u);
    EXPECT_EQ(blocksOnly.memRefs, 0u);
    EXPECT_EQ(blocksOnly.markers, 0u);
    EXPECT_TRUE(blocksOnly.ended);
    EXPECT_GT(everything.blocks, 0u);
    EXPECT_GT(everything.memRefs, 0u);
    EXPECT_GT(everything.markers, 0u);
    EXPECT_TRUE(everything.ended);
}

TEST(Engine, RunTwicePanics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    engine.run();
    EXPECT_DEATH(engine.run(), "run called twice");
}

TEST(Engine, AddObserverAfterRunPanics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    engine.run();
    CountingObserver obs;
    EXPECT_DEATH(engine.addObserver(&obs, {true, false, false}),
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
        exec::Engine engine(binary);
        engine.run();
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
