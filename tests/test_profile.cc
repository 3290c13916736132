/**
 * @file
 * Unit tests for the profiling layer: marker profiles, the BBV
 * accumulator and the FLI interval collector.
 */

#include <gtest/gtest.h>

#include "profile/profile.hh"
#include "test_support.hh"

using namespace xbsp;

TEST(MarkerProfiler, LoopCountsMatchSemantics)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const auto profile = test::profileMarkers(binary);

    // work's inner loop: entered 10x, iterates 100x per entry.
    u64 workLoopEntries = 0, workLoopBranches = 0;
    for (u32 m = 0; m < binary.markerCount(); ++m) {
        const bin::Marker& marker = binary.markers[m];
        if (binary.procs[marker.procId].name != "work")
            continue;
        if (marker.kind == bin::MarkerKind::LoopEntry)
            workLoopEntries += profile.counts[m];
        if (marker.kind == bin::MarkerKind::LoopBranch)
            workLoopBranches += profile.counts[m];
    }
    EXPECT_EQ(workLoopEntries, 10u);
    EXPECT_EQ(workLoopBranches, 1000u);
}

TEST(MarkerProfiler, EntryCountLessOrEqualBranchCount)
{
    // Loop entries never exceed body iterations scaled... in general
    // entries <= branches when tripCount >= 1 for every entry.
    for (const auto& binary :
         test::compileFour(test::trickyProgram())) {
        const auto profile = test::profileMarkers(binary);
        for (const auto& proc : binary.procs) {
            (void)proc;
        }
        u64 entries = 0, branches = 0;
        for (u32 m = 0; m < binary.markerCount(); ++m) {
            if (binary.markers[m].kind == bin::MarkerKind::LoopEntry)
                entries += profile.counts[m];
            if (binary.markers[m].kind == bin::MarkerKind::LoopBranch)
                branches += profile.counts[m];
        }
        EXPECT_LE(entries, branches) << binary.displayName();
    }
}

TEST(BbvAccumulator, FlushProducesSortedSparseVector)
{
    prof::BbvAccumulator accum(10);
    EXPECT_TRUE(accum.empty());
    accum.add(7, 3.0);
    accum.add(2, 1.0);
    accum.add(7, 2.0);
    EXPECT_FALSE(accum.empty());
    sp::FrequencyVectorSet fvs;
    fvs.dimension = 10;
    accum.flushInto(fvs, 6);
    ASSERT_EQ(fvs.size(), 1u);
    const sp::SparseRow row = fvs.row(0);
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row.index[0], 2u);
    EXPECT_DOUBLE_EQ(row.value[0], 1.0);
    EXPECT_EQ(row.index[1], 7u);
    EXPECT_DOUBLE_EQ(row.value[1], 5.0);
    EXPECT_EQ(fvs.lengths[0], 6u);
    EXPECT_TRUE(accum.empty());
    accum.flushInto(fvs, 0);
    ASSERT_EQ(fvs.size(), 2u);
    EXPECT_TRUE(fvs.row(1).empty());
}

TEST(FliCollector, IntervalsPartitionTheRun)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 5000);

    const auto& fvs = pass.fliIntervals;
    ASSERT_GT(fvs.size(), 3u);
    InstrCount sum = 0;
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        sum += fvs.lengths[i];
        if (i + 1 < fvs.size()) {
            EXPECT_GE(fvs.lengths[i], 5000u);
        }
    }
    EXPECT_EQ(sum, pass.totalInstructions);

    // Boundaries are the cumulative ends.
    ASSERT_EQ(pass.fliBoundaries.size(), fvs.size());
    InstrCount cumulative = 0;
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        cumulative += fvs.lengths[i];
        EXPECT_EQ(pass.fliBoundaries[i], cumulative);
    }
}

TEST(FliCollector, BbvValuesSumToIntervalLength)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 5000);
    for (std::size_t i = 0; i < pass.fliIntervals.size(); ++i) {
        EXPECT_NEAR(sp::sparseSum(pass.fliIntervals.row(i)),
                    static_cast<double>(pass.fliIntervals.lengths[i]),
                    1e-6);
    }
}

TEST(FliCollector, IntervalSizeRoughlyTarget)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 4000);
    // Every interval except the last is within target + max block
    // size of the target.
    u32 maxBlock = 0;
    for (const auto& blk : binary.blocks)
        maxBlock = std::max(maxBlock, blk.instrs);
    for (std::size_t i = 0; i + 1 < pass.fliIntervals.size(); ++i) {
        EXPECT_LT(pass.fliIntervals.lengths[i], 4000u + maxBlock);
    }
}

TEST(FliCollector, ZeroTargetFatal)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    exec::Engine engine(binary);
    EXPECT_EXIT(prof::FliBbvCollector(engine, 0),
                ::testing::ExitedWithCode(1), "target");
}

TEST(ProfilePass, DeterministicAcrossCalls)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target64u);
    const prof::ProfilePass a = prof::runProfilePass(binary, 5000);
    const prof::ProfilePass b = prof::runProfilePass(binary, 5000);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.markers.counts, b.markers.counts);
    EXPECT_EQ(a.fliBoundaries, b.fliBoundaries);
}
