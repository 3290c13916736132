/**
 * @file
 * Unit tests for variable-length-interval construction and
 * cross-binary boundary tracking.
 */

#include <gtest/gtest.h>

#include "core/vli.hh"
#include "obs/stats.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

struct VliFixture
{
    std::vector<bin::Binary> binaries;
    std::vector<prof::MarkerProfile> profiles;
    core::MappableSet set;
    core::VliBuild build;
    InstrCount target;
};

VliFixture
makeSetup(const ir::Program& program, InstrCount target)
{
    VliFixture s;
    s.target = target;
    s.binaries = test::compileFour(program);
    for (const auto& binary : s.binaries)
        s.profiles.push_back(test::profileMarkers(binary));
    std::vector<const bin::Binary*> bins;
    std::vector<const prof::MarkerProfile*> profs;
    for (std::size_t i = 0; i < s.binaries.size(); ++i) {
        bins.push_back(&s.binaries[i]);
        profs.push_back(&s.profiles[i]);
    }
    s.set = core::findMappablePoints(bins, profs);
    s.build =
        core::buildVliPartition(s.binaries[0], s.set, 0, target);
    return s;
}

} // namespace

TEST(Vli, IntervalsAtLeastTargetExceptLast)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    const auto& lengths = s.build.intervals.lengths;
    ASSERT_GT(lengths.size(), 2u);
    for (std::size_t i = 0; i + 1 < lengths.size(); ++i)
        EXPECT_GE(lengths[i], s.target);
}

TEST(Vli, LengthsSumToTotal)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    InstrCount sum = 0;
    for (InstrCount len : s.build.intervals.lengths)
        sum += len;
    EXPECT_EQ(sum, s.build.totalInstructions);
}

TEST(Vli, BoundariesConsistentWithIntervals)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    EXPECT_EQ(s.build.partition.intervalCount(),
              s.build.intervals.size());
    for (const core::Boundary& boundary : s.build.partition.boundaries) {
        ASSERT_LT(boundary.pointIdx, s.set.points.size());
        EXPECT_GE(boundary.fireCount, 1u);
        EXPECT_LE(boundary.fireCount,
                  s.set.points[boundary.pointIdx].execCount);
    }
}

TEST(Vli, BbvSumsMatchLengths)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    for (std::size_t i = 0; i < s.build.intervals.size(); ++i) {
        EXPECT_NEAR(sp::sparseSum(s.build.intervals.row(i)),
                    static_cast<double>(s.build.intervals.lengths[i]),
                    1e-6);
    }
}

TEST(Vli, TrackerCrossesAllBoundariesInEveryBinary)
{
    const VliFixture s = makeSetup(test::trickyProgram(), 2000);
    ASSERT_GT(s.build.partition.boundaries.size(), 0u);
    for (std::size_t b = 0; b < s.binaries.size(); ++b) {
        exec::Engine engine(s.binaries[b]);
        std::vector<InstrCount> cuts;
        core::BoundaryTracker tracker(
            s.set, b, s.build.partition, [&](std::size_t idx) {
                EXPECT_EQ(idx, cuts.size());
                cuts.push_back(engine.instructionsExecuted());
            });
        engine.runWith(tracker);
        EXPECT_TRUE(tracker.finished()) << s.binaries[b].displayName();
        // Boundary positions strictly increase.
        for (std::size_t i = 1; i < cuts.size(); ++i)
            EXPECT_GT(cuts[i], cuts[i - 1]);
        EXPECT_LE(cuts.back(), engine.instructionsExecuted());
    }
}

TEST(Vli, MappedIntervalsShrinkInOptimizedBinaries)
{
    // The primary (32u) executes ~2.4x the instructions of 32o, so
    // the same semantic intervals are smaller there — the effect the
    // paper's Figure 2 discussion explains.
    const VliFixture s = makeSetup(test::tinyProgram(), 4000);
    exec::Engine engine(s.binaries[1]); // 32o
    InstrCount last = 0;
    std::vector<InstrCount> sizes;
    core::BoundaryTracker tracker(
        s.set, 1, s.build.partition, [&](std::size_t) {
            sizes.push_back(engine.instructionsExecuted() - last);
            last = engine.instructionsExecuted();
        });
    engine.runWith(tracker);
    ASSERT_FALSE(sizes.empty());
    double avg = 0.0;
    for (InstrCount size : sizes)
        avg += static_cast<double>(size);
    avg /= static_cast<double>(sizes.size());
    EXPECT_LT(avg, 0.7 * static_cast<double>(s.target));
}

TEST(Vli, PrimaryTrackerReproducesOwnPartition)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    exec::Engine engine(s.binaries[0]);
    std::vector<InstrCount> cuts;
    core::BoundaryTracker tracker(
        s.set, 0, s.build.partition, [&](std::size_t) {
            cuts.push_back(engine.instructionsExecuted());
        });
    engine.runWith(tracker);
    ASSERT_EQ(cuts.size(), s.build.partition.boundaries.size());
    InstrCount cumulative = 0;
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        cumulative += s.build.intervals.lengths[i];
        EXPECT_EQ(cuts[i], cumulative);
    }
}

TEST(Vli, AddObserverShimMatchesRunWith)
{
    // The engine's addObserver/run() shim (kept for perfbench's
    // xbspbench) must replay boundaries exactly as runWith does:
    // same crossings, same engine counters.  It takes one sink.
    const VliFixture s = makeSetup(test::trickyProgram(), 2000);
    const std::vector<std::string> names = {
        "engine.runs",   "engine.blocks",      "engine.instrs",
        "engine.memRefs", "engine.markers",    "engine.instrs.bulk",
        "engine.trips.bulk"};
    const auto replay = [&](bool shim) {
        const obs::StatRegistry& reg = obs::StatRegistry::global();
        std::vector<u64> added;
        for (const std::string& name : names)
            added.push_back(reg.counterValue(name));
        exec::Engine engine(s.binaries[1]);
        std::vector<InstrCount> cuts;
        core::BoundaryTracker tracker(
            s.set, 1, s.build.partition, [&](std::size_t) {
                cuts.push_back(engine.instructionsExecuted());
            });
        if (shim) {
            engine.addObserver(&tracker, {false, false, true});
            engine.run();
        } else {
            engine.runWith(tracker);
        }
        for (std::size_t i = 0; i < names.size(); ++i)
            added[i] = reg.counterValue(names[i]) - added[i];
        return std::pair{cuts, added};
    };
    const auto direct = replay(false);
    EXPECT_EQ(direct.first.size(), s.build.partition.boundaries.size());
    EXPECT_GT(direct.second.back(), 0u) << "no bulk step";
    EXPECT_EQ(replay(true), direct);

    exec::Engine engine(s.binaries[1]);
    core::BoundaryTracker tracker(s.set, 1, s.build.partition,
                                  [](std::size_t) {});
    engine.addObserver(&tracker, {false, false, true});
    EXPECT_DEATH(engine.addObserver(&tracker, {false, false, true}),
                 "one sink per engine");
}

TEST(Vli, InvalidBoundaryPanics)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    core::VliPartition bogus;
    bogus.boundaries.push_back(
        core::Boundary{0, s.set.points[0].execCount + 1});
    EXPECT_DEATH(core::BoundaryTracker(s.set, 0, bogus,
                                       [](std::size_t) {}),
                 "outside point");
    core::VliPartition outOfRange;
    outOfRange.boundaries.push_back(
        core::Boundary{static_cast<u32>(s.set.points.size()), 1});
    EXPECT_DEATH(core::BoundaryTracker(s.set, 0, outOfRange,
                                       [](std::size_t) {}),
                 "out of range");
}

TEST(Vli, ZeroTargetFatal)
{
    const VliFixture s = makeSetup(test::tinyProgram(), 5000);
    EXPECT_EXIT(
        (void)core::buildVliPartition(s.binaries[0], s.set, 0, 0),
        ::testing::ExitedWithCode(1), "target");
}

TEST(Vli, ApplousStyleSparseMarkersGiveLargeIntervals)
{
    // With only coarse mappable markers (applu's situation), the VLI
    // intervals grow well beyond the target.
    const ir::Program applu = workloads::makeApplu(0.15);
    const VliFixture s = makeSetup(applu, 20000);
    double avg = static_cast<double>(s.build.totalInstructions) /
                 static_cast<double>(s.build.intervals.size());
    EXPECT_GT(avg, 1.5 * 20000.0);
}
