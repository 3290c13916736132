/**
 * @file
 * End-to-end integration tests for CrossBinaryStudy: the invariants
 * the paper's pipeline guarantees, checked on real (scaled-down)
 * workloads.
 */

#include <gtest/gtest.h>

#include "profile/profile.hh"
#include "sim/study.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

sim::StudyConfig
smallConfig()
{
    sim::StudyConfig config;
    config.intervalTarget = 50000;
    config.simpoint.maxK = 10;
    return config;
}

sim::CrossBinaryStudy
runTiny()
{
    static const sim::CrossBinaryStudy study =
        sim::CrossBinaryStudy::run(test::tinyProgram(), smallConfig());
    return study;
}

} // namespace

TEST(Study, FourBinariesWithConsistentTargets)
{
    const auto study = runTiny();
    ASSERT_EQ(study.perBinary().size(), 4u);
    EXPECT_EQ(study.perBinary()[0].target, bin::target32u);
    EXPECT_EQ(study.perBinary()[3].target, bin::target64o);
    EXPECT_EQ(study.programName(), "tiny");
}

TEST(Study, VliIntervalCountIdenticalAcrossBinaries)
{
    const auto study = runTiny();
    const std::size_t count = study.partition().intervalCount();
    for (const auto& bs : study.perBinary())
        EXPECT_EQ(bs.detailedRun.vliIntervals.size(), count);
}

TEST(Study, IntervalStatsSumToTotals)
{
    const auto study = runTiny();
    for (const auto& bs : study.perBinary()) {
        InstrCount fliInstrs = 0, vliInstrs = 0;
        Cycles fliCycles = 0, vliCycles = 0;
        for (const auto& iv : bs.detailedRun.fliIntervals) {
            fliInstrs += iv.instrs;
            fliCycles += iv.cycles;
        }
        for (const auto& iv : bs.detailedRun.vliIntervals) {
            vliInstrs += iv.instrs;
            vliCycles += iv.cycles;
        }
        EXPECT_EQ(fliInstrs, bs.totalInstrs);
        EXPECT_EQ(vliInstrs, bs.totalInstrs);
        EXPECT_EQ(fliCycles, bs.detailedRun.totals.cycles);
        EXPECT_EQ(vliCycles, bs.detailedRun.totals.cycles);
    }
}

TEST(Study, WeightsSumToOnePerBinaryAndScheme)
{
    const auto study = runTiny();
    for (const auto& bs : study.perBinary()) {
        double fli = 0.0, vli = 0.0;
        for (const auto& phase : bs.fliEstimate.phases)
            fli += phase.weight;
        for (const auto& phase : bs.vliEstimate.phases)
            vli += phase.weight;
        EXPECT_NEAR(fli, 1.0, 1e-9);
        EXPECT_NEAR(vli, 1.0, 1e-9);
    }
}

TEST(Study, EstimatesWithinIntervalCpiRange)
{
    const auto study = runTiny();
    for (const auto& bs : study.perBinary()) {
        double lo = 1e30, hi = 0.0;
        for (const auto& iv : bs.detailedRun.vliIntervals) {
            lo = std::min(lo, iv.cpi());
            hi = std::max(hi, iv.cpi());
        }
        EXPECT_GE(bs.vliEstimate.estCpi, lo - 1e-9);
        EXPECT_LE(bs.vliEstimate.estCpi, hi + 1e-9);
        EXPECT_GE(bs.vliEstimate.trueCpi, lo - 1e-9);
        EXPECT_LE(bs.vliEstimate.trueCpi, hi + 1e-9);
    }
}

TEST(Study, SelfSpeedupIsExactlyOne)
{
    const auto study = runTiny();
    for (std::size_t b = 0; b < 4; ++b) {
        EXPECT_DOUBLE_EQ(study.trueSpeedup(b, b), 1.0);
        EXPECT_DOUBLE_EQ(
            study.estimatedSpeedup(sim::Method::PerBinaryFli, b, b),
            1.0);
        EXPECT_DOUBLE_EQ(
            study.speedupError(sim::Method::MappableVli, b, b), 0.0);
    }
}

TEST(Study, OptimizationProducesRealSpeedup)
{
    const auto study = runTiny();
    EXPECT_GT(study.trueSpeedup(0, 1), 1.2); // 32u -> 32o
    EXPECT_GT(study.trueSpeedup(2, 3), 1.2); // 64u -> 64o
}

TEST(Study, MethodNamesAndPairs)
{
    EXPECT_EQ(sim::methodName(sim::Method::PerBinaryFli), "fli");
    EXPECT_EQ(sim::methodName(sim::Method::MappableVli), "vli");
    const auto same = sim::samePlatformPairs();
    ASSERT_EQ(same.size(), 2u);
    EXPECT_EQ(same[0].label, "32u32o");
    const auto cross = sim::crossPlatformPairs();
    ASSERT_EQ(cross.size(), 2u);
    EXPECT_EQ(cross[1].label, "32o64o");
}

TEST(Study, NonDetailedModeStillComputesStructure)
{
    sim::StudyConfig config = smallConfig();
    config.detailed = false;
    const auto study =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    EXPECT_GT(study.partition().intervalCount(), 0u);
    EXPECT_GT(study.avgSimPointCount(sim::Method::MappableVli), 0.0);
    EXPECT_GT(study.avgIntervalSize(sim::Method::MappableVli), 0.0);
    for (const auto& bs : study.perBinary()) {
        EXPECT_TRUE(bs.detailedRun.fliIntervals.empty());
        EXPECT_GT(bs.avgVliIntervalSize, 0.0);
    }
}

/**
 * The FLI boundary list is kept only for the detailed run, its one
 * reader: a timing-free study keeps none, while a detailed study's
 * is its profile pass's, one boundary per FLI interval.
 */
TEST(Study, FliBoundariesKeptOnlyForDetailedRuns)
{
    sim::StudyConfig config = smallConfig();
    config.detailed = false;
    const auto timingFree =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    const auto detailed = runTiny();
    ASSERT_EQ(timingFree.perBinary().size(), detailed.perBinary().size());
    for (std::size_t b = 0; b < detailed.perBinary().size(); ++b) {
        const sim::BinaryStudy& bare = timingFree.perBinary()[b];
        const sim::BinaryStudy& full = detailed.perBinary()[b];
        EXPECT_TRUE(bare.fliBoundaries.empty());
        EXPECT_EQ(bare.fliIntervalCount, full.fliIntervalCount);
        const prof::ProfilePass pass = prof::runProfilePass(
            detailed.binaries()[b], config.intervalTarget,
            config.engineSeed);
        EXPECT_EQ(full.fliBoundaries, pass.fliBoundaries);
        EXPECT_EQ(full.fliIntervalCount, pass.fliIntervals.size());
    }
}

TEST(Study, PrimaryChoiceChangesIntervalSizes)
{
    sim::StudyConfig config = smallConfig();
    config.detailed = false;
    config.primaryIdx = 0; // 32u primary: big primary, mapped shrink
    const auto fromUnopt =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    config.primaryIdx = 1; // 32o primary: mapped intervals grow
    const auto fromOpt =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    EXPECT_GT(fromOpt.avgIntervalSize(sim::Method::MappableVli),
              fromUnopt.avgIntervalSize(sim::Method::MappableVli));
}

TEST(Study, BadPrimaryIndexFatal)
{
    sim::StudyConfig config = smallConfig();
    config.primaryIdx = 9;
    EXPECT_EXIT((void)sim::CrossBinaryStudy::run(test::tinyProgram(),
                                                 config),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(Study, SpeedupIndexOutOfRangeFatal)
{
    const auto study = runTiny();
    EXPECT_EXIT((void)study.trueSpeedup(9, 0),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT((void)study.estimatedSpeedup(sim::Method::MappableVli,
                                             0, 17),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(Study, PairHelpersValidateBinaryCount)
{
    EXPECT_EXIT((void)sim::samePlatformPairs(2),
                ::testing::ExitedWithCode(1),
                "four standard binaries");
    EXPECT_EXIT((void)sim::crossPlatformPairs(3),
                ::testing::ExitedWithCode(1),
                "four standard binaries");
}

TEST(Study, EndToEndOnRealWorkload)
{
    sim::StudyConfig config;
    config.intervalTarget = 100000;
    const auto study = sim::CrossBinaryStudy::run(
        workloads::makeWorkload("gzip", 0.2), config);
    // Sanity: estimates exist and are within a loose error bound of
    // the truth (the pipeline should never be wildly wrong on a
    // simple workload).
    for (const auto& bs : study.perBinary()) {
        EXPECT_GT(bs.vliEstimate.trueCpi, 1.0);
        EXPECT_LT(bs.vliEstimate.cpiError, 0.5);
        EXPECT_LT(bs.fliEstimate.cpiError, 0.5);
    }
}
