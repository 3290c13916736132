/**
 * @file
 * Tests for the experiment harness: table shapes, caching and the
 * default configuration.
 */

#include <gtest/gtest.h>

#include "harness/experiments.hh"

using namespace xbsp;

namespace
{

harness::ExperimentConfig
quickConfig(std::vector<std::string> workloads)
{
    harness::ExperimentConfig config;
    config.workloads = std::move(workloads);
    config.workScale = 0.15;
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = 100000;
    config.verbose = false;
    return config;
}

} // namespace

TEST(Harness, MaxKOptionRejectsZeroAndCountsPastU32)
{
    // The CLI and the benches share this check: 0 and counts past
    // u32 exit 1 instead of running as k = 1 or a narrowed k.
    const auto parsed = [](const char* value) {
        Options options("maxk");
        options.addUint("maxk", "SimPoint cluster cap", 10);
        const char* argv[] = {"prog", "--maxk", value};
        EXPECT_TRUE(options.parse(3, argv));
        return options;
    };
    EXPECT_EQ(harness::maxKOption(parsed("1")), 1u);
    EXPECT_EQ(harness::maxKOption(parsed("4294967295")), 4294967295u);
    for (const char* bad : {"0", "4294967296", "4294967298"}) {
        EXPECT_EXIT((void)harness::maxKOption(parsed(bad)),
                    ::testing::ExitedWithCode(1), "--maxk must be")
            << bad;
    }
}

TEST(Harness, DefaultConfigMatchesPaper)
{
    const sim::StudyConfig config = harness::defaultStudyConfig();
    EXPECT_EQ(config.simpoint.maxK, 10u);
    EXPECT_EQ(config.simpoint.projectedDims, 15u);
    EXPECT_DOUBLE_EQ(config.simpoint.bicThreshold, 0.9);
    EXPECT_EQ(config.primaryIdx, 0u);
    EXPECT_EQ(config.memory.l1.capacityBytes, 32u * 1024);
    EXPECT_EQ(config.memory.l3.hitLatency, 35u);
}

TEST(Harness, UnknownWorkloadFatal)
{
    EXPECT_EXIT(harness::ExperimentSuite(quickConfig({"nope"})),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Harness, EmptyListMeansFullSuite)
{
    harness::ExperimentSuite suite(quickConfig({}));
    EXPECT_EQ(suite.workloads().size(), 21u);
}

TEST(Harness, Table1Shape)
{
    const Table table = harness::ExperimentSuite::table1(
        cache::HierarchyConfig::paperTable1());
    EXPECT_EQ(table.rowCount(), 4u); // L1, L2, L3, DRAM
    EXPECT_EQ(table.columnCount(), 6u);
    EXPECT_EQ(table.cell(0, 0), "L1D");
    EXPECT_EQ(table.cell(0, 1), "32KB");
    EXPECT_EQ(table.cell(1, 2), "8-way");
    EXPECT_EQ(table.cell(2, 4), "35 cycles");
    EXPECT_EQ(table.cell(3, 0), "DRAM");
}

TEST(Harness, FigureTablesHaveWorkloadRowsPlusAverage)
{
    harness::ExperimentSuite suite(quickConfig({"gzip", "eon"}));
    for (Table table : {suite.figure1(), suite.figure2(),
                        suite.figure3(), suite.figure4(),
                        suite.figure5()}) {
        EXPECT_EQ(table.rowCount(), 3u) << table.caption();
        EXPECT_EQ(table.cell(0, 0), "gzip");
        EXPECT_EQ(table.cell(1, 0), "eon");
        EXPECT_EQ(table.cell(2, 0), "Avg");
    }
}

TEST(Harness, SpeedupTablesHavePairColumns)
{
    harness::ExperimentSuite suite(quickConfig({"gzip"}));
    const Table fig4 = suite.figure4();
    EXPECT_EQ(fig4.columnCount(), 5u); // benchmark + 2 pairs x 2
    const Table fig5 = suite.figure5();
    EXPECT_EQ(fig5.columnCount(), 5u);
}

TEST(Harness, PhaseTablesShapeAndMethods)
{
    harness::ExperimentConfig config = quickConfig({"gcc", "apsi"});
    harness::ExperimentSuite suite(config);
    const Table t2 = suite.table2();
    EXPECT_EQ(t2.columnCount(), 10u);
    EXPECT_GE(t2.rowCount(), 2u);
    EXPECT_LE(t2.rowCount(), 6u); // up to 3 phases x 2 methods
    EXPECT_EQ(t2.cell(0, 0), "VLI");
    const Table t3 = suite.table3();
    EXPECT_GE(t3.rowCount(), 2u);
}

TEST(Harness, StudyCaching)
{
    harness::ExperimentSuite suite(quickConfig({"gzip"}));
    const sim::CrossBinaryStudy& first = suite.study("gzip");
    const sim::CrossBinaryStudy& second = suite.study("gzip");
    EXPECT_EQ(&first, &second);
}

TEST(Harness, MappabilityReportShape)
{
    harness::ExperimentSuite suite(quickConfig({"gzip", "eon"}));
    const Table report = suite.mappabilityReport();
    EXPECT_EQ(report.rowCount(), 2u);
    EXPECT_EQ(report.columnCount(), 5u);
}
