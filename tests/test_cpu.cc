/**
 * @file
 * The pluggable CPU-backend layer: kind parsing and name checks, the
 * decoupled-frontend model's counters, the determinism contract
 * (identical stats at any job count), config
 * validation, and the serial codecs that carry CoreConfig/CoreStats
 * through store keys and the dist wire.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/decoupled.hh"
#include "cpu/inorder.hh"
#include "cpu/serial.hh"
#include "exec/engine.hh"
#include "harness/experiments.hh"
#include "sim/study.hh"
#include "test_support.hh"
#include "util/threadpool.hh"

using namespace xbsp;

namespace
{

/** Run one binary start-to-finish under the given core. */
cpu::CoreStats
runWith(const bin::Binary& binary, const cpu::CoreConfig& config)
{
    cache::Hierarchy hierarchy;
    const std::unique_ptr<cpu::Core> core =
        cpu::makeCore(config, hierarchy);
    exec::Engine engine(binary, 0x5EEDull);
    engine.addObserver(core.get(), core->hooks());
    engine.run();
    return core->totals();
}

const bin::Binary&
tinyBinary()
{
    static const std::vector<bin::Binary> binaries =
        test::compileFour(test::tinyProgram());
    return binaries[0];
}

} // namespace

TEST(CoreKind, NamesRoundTrip)
{
    for (const cpu::CoreKind kind :
         {cpu::CoreKind::InOrder, cpu::CoreKind::Decoupled}) {
        const auto parsed =
            cpu::parseCoreKind(cpu::coreKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_EQ(cpu::parseCoreKind("in-order"),
              cpu::CoreKind::InOrder);
    EXPECT_FALSE(cpu::parseCoreKind("bogus").has_value());
    EXPECT_FALSE(cpu::parseCoreKind("").has_value());
}

TEST(CoreKind, SelectRejectsUnknownNames)
{
    // selectCore is a pure name check: accepting "decoupled" must
    // not move the default study off the in-order core.
    EXPECT_FALSE(cpu::selectCore("out-of-order"));
    EXPECT_FALSE(cpu::selectCore(""));
    EXPECT_TRUE(cpu::selectCore("inorder"));
    EXPECT_TRUE(cpu::selectCore("decoupled"));
    EXPECT_EQ(harness::defaultStudyConfig().core,
              cpu::coreConfigFor(cpu::CoreKind::InOrder));
}

TEST(CoreConfig, DefaultIsTheByteIdenticalInOrderModel)
{
    // The default-constructed config must stay the in-order model:
    // every pre-refactor report's store key depends on it.
    const cpu::CoreConfig config;
    EXPECT_EQ(config.kind, cpu::CoreKind::InOrder);
    EXPECT_EQ(config, cpu::coreConfigFor(cpu::CoreKind::InOrder));
}

TEST(InOrderCore, MatchesFrozenTimingMath)
{
    // instructions == cycles when there is no memory traffic, and
    // the frontend counters stay zero: the seed model, unchanged.
    const cpu::CoreStats stats = runWith(
        tinyBinary(), cpu::coreConfigFor(cpu::CoreKind::InOrder));
    EXPECT_GT(stats.instructions, 0u);
    EXPECT_GE(stats.cycles, stats.instructions);
    EXPECT_GT(stats.memRefs, 0u);
    EXPECT_EQ(stats.branches, 0u);
    EXPECT_EQ(stats.mispredicts, 0u);
    EXPECT_EQ(stats.flushes, 0u);
    EXPECT_EQ(stats.fetchBubbles, 0u);
}

TEST(DecoupledCore, LoopyProgramTrainsThePredictor)
{
    const cpu::CoreStats stats = runWith(
        tinyBinary(), cpu::coreConfigFor(cpu::CoreKind::Decoupled));
    EXPECT_GT(stats.branches, 0u);
    EXPECT_GT(stats.mispredicts, 0u);
    // Loops dominate the tiny program: the steady-state iterations
    // must predict correctly, so mispredicts are a strict minority.
    EXPECT_LT(stats.mispredicts, stats.branches / 2);
    // Every flush discards FTQ contents; a flush without a
    // mispredict is impossible.
    EXPECT_LE(stats.flushes, stats.mispredicts);
    // Post-flush refill starves the backend at least once.
    EXPECT_GT(stats.fetchBubbles, 0u);
}

TEST(DecoupledCore, FrontendOnlyAddsCycles)
{
    const cpu::CoreStats inorder = runWith(
        tinyBinary(), cpu::coreConfigFor(cpu::CoreKind::InOrder));
    const cpu::CoreStats decoupled = runWith(
        tinyBinary(), cpu::coreConfigFor(cpu::CoreKind::Decoupled));
    // Same committed work and memory traffic; the decoupled frontend
    // can only add stall cycles on top of the in-order baseline.
    EXPECT_EQ(decoupled.instructions, inorder.instructions);
    EXPECT_EQ(decoupled.memRefs, inorder.memRefs);
    EXPECT_GE(decoupled.cycles, inorder.cycles);
}

TEST(DecoupledCore, ByteIdenticalAcrossJobCounts)
{
    // The full pipeline (profile, cluster, detailed runs, region
    // replays) under the decoupled core at 1 and 8 jobs: timing is a
    // pure function of the event stream, so every counter agrees.
    sim::StudyConfig config;
    config.intervalTarget = 50000;
    config.core = cpu::coreConfigFor(cpu::CoreKind::Decoupled);

    const unsigned saved = configuredJobs();
    setGlobalJobs(1);
    const sim::CrossBinaryStudy serial =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    setGlobalJobs(8);
    const sim::CrossBinaryStudy parallel =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    setGlobalJobs(saved);

    ASSERT_EQ(serial.perBinary().size(), parallel.perBinary().size());
    for (std::size_t b = 0; b < serial.perBinary().size(); ++b) {
        const sim::BinaryStudy& a = serial.perBinary()[b];
        const sim::BinaryStudy& c = parallel.perBinary()[b];
        EXPECT_EQ(a.detailedRun.totals, c.detailedRun.totals)
            << "binary " << b;
        EXPECT_EQ(a.fliEstimate.estCpi, c.fliEstimate.estCpi);
        EXPECT_EQ(a.vliEstimate.estCpi, c.vliEstimate.estCpi);
    }
}

TEST(DecoupledCore, MispredictPenaltyIsVisibleInCycles)
{
    cpu::CoreConfig cheap = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    cheap.mispredictPenalty = 1;
    cpu::CoreConfig dear = cheap;
    dear.mispredictPenalty = 40;
    const cpu::CoreStats a = runWith(tinyBinary(), cheap);
    const cpu::CoreStats b = runWith(tinyBinary(), dear);
    // Identical prediction behaviour, dearer redirects.
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_GT(b.cycles, a.cycles);
}

TEST(DecoupledCore, ResetCountersZeroesStats)
{
    cache::Hierarchy hierarchy;
    cpu::DecoupledCore core(
        hierarchy, cpu::coreConfigFor(cpu::CoreKind::Decoupled));
    core.onBlock(1, 10);
    core.onBlock(2, 10);
    EXPECT_GT(core.totals().instructions, 0u);
    core.resetCounters();
    EXPECT_EQ(core.totals(), cpu::CoreStats{});
}

TEST(DecoupledCore, ConfigValidationIsFatal)
{
    cache::Hierarchy hierarchy;
    cpu::CoreConfig config =
        cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    config.fetchWidth = 0;
    EXPECT_EXIT((void)cpu::DecoupledCore(hierarchy, config),
                ::testing::ExitedWithCode(1), "fetchWidth");
    config = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    config.ftqDepth = 5000;
    EXPECT_EXIT((void)cpu::DecoupledCore(hierarchy, config),
                ::testing::ExitedWithCode(1), "ftqDepth");
    config = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    config.predictorBits = 32;
    EXPECT_EXIT((void)cpu::DecoupledCore(hierarchy, config),
                ::testing::ExitedWithCode(1), "predictorBits");
}

TEST(CpuSerial, CoreConfigRoundTrips)
{
    cpu::CoreConfig config;
    config.kind = cpu::CoreKind::Decoupled;
    config.fetchWidth = 8;
    config.ftqDepth = 32;
    config.predictorBits = 10;
    config.mispredictPenalty = 7;

    serial::Encoder e;
    cpu::encodeCoreConfig(e, config);
    const std::string bytes = e.take();
    serial::Decoder d(bytes);
    const cpu::CoreConfig back = cpu::decodeCoreConfig(d);
    d.expectEnd();
    EXPECT_EQ(back, config);
}

TEST(CpuSerial, CoreStatsRoundTrip)
{
    const cpu::CoreStats stats = runWith(
        tinyBinary(), cpu::coreConfigFor(cpu::CoreKind::Decoupled));
    serial::Encoder e;
    cpu::encodeCoreStats(e, stats);
    const std::string bytes = e.take();
    serial::Decoder d(bytes);
    const cpu::CoreStats back = cpu::decodeCoreStats(d);
    d.expectEnd();
    EXPECT_EQ(back, stats);
}

TEST(CpuSerial, EveryConfigFieldChangesTheHash)
{
    const auto digest = [](const cpu::CoreConfig& config) {
        serial::Hasher h;
        cpu::hashCoreConfig(h, config);
        return h.finish();
    };
    const cpu::CoreConfig base;
    cpu::CoreConfig changed = base;
    changed.kind = cpu::CoreKind::Decoupled;
    EXPECT_NE(digest(base), digest(changed));
    changed = base;
    changed.fetchWidth = 2;
    EXPECT_NE(digest(base), digest(changed));
    changed = base;
    changed.ftqDepth = 8;
    EXPECT_NE(digest(base), digest(changed));
    changed = base;
    changed.predictorBits = 6;
    EXPECT_NE(digest(base), digest(changed));
    changed = base;
    changed.mispredictPenalty = 3;
    EXPECT_NE(digest(base), digest(changed));
}
