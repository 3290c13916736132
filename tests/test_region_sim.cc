/**
 * @file
 * Integration tests of cold simulation points (sim::runColdPoints):
 * one walk of the whole run that flushes the caches where each listed
 * point begins.  Cold points consume the same DetailedRunRequest a
 * full run does, so every test exercises the one request-construction
 * path under both timing cores.  The cold simulation of every
 * simulation point of gzip and mcf at scale 0.3 (all four binaries,
 * FLI and VLI, both cores), one point per walk, is pinned to its exact
 * instructions and cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/vli.hh"
#include "sim/detailed.hh"
#include "sim/study.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

struct Fixture
{
    std::vector<bin::Binary> binaries;
    std::vector<prof::ProfilePass> passes;
    core::MappableSet set;
    core::VliBuild build;

    explicit Fixture(InstrCount target)
    {
        binaries = test::compileFour(test::tinyProgram());
        for (const auto& binary : binaries)
            passes.push_back(prof::runProfilePass(binary, target));
        std::vector<const bin::Binary*> bins;
        std::vector<const prof::MarkerProfile*> profs;
        for (std::size_t i = 0; i < binaries.size(); ++i) {
            bins.push_back(&binaries[i]);
            profs.push_back(&passes[i].markers);
        }
        set = core::findMappablePoints(bins, profs);
        build = core::buildVliPartition(binaries[0], set, 0, target);
    }

    sim::DetailedRunRequest fliRequest(std::size_t binaryIdx,
                                       cpu::CoreKind kind) const
    {
        sim::DetailedRunRequest request;
        request.fliBoundaries = passes[binaryIdx].fliBoundaries;
        request.core = cpu::coreConfigFor(kind);
        return request;
    }

    sim::DetailedRunRequest vliRequest(std::size_t binaryIdx,
                                       cpu::CoreKind kind) const
    {
        sim::DetailedRunRequest request;
        request.mappable = &set;
        request.binaryIdx = binaryIdx;
        request.partition = &build.partition;
        request.core = cpu::coreConfigFor(kind);
        return request;
    }
};

const cpu::CoreKind bothCores[] = {cpu::CoreKind::InOrder,
                                   cpu::CoreKind::Decoupled};

} // namespace

TEST(RegionSim, ColdStartCostsMoreCycles)
{
    Fixture f(5000);
    // A middle point: cold caches force extra misses, so the cold
    // walk takes at least as many cycles over the same work.
    const std::size_t point = 2;
    const sim::DetailedRunRequest request =
        f.vliRequest(0, cpu::CoreKind::InOrder);
    const sim::IntervalStats warm =
        sim::runDetailed(f.binaries[0], request).vliIntervals[point];
    const sim::IntervalStats cold =
        sim::runColdPoints(f.binaries[0], request, {{point}})[0];
    EXPECT_EQ(warm.instrs, cold.instrs);
    EXPECT_GT(cold.cycles, warm.cycles);
}

TEST(RegionSim, FirstPointColdEqualsFullRun)
{
    Fixture f(5000);
    // Point 0 starts at program start, where the caches are cold
    // anyway.
    for (const cpu::CoreKind kind : bothCores) {
        for (const sim::DetailedRunRequest& request :
             {f.fliRequest(0, kind), f.vliRequest(0, kind)}) {
            const sim::DetailedRunResult run =
                sim::runDetailed(f.binaries[0], request);
            const sim::IntervalStats warm =
                request.partition ? run.vliIntervals[0]
                                  : run.fliIntervals[0];
            const sim::IntervalStats cold =
                sim::runColdPoints(f.binaries[0], request, {{0}})[0];
            EXPECT_EQ(warm.instrs, cold.instrs)
                << cpu::coreKindName(kind);
            EXPECT_EQ(warm.cycles, cold.cycles)
                << cpu::coreKindName(kind);
        }
    }
}

TEST(RegionSim, InOrderPointsAreIndependentOfEachOther)
{
    // The in-order core's cycles depend only on the hierarchy state
    // and the reference stream, and a flush empties the hierarchy:
    // one walk over every point equals one walk per point.
    Fixture f(5000);
    for (const std::size_t binaryIdx : {std::size_t(0), std::size_t(3)}) {
        for (const sim::DetailedRunRequest& request :
             {f.fliRequest(binaryIdx, cpu::CoreKind::InOrder),
              f.vliRequest(binaryIdx, cpu::CoreKind::InOrder)}) {
            const std::size_t count =
                request.partition ? request.partition->intervalCount()
                                  : request.fliBoundaries.size();
            std::vector<std::size_t> points(count);
            for (std::size_t i = 0; i < count; ++i)
                points[i] = i;
            const std::vector<sim::IntervalStats> all =
                sim::runColdPoints(f.binaries[binaryIdx], request,
                                   points);
            ASSERT_EQ(all.size(), count);
            for (const std::size_t point : points) {
                const sim::IntervalStats one = sim::runColdPoints(
                    f.binaries[binaryIdx], request, {{point}})[0];
                EXPECT_EQ(all[point].instrs, one.instrs)
                    << "binary " << binaryIdx << " point " << point;
                EXPECT_EQ(all[point].cycles, one.cycles)
                    << "binary " << binaryIdx << " point " << point;
            }
        }
    }
}

TEST(RegionSim, OutOfRangePointFatal)
{
    Fixture f(5000);
    EXPECT_EXIT((void)sim::runColdPoints(
                    f.binaries[0],
                    f.fliRequest(0, cpu::CoreKind::InOrder), {{9999}}),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT((void)sim::runColdPoints(
                    f.binaries[0],
                    f.vliRequest(0, cpu::CoreKind::InOrder), {{1, 9999}}),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(RegionSim, UnsortedOrDuplicatePointsFatal)
{
    Fixture f(5000);
    const sim::DetailedRunRequest request =
        f.vliRequest(0, cpu::CoreKind::InOrder);
    EXPECT_EXIT((void)sim::runColdPoints(f.binaries[0], request,
                                         {{2, 1}}),
                ::testing::ExitedWithCode(1), "strictly increasing");
    EXPECT_EXIT((void)sim::runColdPoints(f.binaries[0], request,
                                         {{1, 1}}),
                ::testing::ExitedWithCode(1), "strictly increasing");
}

TEST(RegionSim, ExactlyOneSchemeRequired)
{
    Fixture f(5000);
    sim::DetailedRunRequest both =
        f.vliRequest(0, cpu::CoreKind::InOrder);
    both.fliBoundaries = f.passes[0].fliBoundaries;
    EXPECT_EXIT((void)sim::runColdPoints(f.binaries[0], both, {{0}}),
                ::testing::ExitedWithCode(1), "exactly one");
    sim::DetailedRunRequest neither;
    EXPECT_EXIT((void)sim::runColdPoints(f.binaries[0], neither, {{0}}),
                ::testing::ExitedWithCode(1), "exactly one");
}

namespace
{

/** The cold replay of one simulation point, flattened. */
struct ColdPin
{
    const char* workload;
    std::size_t binary;
    cpu::CoreKind kind;
    bool vli;  ///< the point indexes the VLI (else the FLI) partition
    std::size_t point;
    u64 instrs;
    u64 cycles;

    bool operator==(const ColdPin& other) const
    {
        return std::string(workload) == other.workload &&
               binary == other.binary && kind == other.kind &&
               vli == other.vli && point == other.point &&
               instrs == other.instrs && cycles == other.cycles;
    }
};

/** The row in this file's table syntax, for a failure message. */
std::string
row(const ColdPin& p)
{
    return "{\"" + std::string(p.workload) + "\", " +
           std::to_string(p.binary) + ", " +
           (p.kind == cpu::CoreKind::InOrder ? "kInOrder, "
                                             : "kDecoupled, ") +
           (p.vli ? "kVli, " : "kFli, ") + std::to_string(p.point) +
           ", " + std::to_string(p.instrs) + "u, " +
           std::to_string(p.cycles) + "u},";
}

constexpr cpu::CoreKind kInOrder = cpu::CoreKind::InOrder;
constexpr cpu::CoreKind kDecoupled = cpu::CoreKind::Decoupled;
constexpr bool kFli = false;
constexpr bool kVli = true;

// clang-format off
// Each row: workload, binary, core, scheme, simulation point (the
// interval index of a phase's representative, in phase order), and
// the cold replay's instructions and cycles.
const ColdPin kColdPins[] = {
    {"gzip", 0, kInOrder, kFli, 13, 100007u, 268322u},
    {"gzip", 0, kInOrder, kFli, 8, 100021u, 692579u},
    {"gzip", 0, kInOrder, kFli, 10, 100004u, 2433611u},
    {"gzip", 0, kInOrder, kFli, 12, 100043u, 2441386u},
    {"gzip", 0, kInOrder, kFli, 7, 100032u, 714426u},
    {"gzip", 0, kInOrder, kFli, 11, 100009u, 2472720u},
    {"gzip", 0, kInOrder, kFli, 9, 100004u, 315951u},
    {"gzip", 0, kInOrder, kVli, 13, 100081u, 266761u},
    {"gzip", 0, kInOrder, kVli, 8, 100076u, 692721u},
    {"gzip", 0, kInOrder, kVli, 10, 100033u, 2434833u},
    {"gzip", 0, kInOrder, kVli, 12, 100029u, 2423983u},
    {"gzip", 0, kInOrder, kVli, 7, 100084u, 715405u},
    {"gzip", 0, kInOrder, kVli, 11, 100009u, 2472699u},
    {"gzip", 0, kInOrder, kVli, 9, 100096u, 315013u},
    {"gzip", 0, kDecoupled, kFli, 13, 100007u, 287003u},
    {"gzip", 0, kDecoupled, kFli, 8, 100021u, 692622u},
    {"gzip", 0, kDecoupled, kFli, 10, 100004u, 2436367u},
    {"gzip", 0, kDecoupled, kFli, 12, 100043u, 2441429u},
    {"gzip", 0, kDecoupled, kFli, 7, 100032u, 714835u},
    {"gzip", 0, kDecoupled, kFli, 11, 100009u, 2472720u},
    {"gzip", 0, kDecoupled, kFli, 9, 100004u, 332399u},
    {"gzip", 0, kDecoupled, kVli, 13, 100081u, 285542u},
    {"gzip", 0, kDecoupled, kVli, 8, 100076u, 692764u},
    {"gzip", 0, kDecoupled, kVli, 10, 100033u, 2437518u},
    {"gzip", 0, kDecoupled, kVli, 12, 100029u, 2424026u},
    {"gzip", 0, kDecoupled, kVli, 7, 100084u, 715785u},
    {"gzip", 0, kDecoupled, kVli, 11, 100009u, 2472699u},
    {"gzip", 0, kDecoupled, kVli, 9, 100096u, 331532u},
    {"gzip", 1, kInOrder, kFli, 3, 100000u, 549815u},
    {"gzip", 1, kInOrder, kFli, 1, 100004u, 2360850u},
    {"gzip", 1, kInOrder, kFli, 6, 100000u, 1455872u},
    {"gzip", 1, kInOrder, kFli, 7, 100010u, 2335062u},
    {"gzip", 1, kInOrder, kFli, 5, 100012u, 508621u},
    {"gzip", 1, kInOrder, kFli, 2, 100018u, 1668720u},
    {"gzip", 1, kInOrder, kFli, 0, 100008u, 655077u},
    {"gzip", 1, kInOrder, kFli, 8, 31424u, 60471u},
    {"gzip", 1, kInOrder, kFli, 4, 100013u, 2445929u},
    {"gzip", 1, kInOrder, kVli, 13, 32446u, 69832u},
    {"gzip", 1, kInOrder, kVli, 8, 45308u, 298137u},
    {"gzip", 1, kInOrder, kVli, 10, 37576u, 2122297u},
    {"gzip", 1, kInOrder, kVli, 12, 40699u, 1199251u},
    {"gzip", 1, kInOrder, kVli, 7, 48801u, 321728u},
    {"gzip", 1, kInOrder, kVli, 11, 38465u, 2140801u},
    {"gzip", 1, kInOrder, kVli, 9, 33604u, 92408u},
    {"gzip", 1, kDecoupled, kFli, 3, 100000u, 549815u},
    {"gzip", 1, kDecoupled, kFli, 1, 100004u, 2361240u},
    {"gzip", 1, kDecoupled, kFli, 6, 100000u, 1455890u},
    {"gzip", 1, kDecoupled, kFli, 7, 100010u, 2335094u},
    {"gzip", 1, kDecoupled, kFli, 5, 100012u, 508634u},
    {"gzip", 1, kDecoupled, kFli, 2, 100018u, 1669235u},
    {"gzip", 1, kDecoupled, kFli, 0, 100008u, 655552u},
    {"gzip", 1, kDecoupled, kFli, 8, 31424u, 60484u},
    {"gzip", 1, kDecoupled, kFli, 4, 100013u, 2445979u},
    {"gzip", 1, kDecoupled, kVli, 13, 32446u, 69845u},
    {"gzip", 1, kDecoupled, kVli, 8, 45308u, 298137u},
    {"gzip", 1, kDecoupled, kVli, 10, 37576u, 2122315u},
    {"gzip", 1, kDecoupled, kVli, 12, 40699u, 1199283u},
    {"gzip", 1, kDecoupled, kVli, 7, 48801u, 321853u},
    {"gzip", 1, kDecoupled, kVli, 11, 38465u, 2140801u},
    {"gzip", 1, kDecoupled, kVli, 9, 33604u, 92408u},
    {"gzip", 2, kInOrder, kFli, 7, 100035u, 674502u},
    {"gzip", 2, kInOrder, kFli, 13, 100002u, 693385u},
    {"gzip", 2, kInOrder, kFli, 15, 100010u, 1860226u},
    {"gzip", 2, kInOrder, kFli, 3, 100040u, 2448908u},
    {"gzip", 2, kInOrder, kFli, 11, 100002u, 2098622u},
    {"gzip", 2, kInOrder, kFli, 8, 100007u, 367334u},
    {"gzip", 2, kInOrder, kFli, 17, 100016u, 1512998u},
    {"gzip", 2, kInOrder, kFli, 14, 100006u, 558506u},
    {"gzip", 2, kInOrder, kFli, 12, 100020u, 274973u},
    {"gzip", 2, kInOrder, kFli, 6, 100006u, 485546u},
    {"gzip", 2, kInOrder, kVli, 13, 94199u, 221302u},
    {"gzip", 2, kInOrder, kVli, 8, 91124u, 596623u},
    {"gzip", 2, kInOrder, kVli, 10, 90670u, 2364289u},
    {"gzip", 2, kInOrder, kVli, 12, 91709u, 2242324u},
    {"gzip", 2, kInOrder, kVli, 7, 89484u, 617858u},
    {"gzip", 2, kInOrder, kVli, 11, 90118u, 2397967u},
    {"gzip", 2, kInOrder, kVli, 9, 94028u, 263895u},
    {"gzip", 2, kDecoupled, kFli, 7, 100035u, 674543u},
    {"gzip", 2, kDecoupled, kFli, 13, 100002u, 693385u},
    {"gzip", 2, kDecoupled, kFli, 15, 100010u, 1875066u},
    {"gzip", 2, kDecoupled, kFli, 3, 100040u, 2448908u},
    {"gzip", 2, kDecoupled, kFli, 11, 100002u, 2099324u},
    {"gzip", 2, kDecoupled, kFli, 8, 100007u, 379951u},
    {"gzip", 2, kDecoupled, kFli, 17, 100016u, 1513039u},
    {"gzip", 2, kDecoupled, kFli, 14, 100006u, 562247u},
    {"gzip", 2, kDecoupled, kFli, 12, 100020u, 292844u},
    {"gzip", 2, kDecoupled, kFli, 6, 100006u, 494631u},
    {"gzip", 2, kDecoupled, kVli, 13, 94199u, 239435u},
    {"gzip", 2, kDecoupled, kVli, 8, 91124u, 596664u},
    {"gzip", 2, kDecoupled, kVli, 10, 90670u, 2366880u},
    {"gzip", 2, kDecoupled, kVli, 12, 91709u, 2242365u},
    {"gzip", 2, kDecoupled, kVli, 7, 89484u, 618222u},
    {"gzip", 2, kDecoupled, kVli, 11, 90118u, 2397967u},
    {"gzip", 2, kDecoupled, kVli, 9, 94028u, 279844u},
    {"gzip", 3, kInOrder, kFli, 2, 100007u, 576538u},
    {"gzip", 3, kInOrder, kFli, 6, 100020u, 2379106u},
    {"gzip", 3, kInOrder, kFli, 3, 100005u, 2448074u},
    {"gzip", 3, kInOrder, kFli, 0, 100007u, 694054u},
    {"gzip", 3, kInOrder, kFli, 7, 70387u, 1263704u},
    {"gzip", 3, kInOrder, kFli, 4, 100001u, 2469267u},
    {"gzip", 3, kInOrder, kFli, 5, 100007u, 689577u},
    {"gzip", 3, kInOrder, kFli, 1, 100008u, 2441570u},
    {"gzip", 3, kInOrder, kVli, 13, 32095u, 54806u},
    {"gzip", 3, kInOrder, kVli, 8, 39316u, 297320u},
    {"gzip", 3, kInOrder, kVli, 10, 36614u, 2129209u},
    {"gzip", 3, kInOrder, kVli, 12, 37945u, 1288848u},
    {"gzip", 3, kInOrder, kVli, 7, 40366u, 334550u},
    {"gzip", 3, kInOrder, kVli, 11, 37366u, 2152763u},
    {"gzip", 3, kInOrder, kVli, 9, 32848u, 79142u},
    {"gzip", 3, kDecoupled, kFli, 2, 100007u, 576833u},
    {"gzip", 3, kDecoupled, kFli, 6, 100020u, 2379124u},
    {"gzip", 3, kDecoupled, kFli, 3, 100005u, 2448092u},
    {"gzip", 3, kDecoupled, kFli, 0, 100007u, 694658u},
    {"gzip", 3, kDecoupled, kFli, 7, 70387u, 1263750u},
    {"gzip", 3, kDecoupled, kFli, 4, 100001u, 2469313u},
    {"gzip", 3, kDecoupled, kFli, 5, 100007u, 689577u},
    {"gzip", 3, kDecoupled, kFli, 1, 100008u, 2442023u},
    {"gzip", 3, kDecoupled, kVli, 13, 32095u, 54822u},
    {"gzip", 3, kDecoupled, kVli, 8, 39316u, 297320u},
    {"gzip", 3, kDecoupled, kVli, 10, 36614u, 2129227u},
    {"gzip", 3, kDecoupled, kVli, 12, 37945u, 1288878u},
    {"gzip", 3, kDecoupled, kVli, 7, 40366u, 334668u},
    {"gzip", 3, kDecoupled, kVli, 11, 37366u, 2152763u},
    {"gzip", 3, kDecoupled, kVli, 9, 32848u, 79142u},
    {"mcf", 0, kInOrder, kFli, 10, 100006u, 3903621u},
    {"mcf", 0, kInOrder, kFli, 0, 100028u, 2242087u},
    {"mcf", 0, kInOrder, kFli, 13, 100062u, 3586072u},
    {"mcf", 0, kInOrder, kFli, 18, 100022u, 1052409u},
    {"mcf", 0, kInOrder, kFli, 17, 100054u, 3042139u},
    {"mcf", 0, kInOrder, kFli, 14, 100018u, 4043427u},
    {"mcf", 0, kInOrder, kFli, 12, 100030u, 3952198u},
    {"mcf", 0, kInOrder, kFli, 11, 100010u, 3483893u},
    {"mcf", 0, kInOrder, kFli, 8, 100024u, 3813677u},
    {"mcf", 0, kInOrder, kFli, 9, 100000u, 3697023u},
    {"mcf", 0, kInOrder, kVli, 10, 100016u, 3906357u},
    {"mcf", 0, kInOrder, kVli, 0, 100052u, 2242141u},
    {"mcf", 0, kInOrder, kVli, 13, 100036u, 3582818u},
    {"mcf", 0, kInOrder, kVli, 18, 100062u, 1041160u},
    {"mcf", 0, kInOrder, kVli, 17, 100026u, 3035821u},
    {"mcf", 0, kInOrder, kVli, 14, 100024u, 4043574u},
    {"mcf", 0, kInOrder, kVli, 11, 100004u, 3478801u},
    {"mcf", 0, kInOrder, kVli, 12, 100056u, 3954541u},
    {"mcf", 0, kInOrder, kVli, 8, 100048u, 3815091u},
    {"mcf", 0, kInOrder, kVli, 9, 100044u, 3696694u},
    {"mcf", 0, kDecoupled, kFli, 10, 100006u, 3904099u},
    {"mcf", 0, kDecoupled, kFli, 0, 100028u, 2245705u},
    {"mcf", 0, kDecoupled, kFli, 13, 100062u, 3586947u},
    {"mcf", 0, kDecoupled, kFli, 18, 100022u, 1052792u},
    {"mcf", 0, kDecoupled, kFli, 17, 100054u, 3043203u},
    {"mcf", 0, kDecoupled, kFli, 14, 100018u, 4043716u},
    {"mcf", 0, kDecoupled, kFli, 12, 100030u, 3952582u},
    {"mcf", 0, kDecoupled, kFli, 11, 100010u, 3484673u},
    {"mcf", 0, kDecoupled, kFli, 8, 100024u, 3814249u},
    {"mcf", 0, kDecoupled, kFli, 9, 100000u, 3697709u},
    {"mcf", 0, kDecoupled, kVli, 10, 100016u, 3906832u},
    {"mcf", 0, kDecoupled, kVli, 0, 100052u, 2245759u},
    {"mcf", 0, kDecoupled, kVli, 13, 100036u, 3583696u},
    {"mcf", 0, kDecoupled, kVli, 18, 100062u, 1041539u},
    {"mcf", 0, kDecoupled, kVli, 17, 100026u, 3036889u},
    {"mcf", 0, kDecoupled, kVli, 14, 100024u, 4043860u},
    {"mcf", 0, kDecoupled, kVli, 11, 100004u, 3479584u},
    {"mcf", 0, kDecoupled, kVli, 12, 100056u, 3954922u},
    {"mcf", 0, kDecoupled, kVli, 8, 100048u, 3815661u},
    {"mcf", 0, kDecoupled, kVli, 9, 100044u, 3697383u},
    {"mcf", 1, kInOrder, kFli, 8, 61871u, 951889u},
    {"mcf", 1, kInOrder, kFli, 3, 100015u, 4281226u},
    {"mcf", 1, kInOrder, kFli, 0, 100007u, 3486231u},
    {"mcf", 1, kInOrder, kFli, 7, 100024u, 3977955u},
    {"mcf", 1, kInOrder, kFli, 6, 100004u, 4359088u},
    {"mcf", 1, kInOrder, kFli, 2, 100005u, 4296613u},
    {"mcf", 1, kInOrder, kFli, 5, 100024u, 4290614u},
    {"mcf", 1, kInOrder, kVli, 10, 45581u, 2108198u},
    {"mcf", 1, kInOrder, kVli, 0, 47990u, 1113524u},
    {"mcf", 1, kInOrder, kVli, 13, 42815u, 2007732u},
    {"mcf", 1, kInOrder, kVli, 18, 41379u, 437098u},
    {"mcf", 1, kInOrder, kVli, 17, 41475u, 1811325u},
    {"mcf", 1, kInOrder, kVli, 14, 46913u, 2137315u},
    {"mcf", 1, kInOrder, kVli, 11, 43467u, 1967250u},
    {"mcf", 1, kInOrder, kVli, 12, 46261u, 2110391u},
    {"mcf", 1, kInOrder, kVli, 8, 44929u, 2079470u},
    {"mcf", 1, kInOrder, kVli, 9, 44147u, 2046693u},
    {"mcf", 1, kDecoupled, kFli, 8, 61871u, 952146u},
    {"mcf", 1, kDecoupled, kFli, 3, 100015u, 4281291u},
    {"mcf", 1, kDecoupled, kFli, 0, 100007u, 3486829u},
    {"mcf", 1, kDecoupled, kFli, 7, 100024u, 3978020u},
    {"mcf", 1, kDecoupled, kFli, 6, 100004u, 4359186u},
    {"mcf", 1, kDecoupled, kFli, 2, 100005u, 4296710u},
    {"mcf", 1, kDecoupled, kFli, 5, 100024u, 4290679u},
    {"mcf", 1, kDecoupled, kVli, 10, 45581u, 2108230u},
    {"mcf", 1, kDecoupled, kVli, 0, 47990u, 1113948u},
    {"mcf", 1, kDecoupled, kVli, 13, 42815u, 2007765u},
    {"mcf", 1, kDecoupled, kVli, 18, 41379u, 437355u},
    {"mcf", 1, kDecoupled, kVli, 17, 41475u, 1811358u},
    {"mcf", 1, kDecoupled, kVli, 14, 46913u, 2137347u},
    {"mcf", 1, kDecoupled, kVli, 11, 43467u, 1967283u},
    {"mcf", 1, kDecoupled, kVli, 12, 46261u, 2110423u},
    {"mcf", 1, kDecoupled, kVli, 8, 44929u, 2079502u},
    {"mcf", 1, kDecoupled, kVli, 9, 44147u, 2046726u},
    {"mcf", 2, kInOrder, kFli, 10, 100014u, 3733251u},
    {"mcf", 2, kInOrder, kFli, 0, 100006u, 2363048u},
    {"mcf", 2, kInOrder, kFli, 9, 100040u, 4462309u},
    {"mcf", 2, kInOrder, kFli, 16, 100014u, 1243011u},
    {"mcf", 2, kInOrder, kFli, 2, 100040u, 4309538u},
    {"mcf", 2, kInOrder, kFli, 11, 100009u, 4468939u},
    {"mcf", 2, kInOrder, kFli, 8, 100009u, 4222451u},
    {"mcf", 2, kInOrder, kFli, 15, 100009u, 3942737u},
    {"mcf", 2, kInOrder, kVli, 10, 88619u, 3918885u},
    {"mcf", 2, kInOrder, kVli, 0, 95070u, 2143868u},
    {"mcf", 2, kInOrder, kVli, 13, 89330u, 3775973u},
    {"mcf", 2, kInOrder, kVli, 18, 93807u, 974936u},
    {"mcf", 2, kInOrder, kVli, 17, 89655u, 3389396u},
    {"mcf", 2, kInOrder, kVli, 14, 88294u, 3977880u},
    {"mcf", 2, kInOrder, kVli, 11, 89135u, 3674596u},
    {"mcf", 2, kInOrder, kVli, 12, 88489u, 3942122u},
    {"mcf", 2, kInOrder, kVli, 8, 88814u, 3875603u},
    {"mcf", 2, kInOrder, kVli, 9, 89005u, 3810254u},
    {"mcf", 2, kDecoupled, kFli, 10, 100014u, 3733332u},
    {"mcf", 2, kDecoupled, kFli, 0, 100006u, 2366655u},
    {"mcf", 2, kDecoupled, kFli, 9, 100040u, 4462345u},
    {"mcf", 2, kDecoupled, kFli, 16, 100014u, 1243321u},
    {"mcf", 2, kDecoupled, kFli, 2, 100040u, 4309697u},
    {"mcf", 2, kDecoupled, kFli, 11, 100009u, 4468984u},
    {"mcf", 2, kDecoupled, kFli, 8, 100009u, 4222496u},
    {"mcf", 2, kDecoupled, kFli, 15, 100009u, 3942782u},
    {"mcf", 2, kDecoupled, kVli, 10, 88619u, 3918921u},
    {"mcf", 2, kDecoupled, kVli, 0, 95070u, 2147475u},
    {"mcf", 2, kDecoupled, kVli, 13, 89330u, 3776018u},
    {"mcf", 2, kDecoupled, kVli, 18, 93807u, 975246u},
    {"mcf", 2, kDecoupled, kVli, 17, 89655u, 3389441u},
    {"mcf", 2, kDecoupled, kVli, 14, 88294u, 3977916u},
    {"mcf", 2, kDecoupled, kVli, 11, 89135u, 3674641u},
    {"mcf", 2, kDecoupled, kVli, 12, 88489u, 3942158u},
    {"mcf", 2, kDecoupled, kVli, 8, 88814u, 3875639u},
    {"mcf", 2, kDecoupled, kVli, 9, 89005u, 3810299u},
    {"mcf", 3, kInOrder, kFli, 5, 100018u, 5734820u},
    {"mcf", 3, kInOrder, kFli, 7, 88939u, 2542765u},
    {"mcf", 3, kInOrder, kFli, 0, 100003u, 4755180u},
    {"mcf", 3, kInOrder, kFli, 3, 100014u, 5561335u},
    {"mcf", 3, kInOrder, kFli, 4, 100008u, 5440739u},
    {"mcf", 3, kInOrder, kFli, 1, 100020u, 5715914u},
    {"mcf", 3, kInOrder, kVli, 10, 41437u, 2456006u},
    {"mcf", 3, kInOrder, kVli, 0, 39100u, 1289052u},
    {"mcf", 3, kInOrder, kVli, 13, 39812u, 2403539u},
    {"mcf", 3, kInOrder, kVli, 18, 41318u, 483480u},
    {"mcf", 3, kInOrder, kVli, 17, 39022u, 2246302u},
    {"mcf", 3, kInOrder, kVli, 14, 42222u, 2465739u},
    {"mcf", 3, kInOrder, kVli, 11, 40191u, 2341498u},
    {"mcf", 3, kInOrder, kVli, 12, 41843u, 2455931u},
    {"mcf", 3, kInOrder, kVli, 8, 41058u, 2428306u},
    {"mcf", 3, kInOrder, kVli, 9, 40597u, 2418200u},
    {"mcf", 3, kDecoupled, kFli, 5, 100018u, 5734883u},
    {"mcf", 3, kDecoupled, kFli, 7, 88939u, 2543053u},
    {"mcf", 3, kDecoupled, kFli, 0, 100003u, 4755756u},
    {"mcf", 3, kDecoupled, kFli, 3, 100014u, 5561430u},
    {"mcf", 3, kDecoupled, kFli, 4, 100008u, 5440833u},
    {"mcf", 3, kDecoupled, kFli, 1, 100020u, 5716111u},
    {"mcf", 3, kDecoupled, kVli, 10, 41437u, 2456037u},
    {"mcf", 3, kDecoupled, kVli, 0, 39100u, 1289455u},
    {"mcf", 3, kDecoupled, kVli, 13, 39812u, 2403571u},
    {"mcf", 3, kDecoupled, kVli, 18, 41318u, 483736u},
    {"mcf", 3, kDecoupled, kVli, 17, 39022u, 2246334u},
    {"mcf", 3, kDecoupled, kVli, 14, 42222u, 2465770u},
    {"mcf", 3, kDecoupled, kVli, 11, 40191u, 2341530u},
    {"mcf", 3, kDecoupled, kVli, 12, 41843u, 2455962u},
    {"mcf", 3, kDecoupled, kVli, 8, 41058u, 2428337u},
    {"mcf", 3, kDecoupled, kVli, 9, 40597u, 2418232u},
};
// clang-format on

/**
 * Append the cold stats of each phase's representative, one walk per
 * point, to `measured`; return how many of the points read other
 * stats when all of them share one walk.
 */
std::size_t
measureColdPoints(const char* workload, const bin::Binary& binary,
                  std::size_t binaryIdx,
                  const sim::DetailedRunRequest& request, bool scheme,
                  const std::vector<sp::Phase>& phases,
                  std::vector<ColdPin>& measured)
{
    std::vector<std::size_t> points;
    std::vector<sim::IntervalStats> single;
    for (const sp::Phase& phase : phases) {
        points.push_back(phase.representative);
        single.push_back(sim::runColdPoints(
            binary, request, {{phase.representative}})[0]);
        measured.push_back({workload, binaryIdx, request.core.kind,
                            scheme, phase.representative,
                            single.back().instrs,
                            single.back().cycles});
    }
    std::vector<std::size_t> sorted = points;
    std::ranges::sort(sorted);
    const std::vector<sim::IntervalStats> walk =
        sim::runColdPoints(binary, request, sorted);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sim::IntervalStats& shared =
            walk[std::ranges::lower_bound(sorted, points[i]) -
                 sorted.begin()];
        if (shared.instrs != single[i].instrs ||
            shared.cycles != single[i].cycles)
            ++moved;
    }
    return moved;
}

} // namespace

TEST(RegionSim, ColdPointsMatchTheirPins)
{
    std::vector<ColdPin> measured;
    for (const char* name : {"gzip", "mcf"}) {
        sim::StudyConfig config;
        config.intervalTarget = 100000;
        const sim::CrossBinaryStudy s = sim::CrossBinaryStudy::run(
            workloads::makeWorkload(name, 0.3), config);
        for (std::size_t b = 0; b < s.binaries().size(); ++b) {
            const sim::BinaryStudy& bs = s.perBinary()[b];
            for (const cpu::CoreKind kind : bothCores) {
                config.core = cpu::coreConfigFor(kind);
                sim::DetailedRunRequest fli =
                    sim::makeRunRequest(config);
                fli.fliBoundaries = bs.fliBoundaries;
                sim::DetailedRunRequest vli =
                    sim::makeRunRequest(config);
                vli.mappable = &s.mappable();
                vli.binaryIdx = b;
                vli.partition = &s.partition();
                // One walk over all of a binary's points equals one
                // walk per point: guaranteed for the in-order core,
                // and measured so for the decoupled core, whose
                // frontend may carry its FTQ credit across a flush
                // (DESIGN.md, decision 4).
                EXPECT_EQ(measureColdPoints(name, s.binaries()[b], b,
                                            fli, kFli,
                                            bs.fliClustering.phases,
                                            measured),
                          0u)
                    << name << " binary " << b << " FLI core "
                    << cpu::coreKindName(kind);
                EXPECT_EQ(measureColdPoints(name, s.binaries()[b], b,
                                            vli, kVli,
                                            s.vliClustering().phases,
                                            measured),
                          0u)
                    << name << " binary " << b << " VLI core "
                    << cpu::coreKindName(kind);
            }
        }
    }
    std::string table;
    for (const ColdPin& pin : measured)
        table += row(pin) + "\n";
    ASSERT_EQ(measured.size(), std::size(kColdPins)) << "measured\n"
                                                     << table;
    for (std::size_t i = 0; i < measured.size(); ++i) {
        EXPECT_EQ(kColdPins[i], measured[i]) << "pinned\n"
                                             << row(kColdPins[i])
                                             << "\nmeasured\n"
                                             << row(measured[i]);
    }
}
