/**
 * @file
 * Equivalence guard for the accelerated clustering engine: the
 * combination of duplicate-interval dedup, Hamerly-bounded k-means
 * and the parallel (k, seed) sweep must produce a SimPointResult
 * that is *bit-identical* to the naive path — same chosen k, same
 * labels over original intervals, same phase members,
 * representatives and weights, same BIC scores — on real profile
 * data (3 workloads x 4 compilation targets) at 1 and N worker
 * threads, plus the low-level runKMeans contract on synthetic data.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "compile/compiler.hh"
#include "core/mappable.hh"
#include "core/vli.hh"
#include "harness/experiments.hh"
#include "obs/stats.hh"
#include "profile/profile.hh"
#include "simpoint/simpoint.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace xbsp;
using namespace xbsp::sp;

namespace
{

/** Exact (bitwise-value) equality of two SimPoint results. */
void
expectIdenticalResults(const SimPointResult& naive,
                       const SimPointResult& accel,
                       const std::string& context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(naive.k, accel.k);
    EXPECT_EQ(naive.labels, accel.labels);
    EXPECT_EQ(naive.bicByK, accel.bicByK);
    EXPECT_EQ(naive.chosenBic, accel.chosenBic);
    ASSERT_EQ(naive.phases.size(), accel.phases.size());
    for (std::size_t p = 0; p < naive.phases.size(); ++p) {
        EXPECT_EQ(naive.phases[p].id, accel.phases[p].id);
        EXPECT_EQ(naive.phases[p].representative,
                  accel.phases[p].representative);
        EXPECT_EQ(naive.phases[p].weight, accel.phases[p].weight);
        EXPECT_EQ(naive.phases[p].members, accel.phases[p].members);
    }
}

/** Exact equality of two runKMeans outputs. */
void
expectIdenticalKMeans(const KMeansResult& a, const KMeansResult& b)
{
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.centroids, b.centroids);
    EXPECT_EQ(a.clusterWeight, b.clusterWeight);
    EXPECT_EQ(a.weightedSse, b.weightedSse);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
}

/** Counter deltas of one accelerated and one naive fit. */
struct FitWork
{
    u64 mstepRows = 0;
    u64 initTerms = 0;
};

/**
 * Run one fit naive and one accelerated from the same RNG state,
 * require every KMeansResult field to match, and return each side's
 * M-step rows and k-means++ terms.
 */
std::pair<FitWork, FitWork>
expectFitMatchesNaive(const ProjectedData& data, u32 k, u64 seed,
                      KMeansOptions options)
{
    obs::StatRegistry& reg = obs::StatRegistry::global();
    auto work = [&](auto&& fit) {
        const u64 rows0 = reg.counterValue("kmeans.mstep.rows");
        const u64 terms0 = reg.counterValue("kmeans.init.terms");
        const KMeansResult res = fit();
        return std::pair{
            res, FitWork{reg.counterValue("kmeans.mstep.rows") - rows0,
                         reg.counterValue("kmeans.init.terms") -
                             terms0}};
    };
    options.accelerate = false;
    Rng rngA(seed);
    const auto [naive, naiveWork] =
        work([&] { return runKMeans(data, k, rngA, options); });
    options.accelerate = true;
    Rng rngB(seed);
    const auto [accel, accelWork] =
        work([&] { return runKMeans(data, k, rngB, options); });
    expectIdenticalKMeans(naive, accel);
    return {naiveWork, accelWork};
}

/** Gaussian blobs with exact duplicate points mixed in. */
ProjectedData
blobData(std::size_t count, u32 dims, u32 blobs, u64 seed)
{
    Rng rng(seed);
    ProjectedData data;
    data.dims = dims;
    data.count = count;
    data.points.resize(count * dims);
    data.weights.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t blob = i % blobs;
        if (i >= blobs && i % 3 == 0) {
            // Exact duplicate of an earlier point in the same blob.
            for (u32 d = 0; d < dims; ++d)
                data.points[i * dims + d] =
                    data.points[(i - blobs) * dims + d];
        } else {
            for (u32 d = 0; d < dims; ++d)
                data.points[i * dims + d] =
                    10.0 * static_cast<double>(blob) +
                    rng.nextGaussian();
        }
        data.weights[i] = rng.nextDouble(0.5, 2.0);
    }
    return data;
}

/**
 * `distinct` random rows, each repeated `copies` times in one run,
 * with the duplicate-class structure dedup would attach.
 */
ProjectedData
duplicateData(std::size_t distinct, std::size_t copies, u32 dims,
              u64 seed)
{
    Rng rng(seed);
    std::vector<double> rows(distinct * dims);
    for (double& v : rows)
        v = rng.nextGaussian();
    ProjectedData data;
    data.dims = dims;
    data.count = distinct * copies;
    data.points.resize(data.count * dims);
    data.weights.resize(data.count);
    for (std::size_t i = 0; i < data.count; ++i) {
        const std::size_t r = i / copies;
        for (u32 d = 0; d < dims; ++d)
            data.points[i * dims + d] = rows[r * dims + d];
        data.weights[i] = rng.nextDouble(0.5, 2.0);
        data.classOf.push_back(static_cast<u32>(r));
    }
    for (std::size_t r = 0; r < distinct; ++r)
        data.classFirst.push_back(static_cast<u32>(r * copies));
    return data;
}

/**
 * VLI vectors of one workload, built the way a study builds them:
 * profile all four binaries, find the mappable points, split the
 * primary binary at them.
 */
FrequencyVectorSet
vliVectors(const std::string& name, InstrCount interval)
{
    const sim::StudyConfig config = harness::defaultStudyConfig();
    const ir::Program program = workloads::makeWorkload(name, 1.0);
    const std::vector<bin::Binary> bins =
        compile::compileAllTargets(program, config.compileOptions);
    std::vector<prof::ProfilePass> passes;
    for (const bin::Binary& binary : bins)
        passes.push_back(
            prof::runProfilePass(binary, interval, config.engineSeed));
    std::vector<const bin::Binary*> binPtrs;
    std::vector<const prof::MarkerProfile*> profPtrs;
    for (std::size_t b = 0; b < bins.size(); ++b) {
        binPtrs.push_back(&bins[b]);
        profPtrs.push_back(&passes[b].markers);
    }
    const core::MappableSet mappable =
        core::findMappablePoints(binPtrs, profPtrs);
    return core::buildVliPartition(bins[config.primaryIdx], mappable,
                                   config.primaryIdx, interval,
                                   config.engineSeed)
        .intervals;
}

} // namespace

TEST(KMeansEquiv, HamerlyMatchesNaiveAcrossKAndInit)
{
    const ProjectedData data = blobData(240, 8, 5, 77);
    for (const InitMethod init :
         {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
        for (const u32 k : {1u, 2u, 4u, 5u, 9u, 16u}) {
            SCOPED_TRACE("init " + std::to_string(static_cast<int>(
                             init)) + " k " + std::to_string(k));
            KMeansOptions naiveOpts;
            naiveOpts.init = init;
            naiveOpts.accelerate = false;
            KMeansOptions accelOpts = naiveOpts;
            accelOpts.accelerate = true;
            Rng rngA(k * 13 + 1);
            Rng rngB = rngA;
            expectIdenticalKMeans(
                runKMeans(data, k, rngA, naiveOpts),
                runKMeans(data, k, rngB, accelOpts));
        }
    }
}

TEST(KMeansEquiv, HamerlyMatchesNaiveOnDegenerateData)
{
    // All points identical: every re-seeding path triggers.
    ProjectedData flat;
    flat.dims = 3;
    flat.count = 12;
    flat.points.assign(flat.count * flat.dims, 0.25);
    flat.weights.assign(flat.count, 1.0);
    for (const u32 k : {1u, 3u, 12u}) {
        KMeansOptions naiveOpts;
        naiveOpts.accelerate = false;
        KMeansOptions accelOpts;
        accelOpts.accelerate = true;
        Rng rngA(5);
        Rng rngB = rngA;
        expectIdenticalKMeans(runKMeans(flat, k, rngA, naiveOpts),
                              runKMeans(flat, k, rngB, accelOpts));
    }
}

/**
 * With k above the number of distinct rows some cluster is empty
 * after every E-step, re-seeding moves one point, and the loop
 * never converges: it cycles.  The accelerated loop proves the cycle
 * and jumps to maxIterations; the result must still equal running
 * every iteration.  99, 100 and 101 iterations put the jump's
 * remainder at every offset within a period-2 cycle, and the proven
 * iteration counts pin where (and with which period) each shape's
 * cycle was detected.
 */
TEST(KMeansEquiv, ProvenCycleMatchesNaive)
{
    struct Shape
    {
        const char* name;
        u64 dataSeed;
        u32 period;
        u32 detectedAt;  ///< iteration that repeats a checkpoint
    };
    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const Shape& shape : {Shape{"period 2", 1, 2, 4},
                               Shape{"period 1", 2, 1, 2}}) {
        const ProjectedData data =
            duplicateData(2, 7, 4, shape.dataSeed);
        const u32 k = 3;
        for (const u32 maxIterations : {99u, 100u, 101u}) {
            SCOPED_TRACE(std::string(shape.name) + " max " +
                         std::to_string(maxIterations));
            KMeansOptions naiveOpts;
            naiveOpts.maxIterations = maxIterations;
            naiveOpts.accelerate = false;
            KMeansOptions accelOpts = naiveOpts;
            accelOpts.accelerate = true;
            Rng rngA(shape.dataSeed * 7 + k);
            Rng rngB = rngA;

            const u64 cycles0 = reg.counterValue("kmeans.cycles");
            const u64 proven0 =
                reg.counterValue("kmeans.iterations.proven");
            const KMeansResult naive =
                runKMeans(data, k, rngA, naiveOpts);
            EXPECT_EQ(reg.counterValue("kmeans.cycles"), cycles0);
            const KMeansResult accel =
                runKMeans(data, k, rngB, accelOpts);
            expectIdenticalKMeans(naive, accel);
            EXPECT_EQ(accel.iterations, maxIterations);
            EXPECT_FALSE(accel.converged);

            EXPECT_EQ(reg.counterValue("kmeans.cycles") - cycles0, 1u);
            const u32 skipped = (maxIterations - shape.detectedAt) /
                                shape.period * shape.period;
            EXPECT_EQ(reg.counterValue("kmeans.iterations.proven") -
                          proven0,
                      skipped);
        }
    }
}

TEST(KMeansEquiv, ReseedWithMixedOwnersMatchesNaive)
{
    // Zero-weight points leave clusters empty right after a random
    // partition, so the first re-seed scans duplicate classes whose
    // members still carry different labels: the memoised worst-point
    // scan must key its distances by (class, owner), not class.
    for (const u64 seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        ProjectedData data = duplicateData(3, 8, 4, seed);
        for (std::size_t i = 0; i < data.count; ++i) {
            if (i % 4 != 3)
                data.weights[i] = 0.0;
        }
        for (const u32 k : {3u, 5u, 8u}) {
            KMeansOptions naiveOpts;
            naiveOpts.init = InitMethod::RandomPartition;
            naiveOpts.accelerate = false;
            KMeansOptions accelOpts = naiveOpts;
            accelOpts.accelerate = true;
            Rng rngA(seed * 31 + k);
            Rng rngB = rngA;
            expectIdenticalKMeans(runKMeans(data, k, rngA, naiveOpts),
                                  runKMeans(data, k, rngB, accelOpts));
        }
    }
}

/**
 * Duplicate-heavy data: once k-means++ has picked a centroid inside a
 * class, every member's term is +0 and leaves the active list.  The
 * draws must still land where the naive draws land, while summing
 * fewer terms.
 */
TEST(KMeansEquiv, PlusPlusSkipsZeroMassPoints)
{
    const ProjectedData data = duplicateData(6, 40, 4, 11);
    for (const u32 k : {2u, 3u, 5u, 6u, 8u}) {
        for (const u64 seed : {1u, 2u, 3u, 4u}) {
            SCOPED_TRACE("k " + std::to_string(k) + " seed " +
                         std::to_string(seed));
            const auto [naive, accel] =
                expectFitMatchesNaive(data, k, seed * 97 + k, {});
            // Naive sums every term of all k draws.  Each chosen
            // centroid zeroes a whole new class of 40 points, so by
            // draw j the accelerated draws have dropped min(j, 6)
            // classes.
            EXPECT_EQ(naive.initTerms, u64{k} * data.count);
            u64 dropped = 0;
            for (u32 j = 1; j < k; ++j)
                dropped += u64{40} * std::min(j, 6u);
            EXPECT_EQ(accel.initTerms + dropped, naive.initTerms);
        }
    }
}

/**
 * All-identical rows with k >= 2: after the first pick every term is
 * +0, so total == 0, r == 0 and the naive draw picks index 0 — which
 * the accelerated draw must reproduce from an empty active list.
 */
TEST(KMeansEquiv, PlusPlusAllZeroTermsPicksFirstPoint)
{
    ProjectedData data = duplicateData(1, 15, 3, 4);
    for (const u32 k : {2u, 3u, 7u}) {
        SCOPED_TRACE("k " + std::to_string(k));
        const auto [naive, accel] =
            expectFitMatchesNaive(data, k, 19 + k, {});
        // Only the first draw has a non-zero term.
        EXPECT_EQ(accel.initTerms, data.count);
        EXPECT_EQ(naive.initTerms, u64{k} * data.count);
    }
}

/**
 * r can also be 0 while a term is still live: with a total of one
 * denormal term, r = u * total rounds to 0 whenever u < 0.5.  The
 * naive draw then picks index 0 — here a point already chosen — not
 * the first live point.
 */
TEST(KMeansEquiv, PlusPlusZeroDrawPicksIndexZero)
{
    ProjectedData data;
    data.dims = 3;
    data.count = 3;
    data.points = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    data.weights = {1.0, 1.0,
                    std::numeric_limits<double>::denorm_min()};
    KMeansOptions options;
    options.maxIterations = 0;
    u32 zeroDraws = 0;
    for (u64 seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        options.accelerate = false;
        Rng rngA(seed);
        const KMeansResult naive = runKMeans(data, 2, rngA, options);
        options.accelerate = true;
        Rng rngB(seed);
        const KMeansResult accel = runKMeans(data, 2, rngB, options);
        EXPECT_EQ(naive.centroids, accel.centroids);
        EXPECT_EQ(naive.labels, accel.labels);
        if (accel.centroid(1, data.dims)[0] == 0.0)
            ++zeroDraws;
    }
    EXPECT_GT(zeroDraws, 0u);
}

/**
 * A draw whose scan runs off the end picks the last point, not the
 * last active one.  A NaN weight makes every total NaN, so no draw
 * ever satisfies r <= 0: the first draw picks the last point, whose
 * term then drops to +0 and leaves the active list, and every later
 * draw must pick it again.  maxIterations = 0 leaves the k-means++
 * rows in place to compare.
 */
TEST(KMeansEquiv, PlusPlusScanOffTheEndPicksLastPoint)
{
    ProjectedData data = blobData(30, 3, 3, 9);
    data.weights[4] = std::nan("");
    KMeansOptions options;
    options.maxIterations = 0;
    for (const u32 k : {2u, 4u}) {
        SCOPED_TRACE("k " + std::to_string(k));
        options.accelerate = false;
        Rng rngA(k);
        const KMeansResult naive = runKMeans(data, k, rngA, options);
        options.accelerate = true;
        Rng rngB(k);
        const KMeansResult accel = runKMeans(data, k, rngB, options);
        EXPECT_EQ(naive.centroids, accel.centroids);
        EXPECT_EQ(naive.labels, accel.labels);
        const auto last = data.point(data.count - 1);
        for (u32 c = 0; c < k; ++c) {
            const auto row = accel.centroid(c, data.dims);
            EXPECT_TRUE(std::equal(row.begin(), row.end(), last.begin()))
                << "centroid " << c;
        }
    }
}

/**
 * A far, tight group keeps its membership from the first M-step on
 * while the boundary between two clusters inside a spread-out group
 * keeps moving.  The M-steps in between rebuild only the clusters
 * that changed, so the accelerated fits accumulate a row count that
 * is not a whole multiple of the point count.
 */
TEST(KMeansEquiv, DirtyClusterMStepMatchesNaive)
{
    ProjectedData data;
    data.dims = 2;
    Rng rng(23);
    auto add = [&](double x, double y) {
        data.points.push_back(x);
        data.points.push_back(y);
        data.weights.push_back(rng.nextDouble(0.5, 2.0));
        ++data.count;
    };
    for (int i = 0; i < 30; ++i) {
        add(1000.0 + rng.nextDouble(), rng.nextDouble());
        add(rng.nextDouble(0.0, 10.0), rng.nextDouble(0.0, 3.0));
        add(rng.nextDouble(0.0, 10.0), rng.nextDouble(0.0, 3.0));
    }
    u64 partialFits = 0;
    for (const u64 seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto [naive, accel] =
            expectFitMatchesNaive(data, 3, seed, {});
        EXPECT_LT(accel.mstepRows, naive.mstepRows);
        if (accel.mstepRows % data.count != 0)
            ++partialFits;
    }
    EXPECT_GT(partialFits, 0u);
}

/**
 * The re-seed path, where stolen points mark their donors and the
 * re-seeded clusters dirty, at 99, 100 and 101 iterations (the same
 * cycling shapes as ProvenCycleMatchesNaive) under both seedings,
 * and with zero-weight points whose clusters stay empty after a
 * re-seed.
 */
TEST(KMeansEquiv, ReseedPathMatchesNaiveAtIterationCap)
{
    for (const InitMethod init :
         {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
        for (const u64 dataSeed : {1u, 2u}) {
            ProjectedData data = duplicateData(2, 7, 4, dataSeed);
            ProjectedData light = data;
            for (std::size_t i = 0; i < light.count; i += 3)
                light.weights[i] = 0.0;
            for (const u32 maxIterations : {99u, 100u, 101u}) {
                SCOPED_TRACE("init " +
                             std::to_string(static_cast<int>(init)) +
                             " data " + std::to_string(dataSeed) +
                             " max " + std::to_string(maxIterations));
                KMeansOptions options;
                options.init = init;
                options.maxIterations = maxIterations;
                for (const u32 k : {3u, 4u}) {
                    expectFitMatchesNaive(data, k, dataSeed * 7 + k,
                                          options);
                    expectFitMatchesNaive(light, k, dataSeed * 5 + k,
                                          options);
                }
            }
        }
    }
}

/**
 * The suite workloads whose VLI sweeps cycle: at 2K-instruction
 * intervals applu's VLI vectors have fewer distinct rows than
 * k = 7..10 and vpr's fewer than k = 10.  The whole sweep, naive
 * against accelerated, must agree bit for bit, and the accelerated
 * one must actually have taken the shortcut.
 */
TEST(ClusteringEquiv, CyclingVliSweepsBitIdentical)
{
    SimPointOptions naiveOpts = harness::defaultStudyConfig().simpoint;
    naiveOpts.accelerate = false;
    SimPointOptions accelOpts = naiveOpts;
    accelOpts.accelerate = true;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const std::string name : {"applu", "vpr"}) {
        const FrequencyVectorSet fvs = vliVectors(name, 2'000);
        const SimPointResult naive =
            pickSimulationPoints(fvs, naiveOpts);
        const u64 cycles0 = reg.counterValue("kmeans.cycles");
        const SimPointResult accel =
            pickSimulationPoints(fvs, accelOpts);
        EXPECT_GT(reg.counterValue("kmeans.cycles"), cycles0) << name;
        expectIdenticalResults(naive, accel, name + " VLI");
    }
}

/**
 * The headline guarantee: the full accelerated pipeline (dedup +
 * Hamerly + parallel sweep) is bit-identical to the naive pipeline
 * on the FLI profile vectors of every binary of several workloads,
 * with both 1 worker and several.
 */
TEST(ClusteringEquiv, AcceleratedPipelineBitIdenticalOnWorkloads)
{
    const std::vector<std::string> names{"gzip", "mcf", "swim"};
    SimPointOptions naiveOpts;
    naiveOpts.maxK = 10;
    naiveOpts.accelerate = false;
    SimPointOptions accelOpts = naiveOpts;
    accelOpts.accelerate = true;

    for (const std::string& name : names) {
        const ir::Program program = workloads::makeWorkload(name, 1.0);
        const std::vector<bin::Binary> bins =
            compile::compileAllTargets(program);
        ASSERT_EQ(bins.size(), 4u);
        for (const bin::Binary& binary : bins) {
            // A small interval target yields thousands of intervals
            // with heavy exact duplication, so dedup, the Hamerly
            // bounds and the parallel sweep are all genuinely hot.
            const prof::ProfilePass pass =
                prof::runProfilePass(binary, 10000);
            ASSERT_GT(pass.fliIntervals.size(), 100u);
            const std::string context =
                name + " / " + binary.displayName();

            setGlobalJobs(1);
            const SimPointResult naive =
                pickSimulationPoints(pass.fliIntervals, naiveOpts);
            const SimPointResult accelSerial =
                pickSimulationPoints(pass.fliIntervals, accelOpts);
            setGlobalJobs(4);
            const SimPointResult accelParallel =
                pickSimulationPoints(pass.fliIntervals, accelOpts);
            setGlobalJobs(0);

            expectIdenticalResults(naive, accelSerial,
                                   context + " (1 thread)");
            expectIdenticalResults(naive, accelParallel,
                                   context + " (4 threads)");
        }
    }
}

/**
 * Phase building on suite vectors: members, representatives and
 * weights from the accelerated pipeline (members bucketed in one
 * pass, distances memoised per duplicate class) equal the naive
 * pipeline's.  The new work counters must also be identical at 1 and
 * 4 workers, like every exact counter.
 */
TEST(ClusteringEquiv, SuitePhasesAndWorkCountersMatch)
{
    SimPointOptions naiveOpts;
    naiveOpts.maxK = 10;
    naiveOpts.accelerate = false;
    SimPointOptions accelOpts = naiveOpts;
    accelOpts.accelerate = true;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    auto work = [&reg] {
        return std::array<u64, 3>{
            reg.counterValue("kmeans.mstep.rows"),
            reg.counterValue("kmeans.init.terms"),
            reg.counterValue("kmeans.estep.distances")};
    };
    auto since = [](const std::array<u64, 3>& after,
                    const std::array<u64, 3>& before) {
        return std::array<u64, 3>{after[0] - before[0],
                                  after[1] - before[1],
                                  after[2] - before[2]};
    };
    for (const std::string name : {"gcc", "art", "equake", "twolf"}) {
        const ir::Program program = workloads::makeWorkload(name, 1.0);
        const bin::Binary binary =
            compile::compileProgram(program, bin::target32o);
        const prof::ProfilePass pass =
            prof::runProfilePass(binary, 10000);
        ASSERT_GT(pass.fliIntervals.size(), 100u) << name;

        const auto before = work();
        const SimPointResult naive =
            pickSimulationPoints(pass.fliIntervals, naiveOpts);
        const auto naiveWork = since(work(), before);

        setGlobalJobs(1);
        const auto serialStart = work();
        const SimPointResult serial =
            pickSimulationPoints(pass.fliIntervals, accelOpts);
        const auto serialWork = since(work(), serialStart);
        setGlobalJobs(4);
        const auto parallelStart = work();
        const SimPointResult parallel =
            pickSimulationPoints(pass.fliIntervals, accelOpts);
        const auto parallelWork = since(work(), parallelStart);
        setGlobalJobs(0);

        expectIdenticalResults(naive, serial, name + " (1 thread)");
        expectIdenticalResults(naive, parallel, name + " (4 threads)");
        EXPECT_EQ(serialWork, parallelWork) << name;
        // The accelerated sweep accumulates fewer M-step rows and
        // sums fewer k-means++ terms than the naive one.
        EXPECT_LT(serialWork[0], naiveWork[0]) << name;
        EXPECT_LT(serialWork[1], naiveWork[1]) << name;
    }
}

/**
 * The accelerated path must not just match the naive result — its
 * observability counters must show *why* it is cheaper: the naive
 * sweep never touches the Hamerly counters, the accelerated sweep
 * proves most class assignments by the bound (skips > 0) and
 * evaluates strictly fewer E-step distances.
 */
TEST(ClusteringEquiv, StatsQuantifyAcceleration)
{
    const ir::Program program = workloads::makeWorkload("gzip", 1.0);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 10000);
    ASSERT_GT(pass.fliIntervals.size(), 100u);

    SimPointOptions naiveOpts;
    naiveOpts.maxK = 10;
    naiveOpts.accelerate = false;
    SimPointOptions accelOpts = naiveOpts;
    accelOpts.accelerate = true;

    obs::StatRegistry& reg = obs::StatRegistry::global();
    auto snapshot = [&reg]() {
        struct Work
        {
            u64 distances, skips, fallbacks;
        };
        return Work{reg.counterValue("kmeans.estep.distances"),
                    reg.counterValue("kmeans.hamerly.skips"),
                    reg.counterValue("kmeans.hamerly.fallbacks")};
    };

    const auto base = snapshot();
    const SimPointResult naive =
        pickSimulationPoints(pass.fliIntervals, naiveOpts);
    const auto afterNaive = snapshot();
    const SimPointResult accel =
        pickSimulationPoints(pass.fliIntervals, accelOpts);
    const auto afterAccel = snapshot();
    expectIdenticalResults(naive, accel, "gzip/32o stats run");

    // The naive sweep counts distances but never consults the bound.
    const u64 naiveDistances = afterNaive.distances - base.distances;
    EXPECT_GT(naiveDistances, 0u);
    EXPECT_EQ(afterNaive.skips, base.skips);
    EXPECT_EQ(afterNaive.fallbacks, base.fallbacks);

    // The accelerated sweep skips real work and pays fewer distances.
    const u64 accelDistances =
        afterAccel.distances - afterNaive.distances;
    EXPECT_GT(accelDistances, 0u);
    EXPECT_LT(accelDistances, naiveDistances);
    EXPECT_GT(afterAccel.skips - afterNaive.skips, 0u);

    // The sweep-level stats moved too: one sweep per engine, each
    // sampling the same chosen k into the distribution.
    EXPECT_GE(reg.counterValue("simpoint.sweeps"), 2u);
    EXPECT_GT(reg.counterValue("kmeans.fits"), 0u);
    EXPECT_GT(reg.counterValue("dedup.calls"), 0u);
}

/**
 * `accelerate` and the worker count are pure speed knobs.  Sweep
 * accelerate on/off x jobs 1/4 on real profile data; every
 * combination must produce a study report (labels, BIC scores,
 * phases) bit-identical to the serial naive reference.
 */
TEST(ClusteringEquiv, SimdSweepBitIdentical)
{
    const ir::Program program = workloads::makeWorkload("gzip", 1.0);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 10000);
    ASSERT_GT(pass.fliIntervals.size(), 100u);

    SimPointOptions opts;
    opts.maxK = 10;

    // Reference: serial, naive E-step.
    setGlobalJobs(1);
    opts.accelerate = false;
    const SimPointResult reference =
        pickSimulationPoints(pass.fliIntervals, opts);

    for (const bool accel : {false, true}) {
        for (const u64 jobs : {u64{1}, u64{4}}) {
            opts.accelerate = accel;
            setGlobalJobs(jobs);
            const SimPointResult got =
                pickSimulationPoints(pass.fliIntervals, opts);
            expectIdenticalResults(
                reference, got,
                std::string("accel=") + (accel ? "on" : "off") +
                    " jobs=" + std::to_string(jobs));
        }
    }
    setGlobalJobs(0);
}

TEST(ClusteringEquiv, DedupCollapsesDuplicateHeavyInput)
{
    // Phase-structured input with exactly repeating vectors: dedup
    // must collapse each repetition class to one representative and
    // the clustering must still be bit-identical to naive.
    FrequencyVectorSet fvs;
    fvs.dimension = 64;
    for (std::size_t i = 0; i < 300; ++i) {
        const u32 phase = static_cast<u32>((i / 100) * 16);
        SparseVec vec;
        for (u32 d = 0; d < 4; ++d)
            vec.emplace_back(phase + d, 10.0 * (d + 1));
        fvs.addInterval(std::move(vec), 1000);
    }
    FrequencyVectorSet normalized = fvs;
    normalized.normalize();
    const DedupMap map = normalized.dedup();
    EXPECT_EQ(map.classes(), 3u);
    EXPECT_EQ(map.classOf.size(), 300u);
    EXPECT_EQ(map.classLength[0], 100u * 1000u);

    SimPointOptions naiveOpts;
    naiveOpts.accelerate = false;
    SimPointOptions accelOpts;
    accelOpts.accelerate = true;
    expectIdenticalResults(pickSimulationPoints(fvs, naiveOpts),
                           pickSimulationPoints(fvs, accelOpts),
                           "duplicate-heavy synthetic");
}
