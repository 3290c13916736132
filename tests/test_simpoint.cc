/**
 * @file
 * Unit tests for the SimPoint machinery: frequency vectors, random
 * projection, weighted k-means, BIC and the end-to-end picker.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "simpoint/reference.hh"
#include "simpoint/simpoint.hh"
#include "test_support.hh"
#include "util/threadpool.hh"

using namespace xbsp;
using namespace xbsp::sp;

namespace
{

/**
 * Synthetic interval set with `k` well-separated ground-truth
 * behaviours in a `dim`-dimensional space; cluster c uses dimensions
 * [c*8, c*8+4) with cluster-specific magnitudes plus small noise.
 */
FrequencyVectorSet
syntheticClusters(u32 k, std::size_t perCluster, u64 seed = 5,
                  InstrCount length = 1000)
{
    Rng rng(seed);
    FrequencyVectorSet fvs;
    fvs.dimension = k * 8 + 8;
    for (std::size_t i = 0; i < perCluster * k; ++i) {
        const u32 c = static_cast<u32>(i % k);
        SparseVec vec;
        for (u32 d = 0; d < 4; ++d) {
            vec.emplace_back(c * 8 + d,
                             100.0 * (d + 1) +
                                 rng.nextDouble(-2.0, 2.0));
        }
        fvs.addInterval(std::move(vec), length);
    }
    return fvs;
}

/** Ground-truth label of interval i in syntheticClusters. */
u32
truthLabel(std::size_t i, u32 k)
{
    return static_cast<u32>(i % k);
}

/** Fraction of pairs whose same/different-cluster relation matches. */
double
pairAgreement(const std::vector<u32>& labels, u32 k)
{
    std::size_t agree = 0, total = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        for (std::size_t j = i + 1; j < labels.size(); ++j) {
            const bool sameTruth =
                truthLabel(i, k) == truthLabel(j, k);
            const bool sameFound = labels[i] == labels[j];
            agree += sameTruth == sameFound ? 1 : 0;
            ++total;
        }
    }
    return static_cast<double>(agree) / static_cast<double>(total);
}

} // namespace

TEST(Fvec, NormalizeMakesVectorsSumToOne)
{
    FrequencyVectorSet fvs = syntheticClusters(3, 5);
    fvs.normalize();
    for (std::size_t i = 0; i < fvs.size(); ++i)
        EXPECT_NEAR(sparseSum(fvs.row(i)), 1.0, 1e-12);
}

TEST(Fvec, TotalInstructions)
{
    FrequencyVectorSet fvs = syntheticClusters(2, 3, 5, 700);
    EXPECT_EQ(fvs.totalInstructions(), 6u * 700u);
}

TEST(Fvec, RejectsUnsortedIndices)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 10;
    SparseVec bad{{5, 1.0}, {3, 1.0}};
    EXPECT_DEATH(fvs.addInterval(bad, 1), "strictly rising");
}

TEST(Fvec, RejectsOutOfRangeIndex)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    SparseVec bad{{7, 1.0}};
    EXPECT_DEATH(fvs.addInterval(bad, 1), "exceeds dimension");
}

TEST(Fvec, DedupGroupsEqualVectors)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 8;
    for (int rep = 0; rep < 3; ++rep) {
        fvs.addInterval(SparseVec{{0, 1.0}, {3, 2.0}}, 100);
        fvs.addInterval(SparseVec{{1, 5.0}}, 200);
    }
    fvs.addInterval(SparseVec{{0, 1.0}, {3, 2.5}}, 300);
    const DedupMap map = fvs.dedup();
    EXPECT_EQ(map.classes(), 3u);
    EXPECT_EQ(map.classOf,
              (std::vector<u32>{0, 1, 0, 1, 0, 1, 2}));
    EXPECT_EQ(map.firstOf, (std::vector<u32>{0, 1, 6}));
}

TEST(Fvec, DedupKeepsNearEqualVectorsApart)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    fvs.addInterval(SparseVec{{0, 1.000}}, 10);
    fvs.addInterval(SparseVec{{0, 1.004}}, 10);
    fvs.addInterval(SparseVec{{0, 1.200}}, 10);
    EXPECT_EQ(fvs.dedup().classes(), 3u);
}

TEST(Projection, ShapeAndDeterminism)
{
    FrequencyVectorSet fvs = syntheticClusters(3, 10);
    fvs.normalize();
    const ProjectedData a = project(fvs, 15, 42);
    const ProjectedData b = project(fvs, 15, 42);
    const ProjectedData c = project(fvs, 15, 43);
    EXPECT_EQ(a.dims, 15u);
    EXPECT_EQ(a.count, 30u);
    EXPECT_EQ(a.classRows, b.classRows);
    EXPECT_NE(a.classRows, c.classRows);
}

TEST(Projection, WeightsSumToPointCount)
{
    FrequencyVectorSet fvs = syntheticClusters(2, 10, 5, 500);
    fvs.lengths[0] = 5000; // one long interval
    const ProjectedData data = project(fvs, 8, 1);
    double sum = 0.0;
    for (double w : data.weights)
        sum += w;
    EXPECT_NEAR(sum, static_cast<double>(data.count), 1e-9);
    EXPECT_GT(data.weights[0], data.weights[1]);
}

TEST(Projection, PreservesClusterSeparation)
{
    // After projection, same-truth-cluster points must stay closer
    // than different-cluster points on average.
    FrequencyVectorSet fvs = syntheticClusters(4, 10);
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 7);
    double same = 0.0, diff = 0.0;
    std::size_t nSame = 0, nDiff = 0;
    for (std::size_t i = 0; i < data.count; ++i) {
        for (std::size_t j = i + 1; j < data.count; ++j) {
            const double d = sqDist(data.point(i), data.point(j));
            if (truthLabel(i, 4) == truthLabel(j, 4)) {
                same += d;
                ++nSame;
            } else {
                diff += d;
                ++nDiff;
            }
        }
    }
    EXPECT_LT(same / nSame, 0.05 * (diff / nDiff));
}

TEST(KMeans, RecoversWellSeparatedClusters)
{
    FrequencyVectorSet fvs = syntheticClusters(4, 12);
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 11);
    Rng rng(3);
    const KMeansResult result = runKMeans(data, 4, rng);
    EXPECT_EQ(result.k, 4u);
    EXPECT_GT(pairAgreement(result.labels, 4), 0.999);
    EXPECT_TRUE(result.converged);
}

TEST(KMeans, BothInitMethodsWork)
{
    FrequencyVectorSet fvs = syntheticClusters(3, 10);
    fvs.normalize();
    const ProjectedData data = project(fvs, 10, 13);
    for (InitMethod init :
         {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
        Rng rng(5);
        KMeansOptions options;
        options.init = init;
        const KMeansResult result = runKMeans(data, 3, rng, options);
        EXPECT_GT(pairAgreement(result.labels, 3), 0.99)
            << "init " << static_cast<int>(init);
    }
}

TEST(KMeans, KClampedToPointCount)
{
    FrequencyVectorSet fvs = syntheticClusters(2, 2); // 4 points
    fvs.normalize();
    const ProjectedData data = project(fvs, 4, 1);
    Rng rng(1);
    const KMeansResult result = runKMeans(data, 10, rng);
    EXPECT_EQ(result.k, 4u);
}

TEST(KMeans, SseDecreasesWithK)
{
    FrequencyVectorSet fvs = syntheticClusters(5, 10);
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 17);
    double prev = std::numeric_limits<double>::max();
    for (u32 k : {1u, 2u, 5u}) {
        Rng rng(9);
        const KMeansResult result = runKMeans(data, k, rng);
        EXPECT_LE(result.weightedSse, prev + 1e-9);
        prev = result.weightedSse;
    }
}

TEST(KMeans, WeightsPullCentroids)
{
    // Two points; the heavy one dominates a single centroid.
    ProjectedData data;
    data.dims = 1;
    data.count = 2;
    data.classRows = {0.0, 1.0};
    data.weights = {1.8, 0.2};
    data.classOf = {0, 1};
    data.classFirst = {0, 1};
    data.buildRunIndex();
    Rng rng(1);
    const KMeansResult result = runKMeans(data, 1, rng);
    EXPECT_NEAR(result.centroids[0], 0.1, 1e-9);
    EXPECT_NEAR(result.clusterWeight[0], 2.0, 1e-9);
}

TEST(KMeans, PanicsWithoutCurrentRunIndex)
{
    // Hand-built data must be indexed, and indexed again after a
    // point is added: an index that misses a point would leave it out
    // of every M-step and k-means++ draw.
    ProjectedData data;
    data.dims = 1;
    data.count = 2;
    data.classRows = {0.0, 1.0};
    data.weights = {1.0, 1.0};
    data.classOf = {0, 1};
    data.classFirst = {0, 1};
    Rng rng(1);
    EXPECT_DEATH((void)runKMeans(data, 1, rng), "current run index");

    data.buildRunIndex();
    EXPECT_EQ(data.runs(), 2u);
    data.count = 3;
    data.weights.push_back(1.0);
    data.classOf.push_back(1);
    EXPECT_DEATH((void)runKMeans(data, 1, rng), "current run index");

    data.buildRunIndex();
    EXPECT_EQ(data.runStart, (std::vector<u32>{0, 1, 3}));
    EXPECT_EQ(runKMeans(data, 1, rng).clusterWeight[0], 3.0);
}

TEST(Bic, PrefersTrueK)
{
    FrequencyVectorSet fvs = syntheticClusters(4, 15);
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 21);
    std::vector<double> scores;
    for (u32 k = 1; k <= 8; ++k) {
        Rng rng(7);
        scores.push_back(bicScore(data, runKMeans(data, k, rng)));
    }
    // The best score occurs at k >= 4 and k=4 is far better than
    // k=1..3 (splitting true clusters beyond 4 gains little).
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] > scores[best])
            best = i;
    }
    EXPECT_GE(best + 1, 4u);
    EXPECT_GT(scores[3], scores[0]);
    EXPECT_GT(scores[3], scores[1]);
    EXPECT_GT(scores[3], scores[2]);
}

TEST(Bic, NormalizeMapsToUnitRange)
{
    const std::vector<double> norm =
        normalizeBic({-10.0, 0.0, 30.0, 10.0});
    EXPECT_DOUBLE_EQ(norm[0], 0.0);
    EXPECT_DOUBLE_EQ(norm[2], 1.0);
    EXPECT_NEAR(norm[1], 0.25, 1e-12);
    const std::vector<double> flat = normalizeBic({3.0, 3.0});
    EXPECT_DOUBLE_EQ(flat[0], 1.0);
    EXPECT_DOUBLE_EQ(flat[1], 1.0);
}

TEST(SimPointPick, FindsPhasesAndWeights)
{
    FrequencyVectorSet fvs = syntheticClusters(4, 20);
    SimPointOptions options;
    options.maxK = 10;
    const SimPointResult result = pickSimulationPoints(fvs, options);

    EXPECT_GE(result.k, 4u);
    EXPECT_EQ(result.labels.size(), fvs.size());
    EXPECT_EQ(result.bicByK.size(), 10u);

    // Phases are non-empty, in rising id order, and each one's
    // representative is a member: an interval carrying its label.
    double totalWeight = 0.0;
    const std::vector<std::vector<u32>> members = test::phaseMembers(result);
    for (std::size_t p = 0; p < result.phases.size(); ++p) {
        const Phase& phase = result.phases[p];
        totalWeight += phase.weight;
        EXPECT_LT(phase.id, result.k);
        if (p > 0) {
            EXPECT_GT(phase.id, result.phases[p - 1].id);
        }
        EXPECT_FALSE(members[p].empty());
        EXPECT_TRUE(std::ranges::binary_search(members[p],
                                               phase.representative));
    }
    EXPECT_NEAR(totalWeight, 1.0, 1e-9);
}

TEST(SimPointPick, WeightsFollowInstructionLengths)
{
    // Two behaviours; behaviour 0 intervals are 3x as long.
    FrequencyVectorSet fvs = syntheticClusters(2, 20);
    for (std::size_t i = 0; i < fvs.size(); ++i)
        fvs.lengths[i] = (i % 2 == 0) ? 3000 : 1000;
    SimPointOptions options;
    options.maxK = 4;
    const SimPointResult result = pickSimulationPoints(fvs, options);
    const std::vector<std::vector<u32>> members = test::phaseMembers(result);
    for (std::size_t p = 0; p < result.phases.size(); ++p) {
        const Phase& phase = result.phases[p];
        const u32 truth = truthLabel(members[p][0], 2);
        if (result.k == 2) {
            EXPECT_NEAR(phase.weight, truth == 0 ? 0.75 : 0.25,
                        0.01);
        }
    }
}

TEST(SimPointPick, DeterministicBySeed)
{
    FrequencyVectorSet fvs = syntheticClusters(3, 15);
    SimPointOptions options;
    const SimPointResult a = pickSimulationPoints(fvs, options);
    const SimPointResult b = pickSimulationPoints(fvs, options);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.labels, b.labels);
}

TEST(SimPointPick, SingleIntervalDegenerate)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    fvs.addInterval(SparseVec{{0, 5.0}}, 1000);
    SimPointOptions options;
    const SimPointResult result = pickSimulationPoints(fvs, options);
    EXPECT_EQ(result.k, 1u);
    ASSERT_EQ(result.phases.size(), 1u);
    EXPECT_EQ(result.phases[0].representative, 0u);
    EXPECT_DOUBLE_EQ(result.phases[0].weight, 1.0);
}

TEST(SimPointPick, AllIdenticalIntervalsCollapseToOnePhase)
{
    // Every interval carries the same vector: BIC must settle on a
    // single phase covering everything, in the engine and in the
    // naive reference sweep alike, at 1 and 4 workers.
    FrequencyVectorSet fvs;
    fvs.dimension = 8;
    for (int i = 0; i < 25; ++i)
        fvs.addInterval(SparseVec{{1, 3.0}, {4, 9.0}}, 1000);
    const SimPointOptions options;
    auto check = [](const SimPointResult& result) {
        EXPECT_EQ(result.k, 1u);
        ASSERT_EQ(result.phases.size(), 1u);
        EXPECT_DOUBLE_EQ(result.phases[0].weight, 1.0);
        EXPECT_EQ(test::phaseMembers(result)[0].size(), 25u);
    };
    for (const u64 jobs : {u64{1}, u64{4}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        setGlobalJobs(jobs);
        const SimPointResult engine = pickSimulationPoints(fvs, options);
        const SimPointResult reference =
            referenceSimPoints(fvs, options).result;
        check(engine);
        check(reference);
        EXPECT_EQ(engine.labels, reference.labels);
        EXPECT_EQ(engine.bicByK, reference.bicByK);
    }
    setGlobalJobs(0);
}

TEST(SimPointPick, TiedSeedsPickTheLowestSeedIndex)
{
    // Two pairs of coincident intervals: every k = 2 fit splits the
    // pairs with an SSE of exactly 0, but k-means++ starts from
    // either pair, so seeds tie with swapped labels.  The sweep must
    // keep seed 0's fit, as the sequential reference sweep does, at
    // any worker count and whichever fit finishes first.
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    for (const u32 block : {0u, 2u, 0u, 2u})
        fvs.addInterval(SparseVec{{block, 1.0}}, 1000);
    FrequencyVectorSet normalized = fvs;
    normalized.normalize();

    SimPointOptions options;
    options.maxK = 2;
    KMeansOptions kmOpts;
    kmOpts.init = options.init;
    kmOpts.maxIterations = options.maxIterations;

    std::size_t swapped = 0;
    for (u64 seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        options.seed = seed;
        // The k = 2 fits of every seed index, drawn from the streams
        // the sweep forks.
        const ProjectedData data =
            project(normalized, options.projectedDims, options.seed);
        const Rng rng(hashMix(options.seed ^ 0xB1Cull));
        std::vector<KMeansResult> fits;
        for (u32 s = 0; s < options.seedsPerK; ++s) {
            Rng seedRng = rng.fork((u64{2} << 16) | s);
            fits.push_back(referenceKMeans(data, 2, seedRng, kmOpts).result);
            EXPECT_EQ(fits[s].weightedSse, fits[0].weightedSse);
        }
        swapped += std::any_of(fits.begin(), fits.end(),
                               [&](const KMeansResult& fit) {
                                   return fit.labels != fits[0].labels;
                               });

        const SimPointResult reference =
            referenceSimPoints(fvs, options).result;
        ASSERT_EQ(reference.k, 2u);
        EXPECT_EQ(reference.labels, fits[0].labels);
        for (const u64 jobs : {u64{1}, u64{4}}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs));
            setGlobalJobs(jobs);
            EXPECT_EQ(pickSimulationPoints(fvs, options).labels,
                      fits[0].labels);
        }
    }
    setGlobalJobs(0);
    // The property is only tested where the seeds disagree.
    EXPECT_GT(swapped, 0u);
}

TEST(SimPointPick, FewerIntervalsThanMaxK)
{
    // n < maxK (and n < default k range): k must clamp, every
    // interval must be labelled, and weights must sum to 1.
    FrequencyVectorSet fvs = syntheticClusters(3, 1); // 3 intervals
    SimPointOptions options;
    options.maxK = 10;
    const SimPointResult result = pickSimulationPoints(fvs, options);
    EXPECT_LE(result.k, 3u);
    EXPECT_EQ(result.labels.size(), 3u);
    double total = 0.0;
    for (const Phase& phase : result.phases)
        total += phase.weight;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SimPointPick, ZeroLengthIntervalsFallBackToCountWeights)
{
    // All lengths zero: instruction weighting is undefined, so the
    // phase weights fall back to interval counts (still summing to
    // 1) instead of collapsing to 0.
    FrequencyVectorSet fvs;
    fvs.dimension = 8;
    for (int i = 0; i < 10; ++i)
        fvs.addInterval(SparseVec{{2, 4.0}}, 0);
    SimPointOptions options;
    const SimPointResult result = pickSimulationPoints(fvs, options);
    ASSERT_EQ(result.phases.size(), 1u);
    EXPECT_DOUBLE_EQ(result.phases[0].weight, 1.0);

    FrequencyVectorSet mixed = syntheticClusters(2, 8);
    for (std::size_t i = 0; i < mixed.size(); ++i)
        mixed.lengths[i] = 0;
    const SimPointResult multi = pickSimulationPoints(mixed, options);
    double total = 0.0;
    for (const Phase& phase : multi.phases)
        total += phase.weight;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SimPointPick, EmptyInputFatal)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    SimPointOptions options;
    EXPECT_EXIT((void)pickSimulationPoints(fvs, options),
                ::testing::ExitedWithCode(1), "no intervals");
}

TEST(SimPointPick, NonFiniteInputsPanicInsteadOfCrashing)
{
    // The engine and the naive reference sweep fail alike.
    using Pick = SimPointResult (*)(const FrequencyVectorSet&,
                                    const SimPointOptions&);
    const Pick engine = [](const FrequencyVectorSet& fvs,
                           const SimPointOptions& options) {
        return pickSimulationPoints(fvs, options);
    };
    const Pick reference = [](const FrequencyVectorSet& fvs,
                              const SimPointOptions& options) {
        return referenceSimPoints(fvs, options).result;
    };
    for (const Pick pick : {engine, reference}) {
        SimPointOptions options;
        // A NaN row poisons its centroid, so no fit at k = 1 has a
        // usable SSE.
        FrequencyVectorSet poisoned;
        poisoned.dimension = 2;
        poisoned.addInterval(SparseVec{{0, std::nan("")}}, 10);
        poisoned.addInterval(SparseVec{{1, 1.0}}, 10);
        EXPECT_DEATH((void)pick(poisoned, options),
                     "no k-means fit at k = 1");
        // A NaN tolerance (a decoded config can carry one) admits no
        // member as the representative: a panic with a message, not
        // an index into an empty candidate list.
        options.earlyPoints = true;
        options.earlyTolerance = std::nan("");
        EXPECT_DEATH((void)pick(syntheticClusters(2, 4), options),
                     "no member within");
    }
}

TEST(SimPointPick, MaxKCapsPhaseCount)
{
    FrequencyVectorSet fvs = syntheticClusters(6, 10);
    SimPointOptions options;
    options.maxK = 3;
    const SimPointResult result = pickSimulationPoints(fvs, options);
    EXPECT_LE(result.phases.size(), 3u);
}

TEST(SimPointPick, EarlyPointsPickEarlierRepresentatives)
{
    // With many near-identical intervals per behaviour, the early
    // option must choose representatives no later than the default's
    // median picks.
    FrequencyVectorSet fvs = syntheticClusters(3, 30, 8);
    SimPointOptions central;
    central.maxK = 5;
    SimPointOptions early = central;
    early.earlyPoints = true;

    const SimPointResult c = pickSimulationPoints(fvs, central);
    const SimPointResult e = pickSimulationPoints(fvs, early);
    ASSERT_EQ(c.phases.size(), e.phases.size());
    u64 centralSum = 0, earlySum = 0;
    for (std::size_t p = 0; p < c.phases.size(); ++p) {
        centralSum += c.phases[p].representative;
        earlySum += e.phases[p].representative;
    }
    EXPECT_LT(earlySum, centralSum);
}
