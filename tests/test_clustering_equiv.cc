/**
 * @file
 * Equivalence guard for the clustering engine: the combination of
 * duplicate-interval dedup, Hamerly-bounded k-means and the parallel
 * (k, seed) sweep must produce a SimPointResult that is
 * *bit-identical* to the naive reference sweep in tests/oracle — same
 * chosen k, same labels over original intervals (so the same phase
 * members), same phase ids, representatives and weights, same BIC
 * scores — on real profile
 * data (3 workloads x 4 compilation targets) at 1 and 4 worker
 * threads, plus the low-level runKMeans contract on synthetic data.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "compile/compiler.hh"
#include "core/mappable.hh"
#include "core/vli.hh"
#include "harness/experiments.hh"
#include "obs/stats.hh"
#include "profile/profile.hh"
#include "simpoint/reference.hh"
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
    }
}

/**
 * Exact equality of a reference fit and a runKMeans output over
 * `data`: each point's reference label is its class's owner.
 */
void
expectIdenticalKMeans(const ReferenceFit& naive, const KMeansResult& b,
                      const ProjectedData& data)
{
    const KMeansResult& a = naive.result;
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(naive.labels, b.labels(data));
    EXPECT_EQ(a.centroids, b.centroids);
    EXPECT_EQ(a.clusterWeight, b.clusterWeight);
    EXPECT_EQ(a.weightedSse, b.weightedSse);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
}

/**
 * Work of one fit: the reference's own count, or the engine's
 * counter deltas (the reference never consults a memo or proves a
 * cycle, so those stay 0 on its side).
 */
struct FitWork
{
    u64 mstepRows = 0;
    u64 initTerms = 0;
    u64 mstepReused = 0;
    u64 cycles = 0;
    u64 proven = 0;
    u64 initFallbacks = 0;

    bool operator==(const FitWork&) const = default;
};

/** Counters FitWork reads, in its field order. */
constexpr std::array<const char*, 6> fitCounters{
    "kmeans.mstep.rows", "kmeans.init.terms", "kmeans.mstep.reused",
    "kmeans.cycles", "kmeans.iterations.proven", "kmeans.init.fallbacks"};

/** runKMeans through `memo` and the engine counters it moved. */
std::pair<KMeansResult, FitWork>
engineFit(const ProjectedData& data, u32 k, u64 seed,
          const KMeansOptions& options, MStepMemo* memo)
{
    obs::StatRegistry& reg = obs::StatRegistry::global();
    std::array<u64, fitCounters.size()> before{};
    for (std::size_t c = 0; c < fitCounters.size(); ++c)
        before[c] = reg.counterValue(fitCounters[c]);
    Rng rng(seed);
    KMeansResult res = runKMeans(data, k, rng, options, memo);
    auto delta = [&](std::size_t c) {
        return reg.counterValue(fitCounters[c]) - before[c];
    };
    return {std::move(res),
            FitWork{delta(0), delta(1), delta(2), delta(3), delta(4),
                    delta(5)}};
}

/**
 * Run one fit with the naive reference and with the engine (through
 * `memo`, when given) at 1 and then 4 workers, all from the same RNG
 * state; require every KMeansResult field to match the reference and
 * return the reference's work and the 1-worker engine fit's.  Without
 * a memo the 4-worker fit must do exactly the same work; with one it
 * finds the entries the first fit left, so only its result is held
 * to the reference.
 */
std::pair<FitWork, FitWork>
expectFitMatchesNaive(const ProjectedData& data, u32 k, u64 seed,
                      const KMeansOptions& options,
                      MStepMemo* memo = nullptr)
{
    obs::StatRegistry& reg = obs::StatRegistry::global();
    Rng rng(seed);
    const u64 rows0 = reg.counterValue("kmeans.mstep.rows");
    const ReferenceFit reference = referenceKMeans(data, k, rng, options);
    EXPECT_EQ(reg.counterValue("kmeans.mstep.rows"), rows0)
        << "the reference must leave the stat registry alone";
    const FitWork referenceWork{reference.work.mstepRows,
                                reference.work.initTerms};

    FitWork serialWork;
    for (const u64 jobs : {u64{1}, u64{4}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        setGlobalJobs(jobs);
        const auto [engine, work] = engineFit(data, k, seed, options, memo);
        expectIdenticalKMeans(reference, engine, data);
        if (jobs == 1) {
            serialWork = work;
        } else if (memo == nullptr) {
            EXPECT_EQ(work, serialWork);
        }
    }
    setGlobalJobs(0);
    return {referenceWork, serialWork};
}

/**
 * Rows point by point, before any class structure: wrap in
 * withClasses() or singletonClasses() to cluster them.
 */
struct Points
{
    u32 dims = 0;
    std::size_t count = 0;
    std::vector<double> rows;  ///< count x dims, row-major
    std::vector<double> weights;

    std::span<const double>
    point(std::size_t i) const
    {
        return {rows.data() + i * dims, dims};
    }
};

/**
 * `points` under the class map `classOf`, whose classes are numbered
 * in order of their lowest member: one stored row per class, taken
 * from that member, as project() stores them, and the run index.
 */
ProjectedData
classed(const Points& points, std::vector<u32> classOf)
{
    ProjectedData data;
    data.dims = points.dims;
    data.count = points.count;
    data.weights = points.weights;
    for (std::size_t i = 0; i < points.count; ++i) {
        if (classOf[i] != data.classes())
            continue;
        data.classFirst.push_back(static_cast<u32>(i));
        const auto row = points.point(i);
        data.classRows.insert(data.classRows.end(), row.begin(),
                              row.end());
    }
    data.classOf = std::move(classOf);
    data.buildRunIndex();
    return data;
}

/** Gaussian blobs with exact duplicate points mixed in. */
Points
blobData(std::size_t count, u32 dims, u32 blobs, u64 seed)
{
    Rng rng(seed);
    Points data;
    data.dims = dims;
    data.count = count;
    data.rows.resize(count * dims);
    data.weights.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t blob = i % blobs;
        if (i >= blobs && i % 3 == 0) {
            // Exact duplicate of an earlier point in the same blob.
            for (u32 d = 0; d < dims; ++d)
                data.rows[i * dims + d] =
                    data.rows[(i - blobs) * dims + d];
        } else {
            for (u32 d = 0; d < dims; ++d)
                data.rows[i * dims + d] =
                    10.0 * static_cast<double>(blob) +
                    rng.nextGaussian();
        }
        data.weights[i] = rng.nextDouble(0.5, 2.0);
    }
    return data;
}

/**
 * `distinct` random rows, each repeated `copies` times in one run,
 * with the duplicate-class structure project() would attach.
 */
ProjectedData
duplicateData(std::size_t distinct, std::size_t copies, u32 dims,
              u64 seed)
{
    Rng rng(seed);
    std::vector<double> rows(distinct * dims);
    for (double& v : rows)
        v = rng.nextGaussian();
    Points points;
    points.dims = dims;
    points.count = distinct * copies;
    std::vector<u32> classOf;
    for (std::size_t i = 0; i < points.count; ++i) {
        const std::size_t r = i / copies;
        points.rows.insert(points.rows.end(), rows.begin() + r * dims,
                           rows.begin() + (r + 1) * dims);
        points.weights.push_back(rng.nextDouble(0.5, 2.0));
        classOf.push_back(static_cast<u32>(r));
    }
    return classed(points, std::move(classOf));
}

/**
 * `points` with the duplicate-class structure project() would
 * attach: points whose rows are equal bit for bit share a class.
 */
ProjectedData
withClasses(const Points& points)
{
    std::vector<u32> classOf;
    std::vector<std::size_t> firsts;
    for (std::size_t i = 0; i < points.count; ++i) {
        const auto row = points.point(i);
        u32 cls = 0;
        while (cls < firsts.size() &&
               !std::ranges::equal(row, points.point(firsts[cls])))
            ++cls;
        if (cls == firsts.size())
            firsts.push_back(i);
        classOf.push_back(cls);
    }
    return classed(points, std::move(classOf));
}

/**
 * `points` with every point alone in its class, equal rows included:
 * the structure a duplicate-free input gets, and a valid (if
 * unshared) one for any data.
 */
ProjectedData
singletonClasses(const Points& points)
{
    std::vector<u32> classOf(points.count);
    std::iota(classOf.begin(), classOf.end(), u32{0});
    return classed(points, std::move(classOf));
}

/** `data` with every point alone in its class, its row copied. */
ProjectedData
singletonClasses(const ProjectedData& data)
{
    Points points;
    points.dims = data.dims;
    points.count = data.count;
    points.weights = data.weights;
    for (std::size_t i = 0; i < data.count; ++i) {
        const auto row = data.point(i);
        points.rows.insert(points.rows.end(), row.begin(), row.end());
    }
    return singletonClasses(points);
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

/**
 * The input a stock `.bb` file gives: noisy intervals in which no two
 * vectors are equal, so every duplicate class is a singleton.  Seven
 * phases of 40 block ids each, lognormal counts, a phase switch with
 * probability 0.02 per interval.
 */
FrequencyVectorSet
duplicateFreeVectors(std::size_t intervals)
{
    constexpr u32 phases = 7;
    constexpr u32 blocksPerPhase = 40;
    Rng rng(2024);
    FrequencyVectorSet fvs;
    fvs.dimension = 1000;
    std::vector<std::vector<u32>> blocksOf(phases);
    for (std::vector<u32>& blocks : blocksOf) {
        while (blocks.size() < blocksPerPhase) {
            const u32 id = static_cast<u32>(rng.nextBelow(fvs.dimension));
            if (std::ranges::find(blocks, id) == blocks.end())
                blocks.push_back(id);
        }
        std::ranges::sort(blocks);
    }
    u32 phase = 0;
    for (std::size_t i = 0; i < intervals; ++i) {
        if (rng.nextDouble() < 0.02)
            phase = static_cast<u32>(rng.nextBelow(phases));
        SparseVec vec;
        for (const u32 id : blocksOf[phase])
            vec.emplace_back(
                id, 100.0 * std::exp(0.3 * rng.nextGaussian()));
        fvs.addInterval(std::move(vec), 10'000);
    }
    return fvs;
}

} // namespace

TEST(KMeansEquiv, HamerlyMatchesNaiveAcrossKAndInit)
{
    const Points blobs = blobData(240, 8, 5, 77);
    for (const ProjectedData& data :
         {withClasses(blobs), singletonClasses(blobs)}) {
        SCOPED_TRACE(std::to_string(data.classFirst.size()) +
                     " classes");
        for (const InitMethod init :
             {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
            for (const u32 k : {1u, 2u, 4u, 5u, 9u, 16u}) {
                SCOPED_TRACE("init " + std::to_string(static_cast<int>(
                                 init)) + " k " + std::to_string(k));
                KMeansOptions options;
                options.init = init;
                expectFitMatchesNaive(data, k, k * 13 + 1, options);
            }
        }
    }
}

TEST(KMeansEquiv, HamerlyMatchesNaiveOnDegenerateData)
{
    // All points identical: every re-seeding path triggers.
    Points flat;
    flat.dims = 3;
    flat.count = 12;
    flat.rows.assign(flat.count * flat.dims, 0.25);
    flat.weights.assign(flat.count, 1.0);
    for (const ProjectedData& data :
         {withClasses(flat), singletonClasses(flat)}) {
        for (const u32 k : {1u, 3u, 12u}) {
            SCOPED_TRACE("k " + std::to_string(k) + ", " +
                         std::to_string(data.classFirst.size()) +
                         " classes");
            expectFitMatchesNaive(data, k, 5, {});
        }
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
    for (const Shape& shape : {Shape{"period 2", 1, 2, 4},
                               Shape{"period 1", 2, 1, 2}}) {
        const ProjectedData data =
            duplicateData(2, 7, 4, shape.dataSeed);
        const u32 k = 3;
        for (const u32 maxIterations : {99u, 100u, 101u}) {
            SCOPED_TRACE(std::string(shape.name) + " max " +
                         std::to_string(maxIterations));
            KMeansOptions options;
            options.maxIterations = maxIterations;
            const u64 seed = shape.dataSeed * 7 + k;
            const auto [reference, engine] =
                expectFitMatchesNaive(data, k, seed, options);
            const KMeansResult fit =
                engineFit(data, k, seed, options, nullptr).first;
            EXPECT_EQ(fit.iterations, maxIterations);
            EXPECT_FALSE(fit.converged);

            EXPECT_EQ(engine.cycles, 1u);
            EXPECT_EQ(engine.proven, (maxIterations - shape.detectedAt) /
                                         shape.period * shape.period);
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
        data.buildRunIndex();
        for (const u32 k : {3u, 5u, 8u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                         std::to_string(k));
            KMeansOptions options;
            options.init = InitMethod::RandomPartition;
            expectFitMatchesNaive(data, k, seed * 31 + k, options);
        }
    }
}

/**
 * Duplicate-heavy data: once k-means++ has picked a centroid inside a
 * class, every member's term is +0.  The draws must still land where
 * the naive draws land.  While a class is left to pick, each draw is
 * certified from its blocked sums; beyond the 6 distinct rows every
 * term is +0, and those draws fall back to the sequential draw, which
 * picks index 0.
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
            EXPECT_EQ(naive.initTerms, u64{k} * data.count);
            const u32 zeroDraws = k > 6 ? k - 6 : 0;
            EXPECT_EQ(accel.initFallbacks, zeroDraws);
            // The certified draws scan at most the 240 points between
            // them, the fallbacks every point.
            EXPECT_LE(accel.initTerms, u64{k} * data.count);
            EXPECT_LT(accel.initTerms - u64{zeroDraws} * data.count,
                      u64{k - zeroDraws} * data.count);
        }
    }
}

/**
 * All-identical rows with k >= 2: after the first pick every term is
 * +0, so total == 0, r == 0 and the naive draw picks index 0.  The
 * first draw is certified (every point is in one class); every later
 * one falls back to the sequential draw, which sums all 15 terms.
 */
TEST(KMeansEquiv, PlusPlusAllZeroTermsPicksFirstPoint)
{
    ProjectedData data = duplicateData(1, 15, 3, 4);
    for (const u32 k : {2u, 3u, 7u}) {
        SCOPED_TRACE("k " + std::to_string(k));
        const auto [naive, accel] =
            expectFitMatchesNaive(data, k, 19 + k, {});
        EXPECT_EQ(accel.initFallbacks, k - 1);
        EXPECT_GT(accel.initTerms, u64{k - 1} * data.count);
        EXPECT_LE(accel.initTerms, u64{k} * data.count);
        EXPECT_EQ(naive.initTerms, u64{k} * data.count);
    }
}

/**
 * r can also be 0 while a term is still live: with a total of one
 * denormal term, r = u * total rounds to 0 whenever u < 0.5.  The
 * naive draw then picks index 0 — here a point already chosen — not
 * the first live point.  With every weight 0 the first draw, over
 * all points, has r = 0 as well and must pick index 0, not the last
 * point.
 */
TEST(KMeansEquiv, PlusPlusZeroDrawPicksIndexZero)
{
    Points base;
    base.dims = 3;
    base.count = 3;
    base.rows = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    KMeansOptions options;
    options.maxIterations = 0;
    for (const std::vector<double>& weights :
         {std::vector<double>{1.0, 1.0,
                              std::numeric_limits<double>::denorm_min()},
          std::vector<double>{0.0, 0.0, 0.0}}) {
        base.weights = weights;
        for (const ProjectedData& data :
             {withClasses(base), singletonClasses(base)}) {
            u32 zeroDraws = 0;
            for (u64 seed = 1; seed <= 16; ++seed) {
                Rng rngA(seed);
                const ReferenceFit naiveFit =
                    referenceKMeans(data, 2, rngA, options);
                const KMeansResult& naive = naiveFit.result;
                for (const u64 jobs : {u64{1}, u64{4}}) {
                    SCOPED_TRACE("weight " + std::to_string(weights[0]) +
                                 " classes " +
                                 std::to_string(data.classFirst.size()) +
                                 " seed " + std::to_string(seed) +
                                 " jobs " + std::to_string(jobs));
                    setGlobalJobs(jobs);
                    Rng rngB(seed);
                    const KMeansResult accel =
                        runKMeans(data, 2, rngB, options);
                    EXPECT_EQ(naive.centroids, accel.centroids);
                    EXPECT_EQ(naiveFit.labels, accel.labels(data));
                }
                if (naive.centroid(1, data.dims)[0] == 0.0)
                    ++zeroDraws;
            }
            EXPECT_GT(zeroDraws, 0u);
        }
    }
    setGlobalJobs(0);
}

/**
 * Three distinct rows, four copies each, and k = 4.  The fourth seed
 * repeats a row, so every E-step leaves a cluster empty, and each
 * re-seed moves the first point of a four-point class alone: the
 * class splits and the labels drop to per point until the next
 * E-step.  The fit never converges.  Its labels, one owner per class
 * broadcast to the points, must equal the reference's per-point
 * labels at every iteration limit, from either seeding.
 */
TEST(KMeansEquiv, LabelsAreClassOwnersAfterSplittingReseeds)
{
    const ProjectedData data = duplicateData(3, 4, 2, 31);
    for (const InitMethod init :
         {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
        for (const u32 maxIterations : {1u, 2u, 7u}) {
            SCOPED_TRACE("init " + std::to_string(static_cast<int>(init)) +
                         " max " + std::to_string(maxIterations));
            KMeansOptions options;
            options.init = init;
            options.maxIterations = maxIterations;
            expectFitMatchesNaive(data, 4, 5, options);
            Rng rng(5);
            const KMeansResult fit = runKMeans(data, 4, rng, options);
            EXPECT_EQ(fit.owners.size(), data.classes());
            EXPECT_FALSE(fit.converged);
            EXPECT_EQ(fit.iterations, maxIterations);
            const std::vector<u32> labels = fit.labels(data);
            for (std::size_t i = 0; i < data.count; ++i)
                EXPECT_EQ(labels[i], fit.owners[data.classOf[i]]) << i;
        }
    }
}

/**
 * A draw whose scan runs off the end picks the last point, not the
 * last live one.  A NaN weight makes every total NaN, so no draw
 * ever satisfies r <= 0 and none can be certified: the first draw
 * picks the last point, whose term then drops to +0, and every later
 * draw must pick it again.  maxIterations = 0 leaves the k-means++
 * rows in place to compare.
 */
TEST(KMeansEquiv, PlusPlusScanOffTheEndPicksLastPoint)
{
    Points blobs = blobData(30, 3, 3, 9);
    blobs.weights[4] = std::nan("");
    KMeansOptions options;
    options.maxIterations = 0;
    for (const ProjectedData& data :
         {withClasses(blobs), singletonClasses(blobs)}) {
        for (const u32 k : {2u, 4u}) {
            Rng rngA(k);
            const ReferenceFit naiveFit =
                referenceKMeans(data, k, rngA, options);
            const KMeansResult& naive = naiveFit.result;
            for (const u64 jobs : {u64{1}, u64{4}}) {
                SCOPED_TRACE("k " + std::to_string(k) + " classes " +
                             std::to_string(data.classFirst.size()) +
                             " jobs " + std::to_string(jobs));
                setGlobalJobs(jobs);
                Rng rngB(k);
                const KMeansResult accel = runKMeans(data, k, rngB, options);
                EXPECT_EQ(naive.centroids, accel.centroids);
                EXPECT_EQ(naiveFit.labels, accel.labels(data));
                const auto last = data.point(data.count - 1);
                for (u32 c = 0; c < k; ++c) {
                    const auto row = accel.centroid(c, data.dims);
                    EXPECT_TRUE(
                        std::equal(row.begin(), row.end(), last.begin()))
                        << "centroid " << c;
                }
            }
        }
    }
    setGlobalJobs(0);
}

namespace
{

/**
 * The sequential k-means++ draw over explicit terms, as the naive
 * reference draws: the index it picks with uniform `u`.
 */
std::size_t
sequentialPick(std::span<const double> terms, double u)
{
    double total = 0.0;
    for (const double t : terms)
        total += t;
    double r = u * total;
    for (std::size_t i = 0; i < terms.size(); ++i) {
        r -= terms[i];
        if (r <= 0.0)
            return i;
    }
    return terms.size() - 1;
}

/** One k-means++ draw's inputs, as plusPlusDraw() takes them. */
struct DrawCase
{
    std::vector<double> weights;
    std::vector<u32> classOf;
    std::vector<double> minDist;  ///< per class; empty: a first draw

    /** Point i's term, computed as the engine computes it. */
    std::vector<double>
    terms() const
    {
        std::vector<double> t(weights);
        if (!minDist.empty()) {
            for (std::size_t i = 0; i < t.size(); ++i)
                t[i] = weights[i] * minDist[classOf[i]];
        }
        return t;
    }
};

/**
 * Seeded draw case `c`.  Its points number 1 to 100,000; its classes
 * are all singletons, runs of duplicates or interleaved duplicates;
 * its weights are near 1, span 2^+-600, are one in three zero, or
 * start with a run of subnormals ahead of a tail near 2^-1000, which
 * rounds differently in point order and in blocks.  Distances are 0
 * for classes already chosen.  A few cases carry a NaN, infinite or
 * negative weight.
 */
DrawCase
drawCase(u64 c)
{
    Rng rng(c + 1);
    auto scaled = [&](int lo, int hi) {
        return std::ldexp(rng.nextDouble(1.0, 2.0),
                          lo + static_cast<int>(rng.nextBelow(
                                   static_cast<u64>(hi - lo + 1))));
    };
    const std::size_t n =
        c % 1000 == 1 ? 100'000
        : c % 50 == 0 ? 1
                      : 1 + rng.nextBelow(rng.nextBelow(4) == 0 ? 3000
                                                                : 40);
    DrawCase dc;
    std::size_t classes = 0;
    u32 run = 0;
    for (std::size_t i = 0; i < n; ++i) {
        switch (c % 3) {
        case 0:
            dc.classOf.push_back(static_cast<u32>(i));
            classes = n;
            break;
        case 1:
            if (i == 0 || rng.nextBelow(8) == 0)
                run = static_cast<u32>(rng.nextBelow(6));
            dc.classOf.push_back(run);
            classes = 6;
            break;
        default:
            dc.classOf.push_back(static_cast<u32>(rng.nextBelow(8)));
            classes = 8;
        }
    }
    const u64 kind = (c / 3) % 4;
    const std::size_t head = 1 + rng.nextBelow(40);
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind) {
        case 0:
            dc.weights.push_back(rng.nextDouble(0.5, 2.0));
            break;
        case 1:
            dc.weights.push_back(scaled(-600, 600));
            break;
        case 2:
            dc.weights.push_back(rng.nextBelow(3) == 0 ? 0.0
                                                       : scaled(-20, 20));
            break;
        default:
            dc.weights.push_back(
                i < head ? static_cast<double>(1 + rng.nextBelow(64)) *
                               std::numeric_limits<double>::denorm_min()
                         : scaled(-1010, -990));
        }
    }
    if (c % 97 == 3)
        dc.weights[rng.nextBelow(n)] = std::nan("");
    if (c % 89 == 4)
        dc.weights[rng.nextBelow(n)] =
            std::numeric_limits<double>::infinity();
    if (c % 83 == 5)
        dc.weights[rng.nextBelow(n)] = -1.0;
    if (c % 5 != 0) {
        for (std::size_t u = 0; u < classes; ++u) {
            dc.minDist.push_back(rng.nextBelow(5) == 0 ? 0.0
                                 : kind == 1       ? scaled(-500, 100)
                                 : kind == 3       ? scaled(0, 4)
                                                   : rng.nextDouble(0.0, 4.0));
        }
    }
    return dc;
}

/** `u` moved by `steps` representable doubles, or -1 outside [0, 1). */
double
nudged(double u, int steps)
{
    for (; steps > 0; --steps)
        u = std::nextafter(u, 2.0);
    for (; steps < 0; ++steps)
        u = std::nextafter(u, -1.0);
    return u >= 0.0 && u < 1.0 ? u : -1.0;
}

/**
 * The uniforms to draw case `terms` with: 0, the largest below 1, two
 * random ones, and those around the u that puts r on the prefix
 * ending at a random live point (a class boundary when its successor
 * is in another class), and half a subnormal step above it, where
 * r = u * T rounds one way and u * S the other.
 */
std::vector<double>
drawUniforms(std::span<const double> terms, Rng& rng)
{
    std::vector<double> us{0.0, std::nextafter(1.0, 0.0),
                           rng.nextDouble(), rng.nextDouble()};
    double total = 0.0;
    for (const double t : terms)
        total += t;
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < terms.size(); ++i) {
        if (terms[i] > 0.0)
            live.push_back(i);
    }
    if (live.empty() || !(total > 0.0) || !std::isfinite(total))
        return us;
    const std::size_t j = live[rng.nextBelow(live.size())];
    double prefix = 0.0;
    for (std::size_t i = 0; i <= j; ++i)
        prefix += terms[i];
    std::vector<double> targets{prefix / total};
    if (total < 0x1p-900) {
        // Scaled by 2^200, so the half-step is a normal double.
        targets.push_back((std::ldexp(prefix, 200) + 0x1p-875) /
                          std::ldexp(total, 200));
    }
    for (const double target : targets) {
        for (int steps = -8; steps <= 8; ++steps) {
            if (const double u = nudged(target, steps); u >= 0.0)
                us.push_back(u);
        }
    }
    return us;
}

/**
 * Draw cases shaped by the block pairs: block `b` of a case covers
 * points [256 b, 256 b + 256) and sums one term per class it holds.
 * Kind 0 puts 256 distinct classes in every block, kind 1 one class
 * across many blocks, kind 2 runs of one class whose weights are all
 * zero or whose class is already chosen (zero-weight pairs), and
 * kind 3 subnormal distances whose per-point products round to 0
 * while a whole pair's product does not.
 */
DrawCase
pairCase(u64 c)
{
    Rng rng(c + 77);
    const std::size_t n = 256 * (1 + rng.nextBelow(12)) +
                          (c % 2 ? rng.nextBelow(256) : 0);
    const double denorm = std::numeric_limits<double>::denorm_min();
    DrawCase dc;
    std::size_t classes = 0;
    switch (c % 4) {
    case 0:
        for (std::size_t i = 0; i < n; ++i) {
            dc.classOf.push_back(static_cast<u32>(i % 256));
            dc.weights.push_back(rng.nextDouble(0.5, 2.0));
        }
        classes = 256;
        break;
    case 1: {
        const std::size_t other = rng.nextBelow(n);
        for (std::size_t i = 0; i < n; ++i) {
            dc.classOf.push_back(i == other ? 1 : 0);
            dc.weights.push_back(rng.nextDouble(0.5, 2.0));
        }
        classes = 2;
        break;
    }
    case 2:
        for (std::size_t i = 0; i < n; ++i) {
            const u32 run = static_cast<u32>(i / 40);
            dc.classOf.push_back(run);
            dc.weights.push_back(run % 3 == 1 ? 0.0
                                              : rng.nextDouble(0.5, 2.0));
        }
        classes = (n + 39) / 40;
        break;
    default:
        for (std::size_t i = 0; i < n; ++i) {
            dc.classOf.push_back(static_cast<u32>(i / 100));
            dc.weights.push_back(rng.nextBelow(2) ? 0.5 : 0.25);
        }
        classes = (n + 99) / 100;
    }
    if (c % 8 != 0) {
        for (std::size_t u = 0; u < classes; ++u) {
            dc.minDist.push_back(
                c % 4 == 3
                    ? static_cast<double>(rng.nextBelow(4)) * denorm
                : c % 4 == 2 && u % 3 == 2 ? 0.0
                                           : rng.nextDouble(0.0, 4.0));
        }
    }
    return dc;
}

} // namespace

/**
 * plusPlusDraw() against the sequential draw over 12,000 seeded cases
 * (drawCase()) and 400 shaped by the block pairs (pairCase()), each
 * at the uniforms of drawUniforms(): the class it returns must be the
 * class of the sequential pick every time.  Both the certified path
 * and the fallback must run.  Then one fit whose first crossing falls
 * exactly on a class boundary: the draw must fall back, and the fit
 * must equal the naive reference's.
 */
TEST(KMeansEquiv, CertifiedDrawMatchesSequentialDraw)
{
    obs::StatRegistry& reg = obs::StatRegistry::global();
    const u64 fallbacks0 = reg.counterValue("kmeans.init.fallbacks");
    u64 draws = 0;
    u64 mismatches = 0;
    auto check = [&](const DrawCase& dc, const std::string& name,
                     u64 seed) {
        const std::vector<double> terms = dc.terms();
        Rng rng(seed ^ 0x5eed);
        for (const double u : drawUniforms(terms, rng)) {
            ++draws;
            const u32 got =
                plusPlusDraw(dc.weights, dc.minDist, dc.classOf, u);
            const u32 want = dc.classOf[sequentialPick(terms, u)];
            if (got != want && ++mismatches <= 10) {
                ADD_FAILURE() << name << " (" << terms.size()
                              << " points) u " << std::hexfloat << u
                              << ": class " << got << ", sequential "
                              << want;
            }
        }
    };
    for (u64 c = 0; c < 12'000; ++c)
        check(drawCase(c), "case " + std::to_string(c), c);

    std::array<std::size_t, 4> pairsPerBlock{};
    for (u64 c = 0; c < 400; ++c) {
        const DrawCase dc = pairCase(c);
        const BlockPairs pairs = blockPairs(dc.weights, dc.classOf);
        pairsPerBlock[c % 4] = std::max<std::size_t>(
            pairsPerBlock[c % 4], pairs.start[1] - pairs.start[0]);
        check(dc, "pair case " + std::to_string(c), c + 12'000);
    }
    EXPECT_EQ(pairsPerBlock, (std::array<std::size_t, 4>{256, 2, 7, 3}));
    EXPECT_EQ(mismatches, 0u);
    const u64 fallbacks =
        reg.counterValue("kmeans.init.fallbacks") - fallbacks0;
    EXPECT_GT(fallbacks, 0u);
    EXPECT_LT(fallbacks, draws);

    // Two classes of four points with integer weights summing to
    // 2^53.  The first draw's u is m * 2^-53, so r = u * T = m, the
    // weight of the first class: the sequential draw ends on that
    // class's last point with r == 0, and the next point, in the
    // other class, begins exactly at the crossing.  The second draw
    // has one live class and is certified.
    const u64 seed = 3;
    Rng probe(seed);
    const double m = probe.nextDouble() * 0x1p53;
    ASSERT_GE(m, 8.0);
    ASSERT_LE(m, 0x1p53 - 8.0);
    Points points;
    points.dims = 2;
    points.count = 8;
    for (std::size_t i = 0; i < points.count; ++i) {
        points.rows.push_back(i < 4 ? 0.0 : 1.0);
        points.rows.push_back(0.5);
    }
    for (const double mass : {m, 0x1p53 - m}) {
        const double part = std::floor(mass / 4.0);
        points.weights.insert(points.weights.end(), {part, part, part});
        points.weights.push_back(mass - 3.0 * part);
    }
    KMeansOptions options;
    options.maxIterations = 0;
    const auto [naive, accel] =
        expectFitMatchesNaive(withClasses(points), 2, seed, options);
    EXPECT_EQ(accel.initFallbacks, 1u);
}

/**
 * A draw whose blocked prefix is off by nearly the most a sum of n
 * terms can be.  Point 0 (class 0) weighs a and point 1 (class 1)
 * weighs 1 - a; n - 2 tail points (class 2) weigh 2^-53 each, half
 * an ulp of 1.  The sequential total rounds every tail term away, so
 * T = 1, r = a * T = a for u = a, and the sequential draw picks
 * point 0.  The blocked sum keeps them: the tail's pairs add up
 * exactly, so S = 1 + (n - 2) * 2^-53 and r-hat exceeds a by
 * (n - 2) * 2^-53 * a.  Only a window that wide reaches back to point
 * 0, finds classes 0 and 1 in it and falls back; a narrower one sees
 * point 1 alone and certifies class 1.  So the window's relative
 * part must be at least (n - 2) / (n + 8) of (n + 8) * 2^-53 * r-hat.
 */
TEST(KMeansEquiv, CertifiedWindowCoversATailTheSequentialSumDrops)
{
    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const std::size_t n : {300u, 4'099u, 100'000u}) {
        for (const double a : {0.25, 0.375}) {
            SCOPED_TRACE("n " + std::to_string(n) + " a " +
                         std::to_string(a));
            std::vector<double> weights(n, 0x1p-53);
            weights[0] = a;
            weights[1] = 1.0 - a;
            std::vector<u32> classOf(n, 2);
            classOf[0] = 0;
            classOf[1] = 1;
            ASSERT_EQ(sequentialPick(weights, a), 0u);
            const u64 fallbacks = reg.counterValue("kmeans.init.fallbacks");
            EXPECT_EQ(plusPlusDraw(weights, {}, classOf, a), 0u);
            EXPECT_EQ(reg.counterValue("kmeans.init.fallbacks"),
                      fallbacks + 1);
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
    Points points;
    points.dims = 2;
    Rng rng(23);
    auto add = [&](double x, double y) {
        points.rows.push_back(x);
        points.rows.push_back(y);
        points.weights.push_back(rng.nextDouble(0.5, 2.0));
        ++points.count;
    };
    for (int i = 0; i < 30; ++i) {
        add(1000.0 + rng.nextDouble(), rng.nextDouble());
        add(rng.nextDouble(0.0, 10.0), rng.nextDouble(0.0, 3.0));
        add(rng.nextDouble(0.0, 10.0), rng.nextDouble(0.0, 3.0));
    }
    const ProjectedData data = withClasses(points);
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
            light.buildRunIndex();
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
 * Two fits of one sweep share an M-step memo.  Well-separated blobs
 * lead different seeds to the same owned-class sets, so the second
 * fit copies rows the first one built: it must sum fewer rows and be
 * served more often than the same fit with a fresh memo, and every
 * fit must still match the naive one field for field.  A fit that
 * repeats an earlier one's trajectory builds nothing at all.
 */
TEST(KMeansEquiv, MemoHitCrossesFits)
{
    const ProjectedData data = withClasses(blobData(240, 6, 5, 31));
    ASSERT_LT(data.classFirst.size(), data.count);
    const u32 k = 5;
    u64 crossed = 0;
    for (const u64 seed : {2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        MStepMemo fresh(data);
        const FitWork alone =
            expectFitMatchesNaive(data, k, seed, {}, &fresh).second;

        MStepMemo shared(data);
        expectFitMatchesNaive(data, k, 1, {}, &shared);
        const FitWork second =
            expectFitMatchesNaive(data, k, seed, {}, &shared).second;
        EXPECT_GE(second.mstepReused, alone.mstepReused);
        EXPECT_LE(second.mstepRows, alone.mstepRows);
        if (second.mstepReused > alone.mstepReused) {
            EXPECT_LT(second.mstepRows, alone.mstepRows);
            ++crossed;
        }

        const FitWork again =
            expectFitMatchesNaive(data, k, seed, {}, &shared).second;
        EXPECT_EQ(again.mstepRows, 0u);
        EXPECT_GT(again.mstepReused, 0u);
    }
    EXPECT_GT(crossed, 0u);
}

/**
 * Keys cost a bit per class, so with more classes than 64 per
 * double of a row (here 300 points, each alone in its class, in 2
 * dimensions) a key would outgrow the row it stores and the memo is
 * left alone: a repeated fit sums every row again, none is served,
 * and results still match the naive fit.
 */
TEST(KMeansEquiv, MemoSkippedWhenKeysOutgrowRows)
{
    const ProjectedData data = singletonClasses(blobData(300, 2, 3, 17));
    ASSERT_GT((data.count + 63) / 64, data.rowStride());
    MStepMemo memo(data);
    const FitWork first =
        expectFitMatchesNaive(data, 3, 5, {}, &memo).second;
    const FitWork again =
        expectFitMatchesNaive(data, 3, 5, {}, &memo).second;
    EXPECT_GT(first.mstepRows, 0u);
    EXPECT_EQ(again.mstepRows, first.mstepRows);
    EXPECT_EQ(first.mstepReused + again.mstepReused, 0u);
}

/**
 * Re-seeds through a shared memo at 99, 100 and 101 iterations.  In
 * the duplicate-class data every re-seed splits a class, so the
 * iteration after it adopts labels point by point before the labels
 * are per class again.  With singleton classes every point is alone,
 * a re-seed keeps the labels per class, and the M-step right after
 * it already goes through the memo.
 */
TEST(KMeansEquiv, ReseedFallbackWithMemoMatchesNaive)
{
    for (const u64 dataSeed : {1u, 2u}) {
        const ProjectedData split = duplicateData(2, 7, 4, dataSeed);
        const ProjectedData alone = singletonClasses(split);
        for (const u32 maxIterations : {99u, 100u, 101u}) {
            SCOPED_TRACE("data " + std::to_string(dataSeed) + " max " +
                         std::to_string(maxIterations));
            KMeansOptions options;
            options.maxIterations = maxIterations;
            for (const InitMethod init :
                 {InitMethod::KMeansPlusPlus,
                  InitMethod::RandomPartition}) {
                options.init = init;
                MStepMemo splitMemo(split);
                MStepMemo aloneMemo(alone);
                for (const u32 k : {3u, 4u}) {
                    expectFitMatchesNaive(split, k, dataSeed * 7 + k,
                                          options, &splitMemo);
                    expectFitMatchesNaive(alone, k, dataSeed * 7 + k,
                                          options, &aloneMemo);
                }
            }
        }
    }
}

/**
 * The period-2 shape of ProvenCycleMatchesNaive with every point in
 * its own class: each re-seed moves a point that is alone in its
 * class, the labels stay per class at every loop entry, and the
 * probe must prove the same cycle at the same iteration by comparing
 * owner arrays.
 */
TEST(KMeansEquiv, CycleProvenFromOwnerArrays)
{
    const ProjectedData data = singletonClasses(duplicateData(2, 7, 4, 1));
    const u32 k = 3;
    const u32 period = 2;
    const u32 detectedAt = 4;
    for (const u32 maxIterations : {99u, 100u, 101u}) {
        SCOPED_TRACE("max " + std::to_string(maxIterations));
        KMeansOptions options;
        options.maxIterations = maxIterations;
        MStepMemo memo(data);
        const FitWork engine =
            expectFitMatchesNaive(data, k, 1 * 7 + k, options, &memo)
                .second;
        EXPECT_EQ(engine.cycles, 1u);
        EXPECT_EQ(engine.proven,
                  (maxIterations - detectedAt) / period * period);
    }
}

/**
 * A converged fit reduces its SSE once, after the loop, from the last
 * E-step's per-class distances.  Over thousands of points in 64
 * chunks with uneven weights the float sum depends on its order, so
 * it must equal the naive SSE bit for bit at 1 and at 4 workers.
 */
TEST(KMeansEquiv, DeferredSseMatchesNaiveBitwise)
{
    const ProjectedData data = withClasses(blobData(3000, 5, 6, 13));
    u32 converged = 0;
    for (const u64 jobs : {u64{1}, u64{4}}) {
        setGlobalJobs(jobs);
        for (const u32 k : {4u, 6u, 8u}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " k " +
                         std::to_string(k));
            Rng rngA(k);
            const ReferenceFit naive = referenceKMeans(data, k, rngA);
            Rng rngB(k);
            MStepMemo memo(data);
            const KMeansResult accel = runKMeans(data, k, rngB, {}, &memo);
            expectIdenticalKMeans(naive, accel, data);
            EXPECT_EQ(std::bit_cast<u64>(naive.result.weightedSse),
                      std::bit_cast<u64>(accel.weightedSse));
            converged += accel.converged;
        }
    }
    setGlobalJobs(0);
    EXPECT_GT(converged, 0u);
}

/**
 * The suite workloads whose VLI sweeps cycle: at 2K-instruction
 * intervals applu's VLI vectors have fewer distinct rows than
 * k = 7..10 and vpr's fewer than k = 10.  The whole sweep must agree
 * bit for bit with the reference at 1 and 4 workers, and the engine
 * must actually have taken the shortcut.
 */
TEST(ClusteringEquiv, CyclingVliSweepsBitIdentical)
{
    const SimPointOptions options = harness::defaultStudyConfig().simpoint;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const std::string name : {"applu", "vpr"}) {
        const FrequencyVectorSet fvs = vliVectors(name, 2'000);
        const SimPointResult naive =
            referenceSimPoints(fvs, options).result;
        for (const u64 jobs : {u64{1}, u64{4}}) {
            setGlobalJobs(jobs);
            const u64 cycles0 = reg.counterValue("kmeans.cycles");
            const SimPointResult accel =
                pickSimulationPoints(fvs, options);
            EXPECT_GT(reg.counterValue("kmeans.cycles"), cycles0)
                << name;
            expectIdenticalResults(naive, accel,
                                   name + " VLI jobs " +
                                       std::to_string(jobs));
        }
        setGlobalJobs(0);
    }
}

/**
 * The headline guarantee: the full pipeline (dedup + Hamerly +
 * parallel sweep) is bit-identical to the naive reference sweep on
 * the FLI profile vectors of every binary of several workloads, with
 * both 1 worker and several.
 */
TEST(ClusteringEquiv, AcceleratedPipelineBitIdenticalOnWorkloads)
{
    const std::vector<std::string> names{"gzip", "mcf", "swim"};
    SimPointOptions options;
    options.maxK = 10;

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
                referenceSimPoints(pass.fliIntervals, options).result;
            const SimPointResult accelSerial =
                pickSimulationPoints(pass.fliIntervals, options);
            setGlobalJobs(4);
            const SimPointResult accelParallel =
                pickSimulationPoints(pass.fliIntervals, options);
            setGlobalJobs(0);

            expectIdenticalResults(naive, accelSerial,
                                   context + " (1 thread)");
            expectIdenticalResults(naive, accelParallel,
                                   context + " (4 threads)");
        }
    }
}

/**
 * project() stores one row per duplicate class and nothing per point:
 * exactly classes x stride doubles.  Read through its class, every
 * point's row equals, bit for bit over the padded stride, the
 * reference's own per-point projection — on gzip's 2,000-instruction
 * intervals, heavy with duplicates, and on a duplicate-free input —
 * and the weights are the same.
 */
TEST(ProjectionEquiv, ClassRowsMatchPerPointProjection)
{
    const std::vector<bin::Binary> bins =
        compile::compileAllTargets(workloads::makeWorkload("gzip", 1.0));
    FrequencyVectorSet gzip =
        prof::runProfilePass(bins[0], 2000).fliIntervals;
    FrequencyVectorSet distinct = duplicateFreeVectors(1500);
    for (FrequencyVectorSet* fvs : {&gzip, &distinct}) {
        fvs->normalize();
        for (const u64 jobs : {u64{1}, u64{4}}) {
            setGlobalJobs(jobs);
            const ProjectedData data = project(*fvs, 15, 42);
            const ProjectedData reference = referenceProject(*fvs, 15, 42);
            SCOPED_TRACE(std::to_string(data.count) + " points, " +
                         std::to_string(data.classes()) +
                         " classes, jobs " + std::to_string(jobs));
            ASSERT_EQ(data.count, fvs->size());
            ASSERT_EQ(data.stride, reference.stride);
            EXPECT_EQ(data.classRows.size(),
                      data.classes() * data.stride);
            std::size_t differing = 0;
            for (std::size_t i = 0; i < data.count; ++i)
                differing += std::memcmp(data.row(i), reference.row(i),
                                         data.stride *
                                             sizeof(double)) != 0;
            EXPECT_EQ(differing, 0u);
            EXPECT_EQ(data.weights, reference.weights);
        }
        setGlobalJobs(0);
    }
    EXPECT_LT(project(gzip, 15, 42).classes() * 10, gzip.size());
    EXPECT_EQ(project(distinct, 15, 42).classes(), distinct.size());
}

/**
 * On duplicateFreeVectors() — one class per interval — the full
 * sweep must equal the reference field for field at 1 and 4 workers,
 * with the Hamerly bounds still skipping scans.
 */
TEST(ClusteringEquiv, DuplicateFreeSweepMatchesReference)
{
    constexpr std::size_t intervals = 1500;
    const FrequencyVectorSet fvs = duplicateFreeVectors(intervals);

    SimPointOptions options;
    options.maxK = 10;
    const SimPointResult naive = referenceSimPoints(fvs, options).result;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const u64 jobs : {u64{1}, u64{4}}) {
        setGlobalJobs(jobs);
        const u64 classes0 = reg.counterValue("dedup.classes");
        const u64 skips0 = reg.counterValue("kmeans.hamerly.skips");
        const SimPointResult accel = pickSimulationPoints(fvs, options);
        expectIdenticalResults(naive, accel,
                               "duplicate-free, jobs " +
                                   std::to_string(jobs));
        EXPECT_EQ(reg.counterValue("dedup.classes") - classes0,
                  intervals);
        EXPECT_GT(reg.counterValue("kmeans.hamerly.skips"), skips0);
    }
    setGlobalJobs(0);
    EXPECT_GT(naive.k, 1u);
}

/**
 * Phase building on suite vectors: members, representatives and
 * weights from the engine (members bucketed in one pass, distances
 * memoised per duplicate class) equal the reference's.  The work
 * counters, kmeans.mstep.reused included, must also be identical at
 * 1 and 4 workers, like every exact counter, even though concurrent
 * fits race to fill the memo.  The engine runs profile afresh and
 * hand the set over, so the fvs.rows / fvs.entries layout counters
 * are held to the same rule and must count the profile's rows and
 * entries exactly once.  Every k-means++ draw on these vectors is
 * certified: none falls back to the sequential draw.
 */
TEST(ClusteringEquiv, SuitePhasesAndWorkCountersMatch)
{
    SimPointOptions options;
    options.maxK = 10;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    auto work = [&reg] {
        return std::array<u64, 7>{
            reg.counterValue("kmeans.mstep.rows"),
            reg.counterValue("kmeans.init.terms"),
            reg.counterValue("kmeans.estep.distances"),
            reg.counterValue("kmeans.mstep.reused"),
            reg.counterValue("fvs.rows"),
            reg.counterValue("fvs.entries"),
            reg.counterValue("kmeans.init.fallbacks")};
    };
    auto since = [](const std::array<u64, 7>& after,
                    const std::array<u64, 7>& before) {
        std::array<u64, 7> delta{};
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta[i] = after[i] - before[i];
        return delta;
    };
    for (const std::string name : {"gcc", "art", "equake", "twolf"}) {
        const ir::Program program = workloads::makeWorkload(name, 1.0);
        const bin::Binary binary =
            compile::compileProgram(program, bin::target32o);
        const prof::ProfilePass pass =
            prof::runProfilePass(binary, 10000);
        ASSERT_GT(pass.fliIntervals.size(), 100u) << name;

        const auto before = work();
        const ReferenceSweep naive =
            referenceSimPoints(pass.fliIntervals, options);
        EXPECT_EQ(since(work(), before), (std::array<u64, 7>{}))
            << name << ": the reference must leave the registry alone";

        setGlobalJobs(1);
        const auto serialStart = work();
        const SimPointResult serial = pickSimulationPoints(
            prof::runProfilePass(binary, 10000).fliIntervals, options);
        const auto serialWork = since(work(), serialStart);
        setGlobalJobs(4);
        const auto parallelStart = work();
        const SimPointResult parallel = pickSimulationPoints(
            prof::runProfilePass(binary, 10000).fliIntervals, options);
        const auto parallelWork = since(work(), parallelStart);
        setGlobalJobs(0);

        expectIdenticalResults(naive.result, serial,
                               name + " (1 thread)");
        expectIdenticalResults(naive.result, parallel,
                               name + " (4 threads)");
        EXPECT_EQ(serialWork, parallelWork) << name;
        EXPECT_EQ(serialWork[4], pass.fliIntervals.size()) << name;
        EXPECT_EQ(serialWork[5], pass.fliIntervals.entries()) << name;
        // The engine accumulates fewer M-step rows and adds fewer
        // k-means++ terms in point order than the reference, its
        // draws never fall back, and its fits take whole rows from
        // the sweep's M-step memo.
        EXPECT_LT(serialWork[0], naive.work.mstepRows) << name;
        EXPECT_LT(serialWork[1], naive.work.initTerms) << name;
        EXPECT_EQ(serialWork[6], 0u) << name;
        EXPECT_GT(serialWork[3], 0u) << name;
    }
}

/**
 * The engine must not just match the reference result — its
 * observability counters must show *why* it is cheaper: it proves
 * most class assignments by the Hamerly bound (skips > 0) and
 * evaluates strictly fewer E-step distances than the reference,
 * with the same counts at 1 and 4 workers.
 */
TEST(ClusteringEquiv, StatsQuantifyAcceleration)
{
    const ir::Program program = workloads::makeWorkload("gzip", 1.0);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 10000);
    ASSERT_GT(pass.fliIntervals.size(), 100u);

    SimPointOptions options;
    options.maxK = 10;

    obs::StatRegistry& reg = obs::StatRegistry::global();
    auto snapshot = [&reg]() {
        return std::array<u64, 5>{
            reg.counterValue("kmeans.estep.distances"),
            reg.counterValue("kmeans.hamerly.skips"),
            reg.counterValue("kmeans.hamerly.fallbacks"),
            reg.counterValue("simpoint.sweeps"),
            reg.counterValue("kmeans.fits")};
    };
    auto since = [](const std::array<u64, 5>& after,
                    const std::array<u64, 5>& before) {
        std::array<u64, 5> delta{};
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta[i] = after[i] - before[i];
        return delta;
    };

    // The reference counts its own distances and moves no counter.
    const auto base = snapshot();
    const ReferenceSweep naive =
        referenceSimPoints(pass.fliIntervals, options);
    EXPECT_EQ(snapshot(), base);
    EXPECT_GT(naive.work.distances, 0u);

    std::array<u64, 5> serialWork{};
    for (const u64 jobs : {u64{1}, u64{4}}) {
        setGlobalJobs(jobs);
        const u64 dedupCalls0 = reg.counterValue("dedup.calls");
        const auto before = snapshot();
        const SimPointResult accel =
            pickSimulationPoints(pass.fliIntervals, options);
        const auto work = since(snapshot(), before);
        expectIdenticalResults(naive.result, accel,
                               "gzip/32o stats run, jobs " +
                                   std::to_string(jobs));

        // The engine skips real work and pays fewer distances.
        EXPECT_GT(work[0], 0u);
        EXPECT_LT(work[0], naive.work.distances);
        EXPECT_GT(work[1], 0u);
        // One sweep of maxK x seedsPerK fits over deduplicated data.
        EXPECT_EQ(work[3], 1u);
        EXPECT_EQ(work[4], u64{options.maxK} * options.seedsPerK);
        EXPECT_EQ(reg.counterValue("dedup.calls") - dedupCalls0, 1u);
        if (jobs == 1) {
            serialWork = work;
        } else {
            EXPECT_EQ(work, serialWork);
        }
    }
    setGlobalJobs(0);
}

/**
 * The worker count is a pure speed knob for the engine and the
 * reference alike.  Sweep both over jobs 1/4 on real profile data;
 * every combination must produce a result (labels, BIC scores,
 * phases) bit-identical to the serial reference.
 */
TEST(ClusteringEquiv, JobsSweepBitIdentical)
{
    const ir::Program program = workloads::makeWorkload("gzip", 1.0);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 10000);
    ASSERT_GT(pass.fliIntervals.size(), 100u);

    SimPointOptions opts;
    opts.maxK = 10;

    setGlobalJobs(1);
    const SimPointResult reference =
        referenceSimPoints(pass.fliIntervals, opts).result;

    for (const bool engine : {false, true}) {
        for (const u64 jobs : {u64{1}, u64{4}}) {
            setGlobalJobs(jobs);
            const SimPointResult got =
                engine ? pickSimulationPoints(pass.fliIntervals, opts)
                       : referenceSimPoints(pass.fliIntervals, opts)
                             .result;
            expectIdenticalResults(
                reference, got,
                std::string(engine ? "engine" : "reference") +
                    " jobs=" + std::to_string(jobs));
        }
    }
    setGlobalJobs(0);
}

TEST(ClusteringEquiv, DedupCollapsesDuplicateHeavyInput)
{
    // Phase-structured input with exactly repeating vectors: dedup
    // must collapse each repetition class to one representative and
    // the clustering must still be bit-identical to the reference.
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
    EXPECT_EQ(normalized.storedRows(), 3u);
    const ProjectedData data = project(normalized, 15, 42);
    EXPECT_EQ(data.classes(), 3u);
    EXPECT_EQ(data.classOf.size(), 300u);

    const SimPointOptions options;
    const SimPointResult naive = referenceSimPoints(fvs, options).result;
    for (const u64 jobs : {u64{1}, u64{4}}) {
        setGlobalJobs(jobs);
        expectIdenticalResults(naive, pickSimulationPoints(fvs, options),
                               "duplicate-heavy synthetic, jobs " +
                                   std::to_string(jobs));
    }
    setGlobalJobs(0);
}
