#include "simpoint/simpoint.hh"

#include <limits>
#include <mutex>
#include <utility>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "simpoint/serial.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/**
 * The pipeline proper, over an already-normalized vector set it owns:
 * the entries are freed as soon as projection has read them.
 */
SimPointResult
pickFromNormalized(FrequencyVectorSet fvs,
                   const SimPointOptions& options)
{
    // Projection coalesces duplicate intervals: it runs once per
    // class and the clustering layer scans classes instead of points.
    // The class structure rides along inside ProjectedData; every
    // label and representative below stays expressed in original
    // interval ids.
    const ProjectedData data =
        project(fvs, options.projectedDims, options.seed);
    // Nothing reads a row again; only the lengths weigh the phases.
    fvs.releaseEntries();

    const u32 maxK = std::max<u32>(
        1, std::min<u32>(options.maxK,
                         static_cast<u32>(fvs.size())));

    const Rng rng(hashMix(options.seed ^ 0xB1Cull));
    KMeansOptions kmOpts;
    kmOpts.init = options.init;
    kmOpts.maxIterations = options.maxIterations;

    // The (k, seed) sweep.  Every fit forks its own RNG stream from
    // the (const) sweep generator, so fits are order-independent and
    // can fan out across the pool.  Only the best fit per k is kept,
    // with one label per duplicate class (KMeansResult::owners):
    // each fit is folded in under a lock as the lexicographic minimum
    // of (SSE, seed index), which is the sequential loop's strict
    // less-than pick — lowest-seed-index tie-break included — in any
    // completion order.  A fit whose SSE is not below the largest
    // double (NaN included) never wins, as in the sequential loop.
    //
    // The fits share one M-step memo, freed with the sweep; its
    // entries are pure functions of their keys, so which fit fills an
    // entry first never shows in a result.
    struct BestFit
    {
        KMeansResult fit;
        u32 seed = 0;
        bool found = false;
    };
    const std::size_t fitCount =
        static_cast<std::size_t>(maxK) * options.seedsPerK;
    std::vector<BestFit> bestByK(maxK);
    std::mutex bestMutex;  // guards bestByK while the fits run
    {
        MStepMemo memo(data);
        parallelFor(globalPool(), fitCount, [&](std::size_t f) {
            const u32 k = 1 + static_cast<u32>(f / options.seedsPerK);
            const u32 s = static_cast<u32>(f % options.seedsPerK);
            obs::TraceSpan span(format("kmeans k={} seed={}", k, s),
                                "cluster");
            Rng seedRng = rng.fork((static_cast<u64>(k) << 16) | s);
            KMeansResult res = runKMeans(data, k, seedRng, kmOpts, &memo);
            if (!(res.weightedSse < std::numeric_limits<double>::max()))
                return;
            std::lock_guard guard(bestMutex);
            BestFit& best = bestByK[k - 1];
            if (!best.found || res.weightedSse < best.fit.weightedSse ||
                (res.weightedSse == best.fit.weightedSse &&
                 s < best.seed)) {
                best.fit = std::move(res);
                best.seed = s;
                best.found = true;
            }
        });
    }

    std::vector<double> bicByK;
    bicByK.reserve(maxK);
    for (u32 k = 1; k <= maxK; ++k) {
        if (!bestByK[k - 1].found)
            panic("no k-means fit at k = {} has an SSE below the "
                  "largest double (non-finite vectors?)", k);
        bicByK.push_back(bicScore(data, bestByK[k - 1].fit));
    }

    // Smallest k whose normalized BIC clears the threshold.
    const std::vector<double> norm = normalizeBic(bicByK);
    std::size_t chosenIdx = norm.size() - 1;
    for (std::size_t i = 0; i < norm.size(); ++i) {
        if (norm[i] >= options.bicThreshold) {
            chosenIdx = i;
            break;
        }
    }

    const KMeansResult& chosen = bestByK[chosenIdx].fit;
    {
        auto& reg = obs::StatRegistry::global();
        reg.counter("simpoint.sweeps").add();
        reg.distribution("simpoint.chosenK").sample(chosen.k);
    }
    SimPointResult out;
    out.k = chosen.k;
    // The only per-interval labels the sweep materializes.
    out.labels = chosen.labels(data);
    out.bicByK = bicByK;
    out.chosenBic = bicByK[chosenIdx];

    // Build phases: instruction weights, representative = member
    // interval closest to the cluster centroid.  The member lists are
    // local: the labels are the result's only record of membership.
    //
    // Tie-breaking deviation from SimPoint 3.0: when several members
    // are equally close to the centroid (common here, because the
    // synthetic workloads produce near-identical vectors within a
    // phase), pick the temporally *median* candidate rather than the
    // earliest.  At real SimPoint scale (100M-instruction intervals)
    // the earliest-member tie-break is harmless; at our scaled-down
    // interval sizes the earliest member of a phase often carries
    // cache warm-up state, which would systematically bias the
    // simulation points of both methods.
    //
    // Members are bucketed in one pass, in increasing interval order.
    // Each member's distance is memoised per (duplicate class,
    // phase): rows of a class are bit-identical, so one sqDist gives
    // every member's distance bit for bit.
    const InstrCount total = fvs.totalInstructions();
    std::vector<std::vector<u32>> membersOf(chosen.k);
    for (std::size_t i = 0; i < fvs.size(); ++i)
        membersOf[out.labels[i]].push_back(static_cast<u32>(i));
    std::vector<double> classDist(data.classes());
    std::vector<u32> classPhase(data.classes(), chosen.k);
    for (u32 c = 0; c < chosen.k; ++c) {
        const std::vector<u32>& members = membersOf[c];
        if (members.empty())
            continue; // degenerate cluster; drop it
        Phase phase;
        phase.id = c;
        InstrCount phaseInstrs = 0;
        std::vector<double> dists;
        dists.reserve(members.size());
        double bestDist = std::numeric_limits<double>::max();
        const auto centroid = chosen.centroid(c, data.dims);
        for (const u32 i : members) {
            phaseInstrs += fvs.lengths[i];
            const u32 u = data.classOf[i];
            if (classPhase[u] != c) {
                classPhase[u] = c;
                classDist[u] =
                    sqDist({data.classRow(u), data.dims}, centroid);
            }
            const double d = classDist[u];
            dists.push_back(d);
            bestDist = std::min(bestDist, d);
        }

        // Near-tie window: a small fraction of the cluster's mean
        // distance-to-centroid.  Members inside it are considered
        // equally representative; intervals whose vectors differ only
        // by loop-boundary rounding all land in this window.
        double meanDist = 0.0;
        for (double d : dists)
            meanDist += d;
        meanDist /= static_cast<double>(dists.size());
        const double tolerance =
            options.earlyPoints ? options.earlyTolerance : 1e-3;
        const double epsilon = tolerance * meanDist + 1e-12;
        std::vector<u32> candidates;
        for (std::size_t m = 0; m < members.size(); ++m) {
            if (dists[m] <= bestDist + epsilon)
                candidates.push_back(members[m]);
        }
        if (candidates.empty())
            panic("phase {}: no member within {} of the centroid "
                  "(non-finite distances?)", c, bestDist + epsilon);
        // Early points take the first acceptable interval (cheap to
        // reach); the default takes the temporally median candidate.
        phase.representative = options.earlyPoints
                                   ? candidates.front()
                                   : candidates[candidates.size() / 2];

        // Degenerate zero-length input (all interval lengths 0):
        // fall back to interval-count weights so the phase weights
        // still describe a distribution summing to 1.
        phase.weight =
            total ? static_cast<double>(phaseInstrs) /
                        static_cast<double>(total)
                  : static_cast<double>(members.size()) /
                        static_cast<double>(fvs.size());
        out.phases.push_back(phase);
    }
    if (out.phases.empty())
        panic("SimPoint produced no phases for {} intervals",
              fvs.size());
    return out;
}

/**
 * Serve `compute` through the artifact store under the content key.
 * That one hashes every raw vector, so it is built only when the
 * store will look it up; both overloads hash before they normalize,
 * so it is the same for both.
 */
template <typename Compute>
SimPointResult
memoized(const FrequencyVectorSet& fvs, const SimPointOptions& options,
         Compute&& compute)
{
    store::ArtifactStore& store = store::ArtifactStore::global();
    if (!store.enabled())
        return compute();
    return store.getOrCompute<SimPointCodec>(simPointKey(fvs, options),
                                             "simpoint", compute);
}

} // namespace

serial::Hash128
simPointKey(const FrequencyVectorSet& fvs,
            const SimPointOptions& options)
{
    serial::Hasher h;
    h.str("simpoint");
    hashFvs(h, fvs);
    hashSimPointOptions(h, options);
    return h.finish();
}

serial::Hash128
simPointKey(const serial::Hash128& sourceKey,
            const SimPointOptions& options)
{
    serial::Hasher h;
    h.str("simpoint.source");
    h.u64v(sourceKey.lo);
    h.u64v(sourceKey.hi);
    hashSimPointOptions(h, options);
    return h.finish();
}

SimPointResult
clusterVectors(FrequencyVectorSet fvs, const SimPointOptions& options)
{
    if (fvs.size() == 0)
        fatal("SimPoint called with no intervals");
    fvs.normalize();
    return pickFromNormalized(std::move(fvs), options);
}

SimPointResult
pickSimulationPoints(const FrequencyVectorSet& fvs,
                     const SimPointOptions& options)
{
    return memoized(fvs, options,
                    [&] { return clusterVectors(fvs, options); });
}

SimPointResult
pickSimulationPoints(FrequencyVectorSet&& fvs,
                     const SimPointOptions& options)
{
    // Owned from the start, so the caller's set is empty afterwards
    // even on a cache hit.
    FrequencyVectorSet owned = std::exchange(fvs, {});
    return memoized(owned, options, [&] {
        return clusterVectors(std::move(owned), options);
    });
}

} // namespace xbsp::sp
