#include "simpoint/simpoint.hh"

#include <limits>
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
    // label, member list and representative below stays expressed in
    // original interval ids.
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
    // can fan out across the pool; the best-by-SSE reduction below
    // runs serially in (k, seed-index) order with a strict less-than,
    // which reproduces the sequential loop's pick — including its
    // lowest-seed-index tie-break — exactly.
    //
    // The fits share one M-step memo, freed with the sweep; its
    // entries are pure functions of their keys, so which fit fills an
    // entry first never shows in a result.
    const std::size_t fitCount =
        static_cast<std::size_t>(maxK) * options.seedsPerK;
    std::vector<KMeansResult> fits(fitCount);
    {
        MStepMemo memo(data);
        parallelFor(globalPool(), fitCount, [&](std::size_t f) {
            const u32 k = 1 + static_cast<u32>(f / options.seedsPerK);
            const u32 s = static_cast<u32>(f % options.seedsPerK);
            obs::TraceSpan span(format("kmeans k={} seed={}", k, s),
                                "cluster");
            Rng seedRng = rng.fork((static_cast<u64>(k) << 16) | s);
            fits[f] = runKMeans(data, k, seedRng, kmOpts, &memo);
        });
    }

    std::vector<KMeansResult> bestByK;
    std::vector<double> bicByK;
    bestByK.reserve(maxK);
    for (u32 k = 1; k <= maxK; ++k) {
        KMeansResult best;
        double bestSse = std::numeric_limits<double>::max();
        for (u32 s = 0; s < options.seedsPerK; ++s) {
            KMeansResult& res =
                fits[static_cast<std::size_t>(k - 1) *
                         options.seedsPerK +
                     s];
            if (res.weightedSse < bestSse) {
                bestSse = res.weightedSse;
                best = std::move(res);
            }
        }
        if (best.k == 0)
            panic("no k-means fit at k = {} has an SSE below the "
                  "largest double (non-finite vectors?)", k);
        bicByK.push_back(bicScore(data, best));
        bestByK.push_back(std::move(best));
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

    const KMeansResult& chosen = bestByK[chosenIdx];
    {
        auto& reg = obs::StatRegistry::global();
        reg.counter("simpoint.sweeps").add();
        reg.distribution("simpoint.chosenK").sample(chosen.k);
    }
    SimPointResult out;
    out.k = chosen.k;
    out.labels = chosen.labels;
    out.bicByK = bicByK;
    out.chosenBic = bicByK[chosenIdx];

    // Build phases: members, instruction weights, representative =
    // member interval closest to the cluster centroid.
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
        membersOf[chosen.labels[i]].push_back(static_cast<u32>(i));
    std::vector<double> classDist(data.classFirst.size());
    std::vector<u32> classPhase(data.classFirst.size(), chosen.k);
    for (u32 c = 0; c < chosen.k; ++c) {
        Phase phase;
        phase.id = c;
        phase.members = std::move(membersOf[c]);
        if (phase.members.empty())
            continue; // degenerate cluster; drop it
        InstrCount phaseInstrs = 0;
        std::vector<double> dists;
        dists.reserve(phase.members.size());
        double bestDist = std::numeric_limits<double>::max();
        const auto centroid = chosen.centroid(c, data.dims);
        for (const u32 i : phase.members) {
            phaseInstrs += fvs.lengths[i];
            const u32 u = data.classOf[i];
            if (classPhase[u] != c) {
                classPhase[u] = c;
                classDist[u] = sqDist(data.point(i), centroid);
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
        for (std::size_t m = 0; m < phase.members.size(); ++m) {
            if (dists[m] <= bestDist + epsilon)
                candidates.push_back(phase.members[m]);
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
                  : static_cast<double>(phase.members.size()) /
                        static_cast<double>(fvs.size());
        out.phases.push_back(std::move(phase));
    }
    if (out.phases.empty())
        panic("SimPoint produced no phases for {} intervals",
              fvs.size());
    return out;
}

/**
 * Serve `compute` through the artifact store.  The key hashes every
 * raw vector, so it is built only when the store will look it up;
 * both overloads hash before they normalize, so the key is the same
 * either way.
 */
template <typename Compute>
SimPointResult
memoized(const FrequencyVectorSet& fvs, const SimPointOptions& options,
         Compute&& compute)
{
    if (fvs.size() == 0)
        fatal("SimPoint called with no intervals");
    store::ArtifactStore& store = store::ArtifactStore::global();
    if (!store.enabled())
        return compute();
    return store.getOrCompute<SimPointCodec>(
        simPointKey(fvs, options), "simpoint", compute);
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

SimPointResult
pickSimulationPoints(const FrequencyVectorSet& fvs,
                     const SimPointOptions& options)
{
    return memoized(fvs, options, [&] {
        FrequencyVectorSet normalized = fvs;
        normalized.normalize();
        return pickFromNormalized(std::move(normalized), options);
    });
}

SimPointResult
pickSimulationPoints(FrequencyVectorSet&& fvs,
                     const SimPointOptions& options)
{
    // Owned from the start, so the caller's set is empty afterwards
    // even on a cache hit.
    FrequencyVectorSet owned = std::exchange(fvs, {});
    return memoized(owned, options, [&] {
        owned.normalize();
        return pickFromNormalized(std::move(owned), options);
    });
}

} // namespace xbsp::sp
