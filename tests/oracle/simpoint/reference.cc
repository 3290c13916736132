#include "simpoint/reference.hh"

#include <algorithm>
#include <limits>

#include "simpoint/bic.hh"
#include "simpoint/projection.hh"
#include "util/logging.hh"
#include "util/simd/simd.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/**
 * Assign every point to its nearest centroid; returns weighted SSE.
 * Runs in parallel over fixed chunks of the point range; the SSE is
 * reduced per chunk and the partials are summed in chunk order, so
 * the result is bit-identical at any worker count.
 */
double
assignLabels(const ProjectedData& data, const KMeansResult& res,
             std::vector<u32>& labels, ReferenceWork& work)
{
    const std::size_t stride = data.rowStride();
    std::vector<double> partialSse(parallelChunkCount(data.count), 0.0);
    parallelChunks(
        globalPool(), data.count,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            double sse = 0.0;
            std::vector<double> dist(res.k);
            for (std::size_t i = begin; i < end; ++i) {
                // All k distances in one batched call; each dist[c]
                // is bit-for-bit sqDist(point, centroid c).
                simd::sqDistBatch(data.row(i), res.centroids.data(),
                                  res.k, stride,
                                  res.rowStride(data.dims),
                                  dist.data());
                double best = std::numeric_limits<double>::max();
                u32 bestC = 0;
                for (u32 c = 0; c < res.k; ++c) {
                    if (dist[c] < best) {
                        best = dist[c];
                        bestC = c;
                    }
                }
                labels[i] = bestC;
                sse += data.weights[i] * best;
            }
            partialSse[chunk] = sse;
        });
    work.distances += data.count * static_cast<u64>(res.k);
    double sse = 0.0;
    for (double partial : partialSse)
        sse += partial;
    return sse;
}

/**
 * Recompute every weighted centroid: zero the row and weight, axpy
 * every member's row in increasing point index, then divide by the
 * summed weight when it is positive.  Returns ids of empty clusters.
 */
std::vector<u32>
updateCentroids(const ProjectedData& data, KMeansResult& res,
                const std::vector<u32>& labels, ReferenceWork& work)
{
    const std::size_t cstride = res.rowStride(data.dims);
    auto row = [&](u32 c) {
        return res.centroids.data() +
               static_cast<std::size_t>(c) * cstride;
    };
    std::fill(res.centroids.begin(), res.centroids.end(), 0.0);
    std::fill(res.clusterWeight.begin(), res.clusterWeight.end(), 0.0);
    for (std::size_t i = 0; i < data.count; ++i) {
        const u32 c = labels[i];
        const double w = data.weights[i];
        simd::axpy(row(c), data.row(i), w, data.rowStride());
        res.clusterWeight[c] += w;
    }
    work.mstepRows += data.count;
    std::vector<u32> empty;
    for (u32 c = 0; c < res.k; ++c) {
        if (res.clusterWeight[c] <= 0.0) {
            empty.push_back(c);
            continue;
        }
        double* crow = row(c);
        for (u32 d = 0; d < data.dims; ++d)
            crow[d] /= res.clusterWeight[c];
    }
    return empty;
}

/** Re-seed each empty cluster with the worst-fitting point. */
void
reseedEmpty(const ProjectedData& data, KMeansResult& res,
            std::vector<u32>& labels, const std::vector<u32>& empty)
{
    const std::size_t cstride = res.rowStride(data.dims);
    for (u32 c : empty) {
        double worst = -1.0;
        std::size_t worstIdx = 0;
        for (std::size_t i = 0; i < data.count; ++i) {
            const u32 owner = labels[i];
            if (res.clusterWeight[owner] <= 0.0)
                continue;
            const double d =
                simd::sqDist(data.row(i),
                             res.centroidRow(owner, data.dims),
                             data.rowStride());
            if (d > worst) {
                worst = d;
                worstIdx = i;
            }
        }
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(worstIdx);
        std::copy(p.begin(), p.end(), crow);
        labels[worstIdx] = c;
    }
}

/** D^2 seeding, summing every point's term on every draw. */
void
initPlusPlus(const ProjectedData& data, KMeansResult& res, Rng& rng,
             ReferenceWork& work)
{
    auto pickWeighted = [&](const std::vector<double>& probs) {
        double total = 0.0;
        for (double p : probs)
            total += p;
        work.initTerms += probs.size();
        double r = rng.nextDouble() * total;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            r -= probs[i];
            if (r <= 0.0)
                return i;
        }
        return probs.size() - 1;
    };

    const std::size_t cstride = res.rowStride(data.dims);
    auto setCentroid = [&](u32 c, std::size_t i) {
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(i);
        std::copy(p.begin(), p.end(), crow);
    };
    // First centroid: weighted-uniform draw.
    setCentroid(0, pickWeighted(data.weights));

    std::vector<double> minDist(data.count,
                                std::numeric_limits<double>::max());
    std::vector<double> probs(data.count);
    for (u32 c = 1; c < res.k; ++c) {
        for (std::size_t i = 0; i < data.count; ++i) {
            const double d =
                simd::sqDist(data.row(i),
                             res.centroidRow(c - 1, data.dims),
                             data.rowStride());
            minDist[i] = std::min(minDist[i], d);
            probs[i] = data.weights[i] * minDist[i];
        }
        setCentroid(c, pickWeighted(probs));
    }
}

void
initRandomPartition(const ProjectedData& data, KMeansResult& res,
                    std::vector<u32>& labels, Rng& rng,
                    ReferenceWork& work)
{
    for (std::size_t i = 0; i < data.count; ++i)
        labels[i] = static_cast<u32>(rng.nextBelow(res.k));
    // Guarantee every cluster owns at least one point.
    for (u32 c = 0; c < res.k && c < data.count; ++c)
        labels[c] = c;
    const auto empty = updateCentroids(data, res, labels, work);
    reseedEmpty(data, res, labels, empty);
    // Re-seeding relabels the stolen points, leaving the donor
    // clusters' centroids and weights stale; recompute once so the
    // first E-step sees centroids consistent with the labels.
    if (!empty.empty())
        updateCentroids(data, res, labels, work);
}

} // namespace

ProjectedData
referenceProject(const FrequencyVectorSet& fvs, u32 dims, u64 seed)
{
    ProjectedData out;
    out.allocate(fvs.size(), fvs.size(), dims);
    Rng rng(hashMix(seed ^ 0x9e3779b97f4a7c15ull));
    const std::size_t stride = out.rowStride();
    simd::AlignedVec matrix(
        static_cast<std::size_t>(fvs.dimension) * stride, 0.0);
    for (std::size_t r = 0; r < fvs.dimension; ++r) {
        for (u32 d = 0; d < dims; ++d)
            matrix[r * stride + d] = rng.nextDouble(-1.0, 1.0);
    }
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        const SparseRow vec = fvs.row(i);
        for (std::size_t e = 0; e < vec.size(); ++e)
            simd::axpy(out.classRow(i),
                       matrix.data() +
                           static_cast<std::size_t>(vec.index[e]) *
                               stride,
                       vec.value[e], stride);
        out.classOf.push_back(static_cast<u32>(i));
        out.classFirst.push_back(static_cast<u32>(i));
    }
    const InstrCount total = fvs.totalInstructions();
    if (total > 0) {
        const double scale = static_cast<double>(out.count) /
                             static_cast<double>(total);
        for (std::size_t i = 0; i < out.count; ++i)
            out.weights[i] = static_cast<double>(fvs.lengths[i]) * scale;
    }
    out.buildRunIndex();
    return out;
}

ReferenceFit
referenceKMeans(const ProjectedData& data, u32 k, Rng& rng,
                const KMeansOptions& options)
{
    if (data.count == 0)
        fatal("k-means called with no data points");
    ReferenceFit fit;
    KMeansResult& res = fit.result;
    std::vector<u32>& labels = fit.labels;
    ReferenceWork& work = fit.work;
    res.k = std::max<u32>(1, std::min<u32>(
                                 k, static_cast<u32>(data.count)));
    labels.assign(data.count, 0);
    res.stride = data.rowStride();
    res.centroids.assign(
        static_cast<std::size_t>(res.k) * res.stride, 0.0);
    res.clusterWeight.assign(res.k, 0.0);

    if (options.init == InitMethod::KMeansPlusPlus)
        initPlusPlus(data, res, rng, work);
    else
        initRandomPartition(data, res, labels, rng, work);
    std::vector<u32> newLabels(data.count, 0);
    for (u32 iter = 0; iter < options.maxIterations; ++iter) {
        res.iterations = iter + 1;
        res.weightedSse = assignLabels(data, res, newLabels, work);
        const bool stable = newLabels == labels && iter > 0;
        labels = newLabels;
        const auto empty = updateCentroids(data, res, labels, work);
        if (!empty.empty()) {
            reseedEmpty(data, res, labels, empty);
            updateCentroids(data, res, labels, work);
            continue;
        }
        if (stable) {
            res.converged = true;
            break;
        }
    }
    // A final E-step and weight re-sum make labels, SSE and weights
    // consistent with the final centroids.
    res.weightedSse = assignLabels(data, res, labels, work);
    std::fill(res.clusterWeight.begin(), res.clusterWeight.end(), 0.0);
    for (std::size_t i = 0; i < data.count; ++i)
        res.clusterWeight[labels[i]] += data.weights[i];
    return fit;
}

ReferenceSweep
referenceSimPoints(const FrequencyVectorSet& fvs,
                   const SimPointOptions& options)
{
    if (fvs.size() == 0)
        fatal("SimPoint called with no intervals");
    FrequencyVectorSet normalized = fvs;
    normalized.normalize();
    const ProjectedData data = referenceProject(
        normalized, options.projectedDims, options.seed);

    const u32 maxK = std::max<u32>(
        1, std::min<u32>(options.maxK,
                         static_cast<u32>(fvs.size())));
    const Rng rng(hashMix(options.seed ^ 0xB1Cull));
    KMeansOptions kmOpts;
    kmOpts.init = options.init;
    kmOpts.maxIterations = options.maxIterations;

    // The (k, seed) sweep, one fit after another; the best fit per k
    // is the lowest SSE, ties going to the lowest seed index.
    ReferenceSweep sweep;
    std::vector<ReferenceFit> bestByK;
    std::vector<double> bicByK;
    for (u32 k = 1; k <= maxK; ++k) {
        ReferenceFit best;
        double bestSse = std::numeric_limits<double>::max();
        for (u32 s = 0; s < options.seedsPerK; ++s) {
            Rng seedRng = rng.fork((static_cast<u64>(k) << 16) | s);
            ReferenceFit fit = referenceKMeans(data, k, seedRng, kmOpts);
            sweep.work.distances += fit.work.distances;
            sweep.work.mstepRows += fit.work.mstepRows;
            sweep.work.initTerms += fit.work.initTerms;
            if (fit.result.weightedSse < bestSse) {
                bestSse = fit.result.weightedSse;
                best = std::move(fit);
            }
        }
        if (best.result.k == 0)
            panic("no k-means fit at k = {} has an SSE below the "
                  "largest double (non-finite vectors?)", k);
        bicByK.push_back(bicScore(data, best.result));
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

    const KMeansResult& chosen = bestByK[chosenIdx].result;
    SimPointResult& out = sweep.result;
    out.k = chosen.k;
    out.labels = bestByK[chosenIdx].labels;
    out.bicByK = bicByK;
    out.chosenBic = bicByK[chosenIdx];

    // Phases: members (bucketed here; the result records them only
    // in the labels), instruction weights, and as representative the
    // temporally median member among those within a small window of
    // the closest distance to the centroid (the earliest one with
    // early points).
    const InstrCount total = fvs.totalInstructions();
    std::vector<std::vector<u32>> membersOf(chosen.k);
    for (std::size_t i = 0; i < fvs.size(); ++i)
        membersOf[out.labels[i]].push_back(static_cast<u32>(i));
    for (u32 c = 0; c < chosen.k; ++c) {
        const std::vector<u32>& members = membersOf[c];
        if (members.empty())
            continue; // degenerate cluster; drop it
        Phase phase;
        phase.id = c;
        InstrCount phaseInstrs = 0;
        std::vector<double> dists;
        double bestDist = std::numeric_limits<double>::max();
        const auto centroid = chosen.centroid(c, data.dims);
        for (const u32 i : members) {
            phaseInstrs += fvs.lengths[i];
            const double d = sqDist(data.point(i), centroid);
            dists.push_back(d);
            bestDist = std::min(bestDist, d);
        }

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
        phase.representative = options.earlyPoints
                                   ? candidates.front()
                                   : candidates[candidates.size() / 2];

        // All-zero lengths fall back to interval-count weights.
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
    return sweep;
}

} // namespace xbsp::sp
