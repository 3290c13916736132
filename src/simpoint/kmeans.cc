#include "simpoint/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/simd/simd.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/**
 * Registry handles for the k-means hot path, resolved once.  All are
 * exact u64 event counts (never wall-clock), so totals are identical
 * at any worker count; test_clustering_equiv relies on that to check
 * the accelerated E-step against the naive one.
 */
struct KMeansStats
{
    obs::Counter fits;
    obs::Counter distances;  ///< sqDist evaluations in E-steps
    obs::Counter skips;      ///< Hamerly bound proved the owner
    obs::Counter fallbacks;  ///< bound failed: full scan
    obs::Counter cycles;     ///< fits that entered a proven cycle
    obs::Counter proven;     ///< iterations skipped by that proof
    obs::Counter mstepRows;  ///< point rows accumulated by M-steps
    obs::Counter initTerms;  ///< terms summed by k-means++ draws
    obs::Distribution iterations;
    obs::Distribution batchSize;  ///< centroid rows per batched call
};

KMeansStats&
kmeansStats()
{
    auto& reg = obs::StatRegistry::global();
    static KMeansStats stats{
        reg.counter("kmeans.fits"),
        reg.counter("kmeans.estep.distances"),
        reg.counter("kmeans.hamerly.skips"),
        reg.counter("kmeans.hamerly.fallbacks"),
        reg.counter("kmeans.cycles"),
        reg.counter("kmeans.iterations.proven"),
        reg.counter("kmeans.mstep.rows"),
        reg.counter("kmeans.init.terms"),
        reg.distribution("kmeans.iterations"),
        reg.distribution("kmeans.estep.batchSize"),
    };
    return stats;
}

/**
 * Assign every point to its nearest centroid; returns weighted SSE.
 *
 * The E-step is the k-means hot loop (O(n * k * dims) per iteration)
 * and every point is independent, so it runs in parallel over fixed
 * chunks of the interval range.  The SSE is reduced per chunk and the
 * partials are summed in chunk order; since the chunking depends only
 * on the point count, the float summation order — and therefore the
 * whole clustering — is bit-identical at any worker count.
 */
double
assignLabels(const ProjectedData& data, const KMeansResult& res,
             std::vector<u32>& labels)
{
    const simd::Kernels& kern = simd::active();
    const std::size_t stride = data.rowStride();
    // One sample per E-step (not per point): deterministic at any
    // --jobs, and enough to see the batch shape in the stats dump.
    kmeansStats().batchSize.sample(res.k);
    std::vector<double> partialSse(parallelChunkCount(data.count), 0.0);
    parallelChunks(
        globalPool(), data.count,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            obs::ShardCounter distances(kmeansStats().distances);
            double sse = 0.0;
            std::vector<double> dist(res.k);
            for (std::size_t i = begin; i < end; ++i) {
                // All k distances in one batched call: the point row
                // stays hot while the centroid matrix streams.  Each
                // dist[c] is bit-for-bit sqDist(point, centroid c).
                kern.sqDistBatch(data.row(i), res.centroids.data(),
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
            distances.add((end - begin) *
                          static_cast<u64>(res.k));
            partialSse[chunk] = sse;
        });
    double sse = 0.0;
    for (double partial : partialSse)
        sse += partial;
    return sse;
}

/**
 * State for the accelerated E-step: Hamerly distance bounds kept per
 * duplicate class (per point when the data carries no class
 * structure — classOf/classFirst are then identity maps).
 *
 * Exactness argument, in full (DESIGN.md, "Clustering acceleration"):
 *
 *  - Rows of one duplicate class are bit-identical, so the naive
 *    per-point scan computes identical distances — and therefore an
 *    identical argmin — for every member of a class.  Computing the
 *    scan once per class and broadcasting the label is a pure
 *    de-duplication of arithmetic, not an approximation.
 *  - A class is *skipped* only when its exact distance to the owner
 *    hypothesis `u = sqrt(dOwn)` satisfies `u < max(guard[a],
 *    lower)`.  `guard[a]` is half the distance from centroid `a` to
 *    its nearest other centroid: `u < guard[a]` forces every other
 *    centroid strictly farther than `a` (triangle inequality).
 *    `lower` is a running lower bound on the distance to the nearest
 *    *non-owner* centroid (second-best at the last full scan, shrunk
 *    by the maximum centroid movement after every M-step): `u <
 *    lower` again proves strict nearest.  Both inequalities are
 *    strict, so a tie can never be skipped and the naive scan's
 *    lowest-index tie-break is preserved verbatim by the fallback
 *    full scan.
 *  - The skipped class's contribution to the SSE is `dOwn`, computed
 *    by the same sqDist on the same operands the naive scan would
 *    reduce with, and the SSE is accumulated over *original* points
 *    in the same chunk order — bit-identical floats.
 */
struct AccelState
{
    std::vector<u32> classOf;    ///< point -> class
    std::vector<u32> classFirst; ///< class -> lowest point index
    std::vector<u32> ownerOf;    ///< class -> owner hypothesis
    std::vector<double> lower;   ///< class -> non-owner lower bound
    std::vector<double> dOwn;    ///< class -> exact sqDist to owner
    bool boundsValid = false;    ///< lower[] usable this iteration

    /** Adopt the data's duplicate classes (identity when absent). */
    void
    attach(const ProjectedData& data)
    {
        if (data.hasClasses()) {
            classOf = data.classOf;
            classFirst = data.classFirst;
        } else {
            classOf.resize(data.count);
            classFirst.resize(data.count);
            for (std::size_t i = 0; i < data.count; ++i) {
                classOf[i] = static_cast<u32>(i);
                classFirst[i] = static_cast<u32>(i);
            }
        }
        ownerOf.assign(classFirst.size(), 0);
        lower.assign(classFirst.size(), 0.0);
        dOwn.assign(classFirst.size(), 0.0);
    }

    /** Seed owner hypotheses from the current labels. */
    void
    adoptLabels(const std::vector<u32>& labels)
    {
        for (std::size_t u = 0; u < classFirst.size(); ++u)
            ownerOf[u] = labels[classFirst[u]];
    }

    /** Centroids teleported (re-seeding): bounds mean nothing now. */
    void invalidate() { boundsValid = false; }

    /** Centroids moved smoothly: shrink bounds by the worst move. */
    void
    relax(const simd::AlignedVec& oldCentroids,
          const KMeansResult& res, u32 dims)
    {
        if (!boundsValid)
            return;
        const simd::Kernels& kern = simd::active();
        const std::size_t cstride = res.rowStride(dims);
        double maxMove = 0.0;
        for (u32 c = 0; c < res.k; ++c) {
            const double* before =
                oldCentroids.data() +
                static_cast<std::size_t>(c) * cstride;
            maxMove = std::max(
                maxMove, kern.sqDist(before,
                                     res.centroidRow(c, dims),
                                     cstride));
        }
        if (maxMove <= 0.0)
            return;
        const double move = std::sqrt(maxMove);
        for (double& bound : lower)
            bound = std::max(0.0, bound - move);
    }
};

/**
 * Accelerated drop-in for assignLabels(): per-class Hamerly-bounded
 * nearest-centroid search, then a broadcast pass over the original
 * points that assigns labels and reduces the weighted SSE in exactly
 * the naive chunk order.  See AccelState for why the result is
 * bit-identical.
 */
double
assignLabelsAccel(const ProjectedData& data, const KMeansResult& res,
                  std::vector<u32>& labels, AccelState& state)
{
    const u32 k = res.k;
    const simd::Kernels& kern = simd::active();
    const std::size_t stride = data.rowStride();
    const std::size_t cstride = res.rowStride(data.dims);
    // Half-distance from each centroid to its nearest neighbour.
    // With k == 1 this stays huge and every class skips (the single
    // centroid is trivially nearest).
    std::vector<double> guard(k, std::numeric_limits<double>::max());
    for (u32 c = 0; c < k; ++c) {
        for (u32 c2 = c + 1; c2 < k; ++c2) {
            const double d = kern.sqDist(res.centroidRow(c, data.dims),
                                         res.centroidRow(c2, data.dims),
                                         cstride);
            guard[c] = std::min(guard[c], d);
            guard[c2] = std::min(guard[c2], d);
        }
    }
    for (double& g : guard)
        g = 0.5 * std::sqrt(g);

    if (!state.boundsValid) {
        std::fill(state.lower.begin(), state.lower.end(), 0.0);
        state.boundsValid = true;
    }

    parallelChunks(
        globalPool(), state.classFirst.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
            obs::ShardCounter distances(kmeansStats().distances);
            obs::ShardCounter skips(kmeansStats().skips);
            obs::ShardCounter fallbacks(kmeansStats().fallbacks);
            std::vector<double> dist(k);
            for (std::size_t u = begin; u < end; ++u) {
                const double* x = data.row(state.classFirst[u]);
                const u32 a = state.ownerOf[u];
                const double down =
                    kern.sqDist(x, res.centroidRow(a, data.dims),
                                stride);
                distances.add();
                if (std::sqrt(down) <
                    std::max(guard[a], state.lower[u])) {
                    state.dOwn[u] = down;
                    skips.add();
                    continue;
                }
                fallbacks.add();
                distances.add(k);
                // Fallback: the naive scan, verbatim (same batched
                // kernel over the same operands), plus second-best
                // tracking to refresh the lower bound.
                kern.sqDistBatch(x, res.centroids.data(), k, stride,
                                 cstride, dist.data());
                double best = std::numeric_limits<double>::max();
                double second = best;
                u32 bestC = 0;
                for (u32 c = 0; c < k; ++c) {
                    if (dist[c] < best) {
                        second = best;
                        best = dist[c];
                        bestC = c;
                    } else if (dist[c] < second) {
                        second = dist[c];
                    }
                }
                state.ownerOf[u] = bestC;
                state.dOwn[u] = best;
                state.lower[u] = std::sqrt(second);
            }
        });

    // Broadcast labels and reduce the SSE over original points, in
    // the same chunking the naive E-step uses.
    std::vector<double> partialSse(parallelChunkCount(data.count),
                                   0.0);
    parallelChunks(
        globalPool(), data.count,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            double sse = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const u32 u = state.classOf[i];
                labels[i] = state.ownerOf[u];
                sse += data.weights[i] * state.dOwn[u];
            }
            partialSse[chunk] = sse;
        });
    double sse = 0.0;
    for (double partial : partialSse)
        sse += partial;
    return sse;
}

/**
 * Recompute weighted centroids; returns ids of empty clusters.
 *
 * With a `dirty` mask (accelerated path) only the flagged clusters
 * are rebuilt, and the flags are cleared.  A centroid row and its
 * weight are a deterministic function of the cluster's ordered
 * member list and those members' rows and weights, so a cluster no
 * point entered or left since this function last produced its row
 * would get back exactly the row it holds.  Callers flag every
 * cluster whose row came from anywhere else (seeding, re-seeding).
 * The empty list still covers all k clusters.
 */
std::vector<u32>
updateCentroids(const ProjectedData& data, KMeansResult& res,
                std::vector<u8>* dirty = nullptr)
{
    const simd::Kernels& kern = simd::active();
    const std::size_t cstride = res.rowStride(data.dims);
    auto rebuilt = [&](u32 c) { return !dirty || (*dirty)[c]; };
    u32 rebuilding = 0;
    for (u32 c = 0; c < res.k; ++c) {
        if (!rebuilt(c))
            continue;
        ++rebuilding;
        std::fill_n(res.centroids.data() +
                        static_cast<std::size_t>(c) * cstride,
                    cstride, 0.0);
        res.clusterWeight[c] = 0.0;
    }
    // Accumulation stays serial in point order: the reduction order
    // into each centroid is part of the pinned semantics (elementwise
    // axpy per point, points in increasing index order).
    u64 rows = 0;
    for (std::size_t i = 0; rebuilding && i < data.count; ++i) {
        const u32 c = res.labels[i];
        if (!rebuilt(c))
            continue;
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const double w = data.weights[i];
        kern.axpy(crow, data.row(i), w, data.rowStride());
        res.clusterWeight[c] += w;
        ++rows;
    }
    kmeansStats().mstepRows.add(rows);
    std::vector<u32> empty;
    for (u32 c = 0; c < res.k; ++c) {
        if (res.clusterWeight[c] <= 0.0) {
            empty.push_back(c);
            continue;
        }
        if (!rebuilt(c))
            continue;
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        for (u32 d = 0; d < data.dims; ++d)
            crow[d] /= res.clusterWeight[c];
    }
    if (dirty)
        std::fill(dirty->begin(), dirty->end(), u8{0});
    return empty;
}

/**
 * Re-seed an empty cluster with the worst-fitting point.  With an
 * AccelState the point-to-owner distances are memoised per (class,
 * owner) pair: rows of a class are bit-identical, so one sqDist per
 * pair gives every member's distance bit for bit.  Only empty
 * clusters are re-seeded and their points are never candidates, so
 * the owners' centroids — and the table — stay fixed across the
 * whole call.  The scan itself still runs over points in index order
 * with the naive strict `>`, so it picks the same point.
 *
 * Each re-seeded cluster and the donor of its stolen point are
 * flagged in `dirty` (when given) for the next updateCentroids().
 */
void
reseedEmpty(const ProjectedData& data, KMeansResult& res,
            const std::vector<u32>& empty, const AccelState* accel,
            std::vector<u8>* dirty = nullptr)
{
    const simd::Kernels& kern = simd::active();
    const std::size_t cstride = res.rowStride(data.dims);
    std::vector<double> memo;
    if (accel)
        memo.assign(accel->classFirst.size() * res.k, -1.0);
    auto ownerDist = [&](std::size_t i, u32 owner) {
        auto dist = [&] {
            return kern.sqDist(data.row(i),
                               res.centroidRow(owner, data.dims),
                               data.rowStride());
        };
        if (!accel)
            return dist();
        double& slot =
            memo[static_cast<std::size_t>(accel->classOf[i]) * res.k +
                 owner];
        if (slot < 0.0)
            slot = dist();
        return slot;
    };
    for (u32 c : empty) {
        double worst = -1.0;
        std::size_t worstIdx = 0;
        for (std::size_t i = 0; i < data.count; ++i) {
            const u32 owner = res.labels[i];
            if (res.clusterWeight[owner] <= 0.0)
                continue;
            const double d = ownerDist(i, owner);
            if (d > worst) {
                worst = d;
                worstIdx = i;
            }
        }
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(worstIdx);
        std::copy(p.begin(), p.end(), crow);
        if (dirty)
            (*dirty)[c] = (*dirty)[res.labels[worstIdx]] = 1;
        res.labels[worstIdx] = c;
    }
}

/**
 * D^2 seeding.  With an AccelState the distance-to-nearest-centroid
 * table is maintained per duplicate class and expanded to per-point
 * sampling probabilities; the probabilities — and hence the RNG
 * consumption and every pick — are bit-identical to the naive loop,
 * because a class member's distance IS its representative's distance
 * (identical rows).
 *
 * The accelerated draws also walk only the points whose term can
 * still be non-zero.  A term w * minDist that is +-0 stays +-0 from
 * then on: w is fixed and minDist only falls, so the rounded product
 * only shrinks in magnitude.  Adding +-0 to the (never -0) total and
 * subtracting it from r change neither, and r <= 0 can first hold at
 * a zero term only when it already held before the scan, where the
 * naive draw picks index 0 (weights are non-negative).  So the
 * compacted active list, kept in point order, gives the same total,
 * the same r at every non-zero term and the same pick; a scan that
 * runs off the end still picks the last point, not the last active
 * one.
 */
void
initPlusPlus(const ProjectedData& data, KMeansResult& res, Rng& rng,
             const AccelState* accel)
{
    // First centroid: weighted-uniform draw.
    auto pickWeighted = [&](const std::vector<double>& probs) {
        double total = 0.0;
        for (double p : probs)
            total += p;
        kmeansStats().initTerms.add(probs.size());
        double r = rng.nextDouble() * total;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            r -= probs[i];
            if (r <= 0.0)
                return i;
        }
        return probs.size() - 1;
    };

    const simd::Kernels& kern = simd::active();
    const std::size_t cstride = res.rowStride(data.dims);
    std::size_t first = pickWeighted(data.weights);
    auto setCentroid = [&](u32 c, std::size_t i) {
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(i);
        std::copy(p.begin(), p.end(), crow);
    };
    setCentroid(0, first);

    const std::size_t slots =
        accel ? accel->classFirst.size() : data.count;
    std::vector<double> minDist(slots,
                                std::numeric_limits<double>::max());
    std::vector<double> probs(data.count);
    std::vector<u32> active;
    if (accel) {
        active.resize(data.count);
        std::iota(active.begin(), active.end(), u32{0});
    }
    for (u32 c = 1; c < res.k; ++c) {
        for (std::size_t u = 0; u < slots; ++u) {
            const std::size_t rep =
                accel ? accel->classFirst[u] : u;
            const double d =
                kern.sqDist(data.row(rep),
                            res.centroidRow(c - 1, data.dims),
                            data.rowStride());
            minDist[u] = std::min(minDist[u], d);
        }
        if (!accel) {
            for (std::size_t i = 0; i < data.count; ++i)
                probs[i] = data.weights[i] * minDist[i];
            setCentroid(c, pickWeighted(probs));
            continue;
        }
        // Compact the active list to its non-zero terms (probs[j]
        // belongs to active[j]) and sum them in point order.
        std::size_t live = 0;
        double total = 0.0;
        for (const u32 i : active) {
            const double p =
                data.weights[i] * minDist[accel->classOf[i]];
            if (p == 0.0)
                continue;
            active[live] = i;
            probs[live++] = p;
            total += p;
        }
        active.resize(live);
        kmeansStats().initTerms.add(live);
        double r = rng.nextDouble() * total;
        std::size_t pick = r <= 0.0 ? 0 : data.count - 1;
        for (std::size_t j = 0; r > 0.0 && j < live; ++j) {
            r -= probs[j];
            if (r <= 0.0)
                pick = active[j];
        }
        setCentroid(c, pick);
    }
}

void
initRandomPartition(const ProjectedData& data, KMeansResult& res,
                    Rng& rng, const AccelState* accel)
{
    for (std::size_t i = 0; i < data.count; ++i)
        res.labels[i] = static_cast<u32>(rng.nextBelow(res.k));
    // Guarantee every cluster owns at least one point.
    for (u32 c = 0; c < res.k && c < data.count; ++c)
        res.labels[c] = c;
    const auto empty = updateCentroids(data, res);
    reseedEmpty(data, res, empty, accel);
    // Re-seeding relabels the stolen points, leaving the donor
    // clusters' centroids and weights stale; recompute once so the
    // first E-step sees centroids consistent with the labels.
    if (!empty.empty())
        updateCentroids(data, res);
}

/**
 * Brent-style cycle detector over the Lloyd loop state at loop entry.
 *
 * One iteration of the loop is a deterministic function of
 * (labels, centroids) at its entry: the E-step reads only the
 * centroids, updateCentroids rebuilds clusterWeight before anything
 * reads it, and the Hamerly state only decides which distances get
 * computed, never a result.  So once the state at iteration t equals
 * the one at t - period, the states repeat with that period forever,
 * and a cycle that did not break the first time round never will.
 *
 * A copy is taken only at iterations 1, 2, 4, 8, ... and every later
 * state is compared against the latest copy, labels first, so a fit
 * that converges in a few iterations pays two vector copies.
 * Iteration 0 is never recorded: `stable` is gated on iter > 0, so a
 * state first seen there could still break at its repeat.
 */
struct CycleProbe
{
    std::vector<u32> labels;
    simd::AlignedVec centroids;
    u32 at = 0;  ///< iteration of the copy (0: none yet)

    /** Period of the cycle the state at `iter` closes, or 0. */
    u32
    observe(u32 iter, const KMeansResult& res)
    {
        if (iter == 0)
            return 0;
        if (at && res.labels == labels &&
            std::memcmp(res.centroids.data(), centroids.data(),
                        centroids.size() * sizeof(double)) == 0)
            return iter - at;
        if ((iter & (iter - 1)) == 0) {
            labels = res.labels;
            centroids = res.centroids;
            at = iter;
        }
        return 0;
    }
};

} // namespace

KMeansResult
runKMeans(const ProjectedData& data, u32 k, Rng& rng,
          const KMeansOptions& options)
{
    if (data.count == 0)
        fatal("k-means called with no data points");
    KMeansResult res;
    res.k = std::max<u32>(1, std::min<u32>(
                                 k, static_cast<u32>(data.count)));
    res.labels.assign(data.count, 0);
    // Centroid rows share the data's padded stride so the batched
    // kernels can stream both matrices tail-free.
    res.stride = data.rowStride();
    res.centroids.assign(
        static_cast<std::size_t>(res.k) * res.stride, 0.0);
    res.clusterWeight.assign(res.k, 0.0);

    AccelState state;
    if (options.accelerate)
        state.attach(data);

    if (options.init == InitMethod::KMeansPlusPlus)
        initPlusPlus(data, res, rng,
                     options.accelerate ? &state : nullptr);
    else
        initRandomPartition(data, res, rng,
                            options.accelerate ? &state : nullptr);

    if (options.accelerate)
        state.adoptLabels(res.labels);
    auto assign = [&](std::vector<u32>& labels) {
        return options.accelerate
                   ? assignLabelsAccel(data, res, labels, state)
                   : assignLabels(data, res, labels);
    };

    std::vector<u32> newLabels(data.count, 0);
    // Accelerated path: clusters some point entered or left since
    // updateCentroids() last produced their row.  Iteration 0's rows
    // are seeds, not M-step output, so every cluster starts dirty.
    std::vector<u8> dirty;
    if (options.accelerate)
        dirty.assign(res.k, 1);
    std::vector<u8>* const dirtyMask =
        options.accelerate ? &dirty : nullptr;
    simd::AlignedVec oldCentroids;
    CycleProbe probe;
    bool cycling = false;
    for (u32 iter = 0; iter < options.maxIterations; ++iter) {
        if (options.accelerate && !cycling) {
            if (const u32 period = probe.observe(iter, res)) {
                // Proven cycle: no iteration up to maxIterations
                // breaks, and whole periods leave the state where it
                // is.  Skip them and run the remainder normally.
                const u32 skip =
                    (options.maxIterations - iter) / period * period;
                cycling = true;
                kmeansStats().cycles.add();
                kmeansStats().proven.add(skip);
                iter += skip;
                if (iter == options.maxIterations) {
                    res.iterations = iter;
                    break;
                }
            }
        }
        res.iterations = iter + 1;
        res.weightedSse = assign(newLabels);
        bool stable;
        if (options.accelerate) {
            // Adopt the new labels in place, flagging both ends of
            // every move for the M-step.
            bool moved = false;
            for (std::size_t i = 0; i < data.count; ++i) {
                const u32 from = res.labels[i];
                const u32 to = newLabels[i];
                if (from != to) {
                    dirty[from] = dirty[to] = 1;
                    res.labels[i] = to;
                    moved = true;
                }
            }
            stable = !moved && iter > 0;
            oldCentroids = res.centroids;
        } else {
            stable = newLabels == res.labels && iter > 0;
            res.labels = newLabels;
        }
        const auto empty = updateCentroids(data, res, dirtyMask);
        if (!empty.empty()) {
            reseedEmpty(data, res, empty,
                        options.accelerate ? &state : nullptr,
                        dirtyMask);
            updateCentroids(data, res, dirtyMask);
            state.invalidate();
            continue;
        }
        if (options.accelerate)
            state.relax(oldCentroids, res, data.dims);
        if (stable) {
            res.converged = true;
            break;
        }
    }
    // Final consistent assignment and SSE against the final
    // centroids; recompute member weights to match the final labels
    // without moving the centroids again.  A converged accelerated
    // fit skips it: its last iteration moved no point, so its M-step
    // rebuilt nothing and this E-step would read exactly the
    // centroids the last one read, giving back the same labels and
    // SSE; every clusterWeight was summed by an M-step over these
    // same members in this same order.
    if (!(options.accelerate && res.converged)) {
        res.weightedSse = assign(res.labels);
        std::fill(res.clusterWeight.begin(), res.clusterWeight.end(),
                  0.0);
        for (std::size_t i = 0; i < data.count; ++i)
            res.clusterWeight[res.labels[i]] += data.weights[i];
    }
    kmeansStats().fits.add();
    kmeansStats().iterations.sample(res.iterations);
    return res;
}

} // namespace xbsp::sp
