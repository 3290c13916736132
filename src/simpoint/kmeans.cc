#include "simpoint/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <span>

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
 * them against the work of the naive reference in tests/oracle.
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
    obs::Counter mstepRuns;  ///< same-class runs those rows came in
    obs::Counter mstepReused;  ///< M-step lookups the memo served
    obs::Counter initTerms;  ///< k-means++ terms added in point order
    obs::Counter initFallbacks;  ///< k-means++ draws drawn sequentially
    obs::Distribution iterations;
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
        reg.counter("kmeans.mstep.runs"),
        reg.counter("kmeans.mstep.reused"),
        reg.counter("kmeans.init.terms"),
        reg.counter("kmeans.init.fallbacks"),
        reg.distribution("kmeans.iterations"),
    };
    return stats;
}

/**
 * State for the E-step: Hamerly distance bounds kept per duplicate
 * class (a singleton class per point when the data has no
 * duplicates).
 *
 * Exactness against the naive per-point scan of the reference loop
 * (tests/oracle/simpoint), in full (DESIGN.md, "Clustering
 * acceleration"):
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
 *
 * Between E-steps the labels are kept per class too: while
 * `classLevel` holds, point i's label is `labelOwner[classOf[i]]`
 * and the fit holds no per-point labels.  Only a random-partition
 * start or a re-seed that splits a class makes them per point, in a
 * vector materialize() fills and release() frees once they are
 * class-level again.
 */
struct AccelState
{
    std::span<const u32> classOf;    ///< point -> class
    std::span<const u32> classFirst; ///< class -> lowest point index
    std::vector<u32> ownerOf;   ///< class -> owner hypothesis
    std::vector<double> lower;  ///< class -> non-owner lower bound
    std::vector<double> dOwn;   ///< class -> exact sqDist to owner
    bool boundsValid = false;   ///< lower[] usable this iteration
    std::vector<u32> labelOwner;  ///< class -> label of its points
    bool classLevel = false;      ///< labelOwner holds the labels

    /** Adopt the data's duplicate classes. */
    void
    attach(const ProjectedData& data)
    {
        classOf = data.classOf;
        classFirst = data.classFirst;
        ownerOf.assign(classFirst.size(), 0);
        lower.assign(classFirst.size(), 0.0);
        dOwn.assign(classFirst.size(), 0.0);
    }

    /** Start with every point in cluster 0 (k-means++ seeding). */
    void
    adoptUniform()
    {
        labelOwner = ownerOf;
        classLevel = true;
    }

    /** Seed owner hypotheses from per-point starting labels. */
    void
    adoptLabels(std::vector<u32>& labels)
    {
        for (std::size_t u = 0; u < classFirst.size(); ++u)
            ownerOf[u] = labels[classFirst[u]];
        regroup(labels);
    }

    /**
     * Make per-point labels class-level again when every class's
     * members share one label.  A re-seed moves single points, so it
     * keeps that only when each point it moved was alone in its
     * class (always, for data without duplicates).
     */
    void
    regroup(std::vector<u32>& labels)
    {
        for (std::size_t i = 0; i < labels.size(); ++i) {
            if (labels[i] != labels[classFirst[classOf[i]]])
                return;
        }
        labelOwner.resize(classFirst.size());
        for (std::size_t u = 0; u < classFirst.size(); ++u)
            labelOwner[u] = labels[classFirst[u]];
        classLevel = true;
        release(labels);
    }

    /**
     * Take the E-step's owners as the labels, flagging both ends of
     * every move in `dirty`; returns whether any point moved.  Every
     * class has a member, so a class moves exactly when its members
     * do, and comparing owners per class flags the same clusters as
     * comparing labels per point.  After a re-seed that split a
     * class the labels are per point and are compared per point.
     */
    bool
    adoptOwners(std::vector<u32>& labels, std::vector<u8>& dirty)
    {
        bool moved = false;
        auto move = [&](u32 from, u32 to) {
            if (from != to) {
                dirty[from] = dirty[to] = 1;
                moved = true;
            }
        };
        if (classLevel) {
            for (std::size_t u = 0; u < ownerOf.size(); ++u)
                move(labelOwner[u], ownerOf[u]);
        } else {
            for (std::size_t i = 0; i < labels.size(); ++i)
                move(labels[i], ownerOf[classOf[i]]);
        }
        labelOwner = ownerOf;
        classLevel = true;
        release(labels);
        return moved;
    }

    /** Write class-level labels out per point; labels are per point
     *  from then on. */
    void
    materialize(std::vector<u32>& labels)
    {
        if (!classLevel)
            return;
        labels.resize(classOf.size());
        for (std::size_t i = 0; i < labels.size(); ++i)
            labels[i] = labelOwner[classOf[i]];
        classLevel = false;
    }

    /** Free per-point labels that `labelOwner` now stands for. */
    void
    release(std::vector<u32>& labels) const
    {
        if (classLevel)
            std::vector<u32>().swap(labels);
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
        const std::size_t cstride = res.rowStride(dims);
        double maxMove = 0.0;
        for (u32 c = 0; c < res.k; ++c) {
            const double* before =
                oldCentroids.data() +
                static_cast<std::size_t>(c) * cstride;
            maxMove = std::max(
                maxMove, simd::sqDist(before,
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
 * E-step: per-class Hamerly-bounded nearest-centroid search, leaving
 * each class's owner in `state.ownerOf` and its exact squared
 * distance in `state.dOwn`.  The SSE is reduced only once the fit
 * is done; see ownersSse().
 */
void
assignClassesAccel(const ProjectedData& data, const KMeansResult& res,
                   AccelState& state)
{
    const u32 k = res.k;
    const std::size_t stride = data.rowStride();
    const std::size_t cstride = res.rowStride(data.dims);
    // Half-distance from each centroid to its nearest neighbour.
    // With k == 1 this stays huge and every class skips (the single
    // centroid is trivially nearest).
    std::vector<double> guard(k, std::numeric_limits<double>::max());
    for (u32 c = 0; c < k; ++c) {
        for (u32 c2 = c + 1; c2 < k; ++c2) {
            const double d = simd::sqDist(res.centroidRow(c, data.dims),
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
                const double* x = data.classRow(u);
                const u32 a = state.ownerOf[u];
                const double down =
                    simd::sqDist(x, res.centroidRow(a, data.dims),
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
                simd::sqDistBatch(x, res.centroids.data(), k, stride,
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
}

/**
 * Reduce the weighted SSE of the last E-step's owners over original
 * points, in the same chunking the naive reference E-step uses: the
 * SSE is bit-identical to its SSE over the same centroids.
 */
double
ownersSse(const ProjectedData& data, const AccelState& state)
{
    std::vector<double> partialSse(parallelChunkCount(data.count),
                                   0.0);
    parallelChunks(
        globalPool(), data.count,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            double sse = 0.0;
            for (std::size_t i = begin; i < end; ++i)
                sse += data.weights[i] * state.dOwn[state.classOf[i]];
            partialSse[chunk] = sse;
        });
    double sse = 0.0;
    for (double partial : partialSse)
        sse += partial;
    return sse;
}

/** Rows and same-class runs one M-step accumulated, per cluster. */
struct RebuildWork
{
    std::vector<u64> rows;
    std::vector<u64> runs;
};

/**
 * Rebuild the clusters flagged in `rebuild` from scratch: zero the
 * row and weight, add every member's weighted row in increasing point
 * index, then divide by the summed weight when it is positive.  That
 * order is the pinned semantics of an M-step, so a row and its weight
 * are a deterministic function of the cluster's ordered member list.
 * `forEachRun(add)` calls `add(begin, end, c)` for consecutive points
 * [begin, end) of one class, all in flagged cluster c, covering every
 * member of every flagged cluster in increasing point order.  The
 * stretch shares one row, so simd::axpyRun adds it with the row held
 * in registers: bit for bit one axpy per member.
 */
template <typename ForEachRun>
RebuildWork
rebuildClusters(const ProjectedData& data, KMeansResult& res,
                const std::vector<u8>& rebuild, ForEachRun forEachRun)
{
    const std::size_t cstride = res.rowStride(data.dims);
    auto row = [&](u32 c) {
        return res.centroids.data() +
               static_cast<std::size_t>(c) * cstride;
    };
    RebuildWork work{std::vector<u64>(res.k, 0),
                     std::vector<u64>(res.k, 0)};
    if (std::ranges::find(rebuild, u8{1}) == rebuild.end())
        return work;
    for (u32 c = 0; c < res.k; ++c) {
        if (rebuild[c]) {
            std::fill_n(row(c), cstride, 0.0);
            res.clusterWeight[c] = 0.0;
        }
    }
    // The run loop reads through locals: GCC cannot prove the row
    // stores leave the containers' buffer pointers alone, and
    // reloading them per run made single-point runs slower than one
    // axpy per member.
    double* const centroids = res.centroids.data();
    double* const clusterWeight = res.clusterWeight.data();
    const double* const weights = data.weights.data();
    const double* const classRows = data.classRows.data();
    const u32* const classOf = data.classOf.data();
    const std::size_t stride = data.rowStride();
    u64* const rows = work.rows.data();
    u64* const runs = work.runs.data();
    forEachRun([&](std::size_t begin, std::size_t end, u32 c) {
        const double* w = weights + begin;
        simd::axpyRun(centroids + c * cstride,
                      classRows + classOf[begin] * stride, w, end - begin,
                      stride);
        double weight = clusterWeight[c];
        for (std::size_t i = 0; i < end - begin; ++i)
            weight += w[i];
        clusterWeight[c] = weight;
        rows[c] += end - begin;
        ++runs[c];
    });
    for (u32 c = 0; c < res.k; ++c) {
        if (!rebuild[c] || res.clusterWeight[c] <= 0.0)
            continue;
        double* crow = row(c);
        for (u32 d = 0; d < data.dims; ++d)
            crow[d] /= res.clusterWeight[c];
    }
    return work;
}

/** Clusters whose weight is not positive, over all k. */
std::vector<u32>
emptyClusters(const KMeansResult& res)
{
    std::vector<u32> empty;
    for (u32 c = 0; c < res.k; ++c) {
        if (res.clusterWeight[c] <= 0.0)
            empty.push_back(c);
    }
    return empty;
}

/**
 * Recompute weighted centroids from per-point `pointLabels`; returns
 * ids of empty clusters.
 *
 * With a `dirty` mask only the flagged clusters are rebuilt, and the
 * flags are cleared.  A cluster no point entered or left since an
 * M-step last produced its row would get back exactly the row it
 * holds.  Callers flag every cluster whose row
 * came from anywhere else (seeding, re-seeding).  The empty list
 * still covers all k clusters.
 */
std::vector<u32>
updateCentroids(const ProjectedData& data, KMeansResult& res,
                const std::vector<u32>& pointLabels,
                std::vector<u8>* dirty = nullptr)
{
    const std::vector<u8> all(res.k, 1);
    const std::vector<u8>& rebuild = dirty ? *dirty : all;
    const auto work =
        rebuildClusters(data, res, rebuild, [&](auto&& add) {
            // Each run, split wherever the label changes.
            const u32* const runStart = data.runStart.data();
            const u32* const labels = pointLabels.data();
            const u8* const flagged = rebuild.data();
            const std::size_t runs = data.runs();
            for (std::size_t r = 0; r < runs; ++r) {
                const std::size_t end = runStart[r + 1];
                for (std::size_t i = runStart[r]; i < end;) {
                    const u32 c = labels[i];
                    std::size_t j = i + 1;
                    while (j < end && labels[j] == c)
                        ++j;
                    if (flagged[c])
                        add(i, j, c);
                    i = j;
                }
            }
        });
    kmeansStats().mstepRows.add(
        std::accumulate(work.rows.begin(), work.rows.end(), u64{0}));
    kmeansStats().mstepRuns.add(
        std::accumulate(work.runs.begin(), work.runs.end(), u64{0}));
    if (dirty)
        std::fill(dirty->begin(), dirty->end(), u8{0});
    return emptyClusters(res);
}

/**
 * One k-means++ draw over the terms `term(i)` of `n` points: the
 * duplicate class of the point the sequential draw picks with uniform
 * `u` (see plusPlusDraw() for that draw).  `pairTerm(p)` is pair p's
 * share of a block's sum: pairs.weight[p] times the distance of class
 * pairs.cls[p] (the weight alone in the first draw).
 *
 * The certified draw (DESIGN.md "Clustering acceleration", item 5)
 * sums each block of drawBlock points over its class pairs, four
 * independent accumulators each, into block prefixes, and sets
 * rHat = u * S for their total S.  The sequential draw's pick is
 * then a live point whose computed prefix interval meets
 * [rHat - tol, rHat + tol], so only the blocks that window touches
 * are scanned, point by point.  When all live points there share one
 * class, that class holds the pick.  Otherwise, and whenever a
 * premise of the bound fails (a negative term possible, S not finite
 * or above 2^1023, rHat within tol of 0 or of S), the draw falls back
 * to the sequential draw.
 */
template <typename PairTerm, typename Term>
u32
drawClass(std::size_t n, const BlockPairs& pairs, const PairTerm& pairTerm,
          const Term& term, std::span<const u32> classOf, double u,
          bool certify)
{
    KMeansStats& stats = kmeansStats();
    const std::size_t blocks = pairs.start.size() - 1;
    std::vector<double> prefix(blocks + 1, 0.0);
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t end = pairs.start[b + 1];
        std::size_t p = pairs.start[b];
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        for (; p + 4 <= end; p += 4) {
            acc[0] += pairTerm(p);
            acc[1] += pairTerm(p + 1);
            acc[2] += pairTerm(p + 2);
            acc[3] += pairTerm(p + 3);
        }
        for (; p < end; ++p)
            acc[0] += pairTerm(p);
        prefix[b + 1] = prefix[b] + ((acc[0] + acc[1]) + (acc[2] + acc[3]));
    }
    const double total = prefix[blocks];
    const double rHat = u * total;
    // 2x the first-order bound (4n + 5) * 2^-53 * rHat +
    // (4n + 2) * 2^-1075, with slack; the absolute part grows with n
    // because each pair's product rounds apart from its members'.
    const double scale = static_cast<double>(n + 8);
    const double tol =
        rHat * (8.0 * scale * 0x1p-53) +
        4.0 * scale * std::numeric_limits<double>::denorm_min();
    if (certify && total <= 0x1p1023 && rHat > tol && rHat + tol < total) {
        const double lo = rHat - tol;
        const double hi = rHat + tol;
        // The first block whose end prefix reaches the window.
        const std::size_t start =
            drawBlock * static_cast<std::size_t>(
                            std::lower_bound(prefix.begin() + 1,
                                             prefix.end(), lo) -
                            (prefix.begin() + 1));
        constexpr u32 none = std::numeric_limits<u32>::max();
        u32 cls = none;
        bool oneClass = true;
        double sum = prefix[start / drawBlock];
        std::size_t i = start;
        for (; i < n && sum <= hi; ++i) {
            const double t = term(i);
            sum += t;
            if (t > 0.0 && sum >= lo) {
                if (cls == none) {
                    cls = classOf[i];
                } else if (classOf[i] != cls) {
                    oneClass = false;
                    break;
                }
            }
        }
        stats.initTerms.add(i - start);
        if (oneClass) {
            if (cls == none)
                panic("k-means++ draw window at {} +- {} holds no live "
                      "point", rHat, tol);
            return cls;
        }
    }

    stats.initFallbacks.add();
    stats.initTerms.add(n);
    double sequentialTotal = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sequentialTotal += term(i);
    double r = u * sequentialTotal;
    for (std::size_t i = 0; i < n; ++i) {
        r -= term(i);
        if (r <= 0.0)
            return classOf[i];
    }
    return classOf[n - 1];
}

/** No value in `values` is negative (NaN is not). */
bool
noneNegative(std::span<const double> values)
{
    return std::ranges::none_of(values, [](double v) { return v < 0.0; });
}

} // namespace

u32
plusPlusDraw(std::span<const double> weights,
             std::span<const double> minDist, std::span<const u32> classOf,
             double u)
{
    if (weights.empty() || classOf.size() != weights.size())
        panic("k-means++ draw over {} weights and {} class ids",
              weights.size(), classOf.size());
    const bool certify = noneNegative(weights) && noneNegative(minDist);
    const BlockPairs pairs = blockPairs(weights, classOf);
    if (minDist.empty())
        return drawClass(
            weights.size(), pairs,
            [&](std::size_t p) { return pairs.weight[p]; },
            [&](std::size_t i) { return weights[i]; }, classOf, u,
            certify);
    return drawClass(
        weights.size(), pairs,
        [&](std::size_t p) {
            return pairs.weight[p] * minDist[pairs.cls[p]];
        },
        [&](std::size_t i) { return weights[i] * minDist[classOf[i]]; },
        classOf, u, certify);
}

/**
 * M-step results of one sweep, keyed by owned-class bitset and
 * ordered by its words, so a lookup compares keys exactly.  Entries
 * are never changed or erased once inserted, and map nodes never
 * move, so an entry found under the lock may be read after it is
 * released.
 */
struct MStepMemo::Table
{
    struct Entry
    {
        std::vector<double> row;  ///< divided row, padded stride
        double weight = 0.0;      ///< the cluster's clusterWeight
    };

    /** Lexicographic order over bitset words, for any word range. */
    struct KeyLess
    {
        using is_transparent = void;

        bool
        operator()(std::span<const u64> a, std::span<const u64> b) const
        {
            return std::ranges::lexicographical_compare(a, b);
        }
    };

    std::mutex mutex;
    std::map<std::vector<u64>, Entry, KeyLess> byKey;

    /** The entry stored for `key`, or null.  Hold `mutex`. */
    const Entry*
    find(std::span<const u64> key) const
    {
        const auto it = byKey.find(key);
        return it == byKey.end() ? nullptr : &it->second;
    }
};

MStepMemo::MStepMemo(const ProjectedData& data)
    : source(data), table(std::make_unique<Table>())
{
}

MStepMemo::~MStepMemo() = default;

namespace
{

/**
 * updateCentroids() for class-level labels (`state.classLevel`),
 * where a cluster's ordered member list is every point of the
 * classes it owns, in increasing index.  Its row and weight are then
 * a pure function of that class set over the fixed data, so a dirty
 * cluster looks its set up in the sweep's `memo` and takes the
 * stored row and weight when some fit of the sweep — this one
 * included — already built them: the very bits this M-step would
 * compute.  Misses are rebuilt exactly as updateCentroids() would
 * (zeroed row, each member added in point order, one division), one
 * run of the data at a time, since a run's class has one owner, and
 * then offered to the memo; when a concurrent fit inserted the same
 * key first, its equal value stays.
 *
 * `kmeans.mstep.rows` and `kmeans.mstep.runs` count only the rows
 * and runs of rebuilds that insert an entry (all rebuilds without a
 * memo), and `kmeans.mstep.reused` every lookup an entry served, so
 * all three are the same at any worker count: each distinct key is
 * inserted once per sweep.
 */
std::vector<u32>
updateCentroidsByClass(const ProjectedData& data, KMeansResult& res,
                       const AccelState& state, std::vector<u8>& dirty,
                       MStepMemo* memo)
{
    using Entry = MStepMemo::Table::Entry;
    const u32 k = res.k;
    const std::size_t cstride = res.rowStride(data.dims);
    const std::size_t words = (state.classFirst.size() + 63) / 64;
    std::vector<u64> keys(static_cast<std::size_t>(k) * words, 0);
    std::vector<u8> owns(k, 0);
    for (std::size_t u = 0; u < state.labelOwner.size(); ++u) {
        const u32 c = state.labelOwner[u];
        if (!dirty[c])
            continue;
        keys[c * words + u / 64] |= u64{1} << (u % 64);
        owns[c] = 1;
    }
    auto key = [&](u32 c) {
        return std::span<const u64>(keys).subspan(c * words, words);
    };
    auto row = [&](u32 c) {
        return res.centroids.data() +
               static_cast<std::size_t>(c) * cstride;
    };

    // A key costs a bit per class.  The memo is consulted only while
    // a key is no larger than the row it stores, so an entry stays
    // within two rows when the data has few duplicates; the choice
    // depends on the data alone.  A cluster that owns no class is
    // rebuilt (to a zero row and weight) without a lookup.
    MStepMemo::Table* const table =
        memo && words <= cstride ? &memo->entries() : nullptr;
    u64 reused = 0;
    std::vector<u8> rebuild = dirty;
    if (table) {
        std::lock_guard lock(table->mutex);
        for (u32 c = 0; c < k; ++c) {
            if (!dirty[c] || !owns[c])
                continue;
            if (const Entry* entry = table->find(key(c))) {
                std::copy(entry->row.begin(), entry->row.end(), row(c));
                res.clusterWeight[c] = entry->weight;
                rebuild[c] = 0;
                ++reused;
            }
        }
    }
    const auto work =
        rebuildClusters(data, res, rebuild, [&](auto&& add) {
            const u32* const runStart = data.runStart.data();
            const u32* const owner = state.labelOwner.data();
            const u32* const classOf = state.classOf.data();
            const u8* const flagged = rebuild.data();
            const std::size_t runs = data.runs();
            for (std::size_t r = 0; r < runs; ++r) {
                const u32 begin = runStart[r];
                const u32 c = owner[classOf[begin]];
                if (flagged[c])
                    add(begin, runStart[r + 1], c);
            }
        });

    u64 rows = 0;
    u64 runs = 0;
    for (u32 c = 0; c < k; ++c) {
        if (!rebuild[c])
            continue;
        if (table && owns[c]) {
            std::lock_guard lock(table->mutex);
            const auto kc = key(c);
            if (!table->byKey
                     .try_emplace({kc.begin(), kc.end()},
                                  Entry{{row(c), row(c) + cstride},
                                        res.clusterWeight[c]})
                     .second) {
                ++reused;
                continue;
            }
        }
        rows += work.rows[c];
        runs += work.runs[c];
    }
    kmeansStats().mstepRows.add(rows);
    kmeansStats().mstepRuns.add(runs);
    kmeansStats().mstepReused.add(reused);
    std::fill(dirty.begin(), dirty.end(), u8{0});
    return emptyClusters(res);
}

/**
 * Re-seed an empty cluster with the worst-fitting point, moving it
 * in the per-point `labels`.  The
 * point-to-owner distances are memoised per (class, owner) pair:
 * rows of a class are bit-identical, so one sqDist per pair gives
 * every member's distance bit for bit.  Only empty clusters are
 * re-seeded and their points are never candidates, so the owners'
 * centroids — and the table — stay fixed across the whole call.  The scan itself still runs over points in index order
 * with the naive strict `>`, so it picks the same point.
 *
 * Each re-seeded cluster and the donor of its stolen point are
 * flagged in `dirty` (when given) for the next updateCentroids().
 */
void
reseedEmpty(const ProjectedData& data, KMeansResult& res,
            std::vector<u32>& labels, const std::vector<u32>& empty,
            const AccelState& accel, std::vector<u8>* dirty = nullptr)
{
    const std::size_t cstride = res.rowStride(data.dims);
    std::vector<double> memo(accel.classFirst.size() * res.k, -1.0);
    auto ownerDist = [&](std::size_t i, u32 owner) {
        const u32 u = accel.classOf[i];
        double& slot = memo[static_cast<std::size_t>(u) * res.k + owner];
        if (slot < 0.0)
            slot = simd::sqDist(data.classRow(u),
                                res.centroidRow(owner, data.dims),
                                data.rowStride());
        return slot;
    };
    for (u32 c : empty) {
        double worst = -1.0;
        std::size_t worstIdx = 0;
        for (std::size_t i = 0; i < data.count; ++i) {
            const u32 owner = labels[i];
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
            (*dirty)[c] = (*dirty)[labels[worstIdx]] = 1;
        labels[worstIdx] = c;
    }
}

/**
 * D^2 seeding.  The distance-to-nearest-centroid table is maintained
 * per duplicate class, and each draw's term for point i is
 * w_i * minDist[classOf[i]]: bit-identical to the naive loop's
 * per-point term, because a class member's distance IS its
 * representative's distance (identical rows).  Each draw takes one
 * rng.nextDouble(), as the naive draw does, and yields the class of
 * the point the naive draw picks (drawClass()).  Only that class's
 * row reaches the centroid, so the seeds are the naive seeds bit for
 * bit.
 *
 * Kept out of line: inlined into its one caller, runLloyd(), the
 * sweep's clustering time rose by about 8 % on the fine_phases
 * benchmark (4-core Xeon VM).
 */
[[gnu::noinline]] void
initPlusPlus(const ProjectedData& data, KMeansResult& res, Rng& rng,
             const AccelState& accel)
{
    const std::size_t cstride = res.rowStride(data.dims);
    auto setCentroid = [&](u32 c, u32 cls) {
        const double* row = data.classRow(cls);
        std::copy(row, row + data.dims,
                  res.centroids.data() +
                      static_cast<std::size_t>(c) * cstride);
    };
    // Distances are never negative, so only a weight can make a term
    // negative and void the certified draw's bound.
    const bool certify = noneNegative(data.weights);

    const BlockPairs& pairs = data.pairs;

    // First centroid: weighted-uniform draw over every point.
    setCentroid(0, drawClass(
                       data.count, pairs,
                       [&](std::size_t p) { return pairs.weight[p]; },
                       [&](std::size_t i) { return data.weights[i]; },
                       accel.classOf, rng.nextDouble(), certify));

    std::vector<double> minDist(accel.classFirst.size(),
                                std::numeric_limits<double>::max());
    for (u32 c = 1; c < res.k; ++c) {
        for (std::size_t u = 0; u < minDist.size(); ++u) {
            const double d =
                simd::sqDist(data.classRow(u),
                             res.centroidRow(c - 1, data.dims),
                             data.rowStride());
            minDist[u] = std::min(minDist[u], d);
        }
        setCentroid(c, drawClass(
                           data.count, pairs,
                           [&](std::size_t p) {
                               return pairs.weight[p] *
                                      minDist[pairs.cls[p]];
                           },
                           [&](std::size_t i) {
                               return data.weights[i] *
                                      minDist[accel.classOf[i]];
                           },
                           accel.classOf, rng.nextDouble(), certify));
    }
}

/** Random starting labels, per point, and their centroids. */
void
initRandomPartition(const ProjectedData& data, KMeansResult& res,
                    std::vector<u32>& labels, Rng& rng,
                    const AccelState& accel)
{
    labels.resize(data.count);
    for (std::size_t i = 0; i < data.count; ++i)
        labels[i] = static_cast<u32>(rng.nextBelow(res.k));
    // Guarantee every cluster owns at least one point.
    for (u32 c = 0; c < res.k && c < data.count; ++c)
        labels[c] = c;
    const auto empty = updateCentroids(data, res, labels);
    reseedEmpty(data, res, labels, empty, accel);
    // Re-seeding relabels the stolen points, leaving the donor
    // clusters' centroids and weights stale; recompute once so the
    // first E-step sees centroids consistent with the labels.
    if (!empty.empty())
        updateCentroids(data, res, labels);
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
 *
 * Labels are compared in whichever form both states hold them: two
 * class-level states by their owner arrays (every class has a member,
 * so equal owners mean equal labels and unequal owners unequal
 * labels), otherwise point by point.
 */
struct CycleProbe
{
    std::vector<u32> labels;  ///< per class when byClass, else per point
    bool byClass = false;
    simd::AlignedVec centroids;
    u32 at = 0;  ///< iteration of the copy (0: none yet)

    /** Period of the cycle the state at `iter` closes, or 0. */
    u32
    observe(u32 iter, const KMeansResult& res, const AccelState& state,
            const std::vector<u32>& pointLabels)
    {
        if (iter == 0)
            return 0;
        if (at && sameLabels(state, pointLabels) &&
            std::memcmp(res.centroids.data(), centroids.data(),
                        centroids.size() * sizeof(double)) == 0)
            return iter - at;
        if ((iter & (iter - 1)) == 0) {
            byClass = state.classLevel;
            labels = byClass ? state.labelOwner : pointLabels;
            centroids = res.centroids;
            at = iter;
        }
        return 0;
    }

    bool
    sameLabels(const AccelState& state,
               const std::vector<u32>& pointLabels) const
    {
        if (byClass && state.classLevel)
            return labels == state.labelOwner;
        for (std::size_t i = 0; i < state.classOf.size(); ++i) {
            const u32 u = state.classOf[i];
            const u32 then = byClass ? labels[u] : labels[i];
            const u32 now =
                state.classLevel ? state.labelOwner[u] : pointLabels[i];
            if (then != now)
                return false;
        }
        return true;
    }
};

/** Re-sum every clusterWeight over the final owners, in point order. */
void
resumWeights(const ProjectedData& data, KMeansResult& res,
             const AccelState& state)
{
    std::fill(res.clusterWeight.begin(), res.clusterWeight.end(), 0.0);
    for (std::size_t i = 0; i < data.count; ++i)
        res.clusterWeight[state.ownerOf[state.classOf[i]]] +=
            data.weights[i];
}

/**
 * The Lloyd loop, bit-identical to the naive reference loop in
 * tests/oracle/simpoint (DESIGN.md "Clustering acceleration"):
 * per-class E-steps under Hamerly bounds, labels kept per class
 * between E-steps, M-steps that rebuild only dirty clusters and take
 * whole rows from the sweep's `memo`, proven cycles jumped over, and
 * no SSE until the fit is done.  Only a re-seed that splits a class,
 * by moving one of its points, drops the labels to per point until
 * the next E-step.
 *
 * Kept out of line, like initPlusPlus(): inlined into runKMeans(),
 * the fine_phases benchmark's wall time rose by about 6 % (4-core
 * Xeon VM, six alternating runs, all slower).
 */
[[gnu::noinline]] void
runLloyd(const ProjectedData& data, KMeansResult& res, Rng& rng,
         const KMeansOptions& options, MStepMemo* memo)
{
    AccelState state;
    state.attach(data);
    // Per-point labels, held only while they are not class-level.
    std::vector<u32> labels;
    if (options.init == InitMethod::KMeansPlusPlus) {
        initPlusPlus(data, res, rng, state);
        state.adoptUniform();
    } else {
        initRandomPartition(data, res, labels, rng, state);
        state.adoptLabels(labels);
    }

    // Clusters some point entered or left since an M-step last
    // produced their row.  Iteration 0's rows are seeds, not M-step
    // output, so every cluster starts dirty.
    std::vector<u8> dirty(res.k, 1);
    simd::AlignedVec oldCentroids;
    CycleProbe probe;
    bool cycling = false;
    for (u32 iter = 0; iter < options.maxIterations; ++iter) {
        if (!cycling) {
            if (const u32 period = probe.observe(iter, res, state, labels)) {
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
        // No SSE here: only the last E-step's could ever be read, and
        // it is reduced after the loop from the same dOwn.
        assignClassesAccel(data, res, state);
        const bool stable =
            !state.adoptOwners(labels, dirty) && iter > 0;
        oldCentroids = res.centroids;
        const auto empty =
            updateCentroidsByClass(data, res, state, dirty, memo);
        if (!empty.empty()) {
            state.materialize(labels);
            reseedEmpty(data, res, labels, empty, state, &dirty);
            state.regroup(labels);
            if (state.classLevel)
                updateCentroidsByClass(data, res, state, dirty, memo);
            else
                updateCentroids(data, res, labels, &dirty);
            state.invalidate();
            continue;
        }
        state.relax(oldCentroids, res, data.dims);
        if (stable) {
            res.converged = true;
            break;
        }
    }
    // A converged fit's last iteration moved no point, so its M-step
    // rebuilt nothing: a final E-step would read exactly the centroids
    // the last one read and give back the same owners and dOwn, and
    // every clusterWeight was summed by an M-step over these same
    // members in this same order.  So it only reduces the SSE.  Any
    // other fit ends on the reference's final assignment and weight
    // re-sum.  Either way the final labels are the owners, per class.
    if (!res.converged)
        assignClassesAccel(data, res, state);
    res.weightedSse = ownersSse(data, state);
    if (!res.converged)
        resumWeights(data, res, state);
    res.owners = std::move(state.ownerOf);
}

} // namespace

KMeansResult
runKMeans(const ProjectedData& data, u32 k, Rng& rng,
          const KMeansOptions& options, MStepMemo* memo)
{
    if (data.count == 0)
        fatal("k-means called with no data points");
    if (data.classOf.size() != data.count || data.classFirst.empty() ||
        data.classRows.size() < data.classes() * data.rowStride() ||
        !data.runIndexCurrent())
        panic("k-means data without duplicate classes or a current run "
              "index ({} of {} points classed, {} classes, {} row "
              "doubles, {} runs ending at point {})",
              data.classOf.size(), data.count, data.classes(),
              data.classRows.size(), data.runs(),
              data.runStart.empty() ? 0 : data.runStart.back());
    if (memo && &memo->data() != &data)
        panic("k-means M-step memo shared across different data");
    KMeansResult res;
    res.k = std::max<u32>(1, std::min<u32>(
                                 k, static_cast<u32>(data.count)));
    // Centroid rows share the data's padded stride so the batched
    // kernels can stream both matrices tail-free.
    res.stride = data.rowStride();
    res.centroids.assign(
        static_cast<std::size_t>(res.k) * res.stride, 0.0);
    res.clusterWeight.assign(res.k, 0.0);

    runLloyd(data, res, rng, options, memo);
    kmeansStats().fits.add();
    kmeansStats().iterations.sample(res.iterations);
    return res;
}

} // namespace xbsp::sp
