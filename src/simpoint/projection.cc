#include "simpoint/projection.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd/simd.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

double
sqDist(std::span<const double> a, std::span<const double> b)
{
    return simd::sqDist(a.data(), b.data(), a.size());
}

BlockPairs
blockPairs(std::span<const double> weights, std::span<const u32> classOf)
{
    if (weights.size() != classOf.size())
        panic("block pairs over {} weights and {} class ids",
              weights.size(), classOf.size());
    constexpr u32 none = std::numeric_limits<u32>::max();
    const std::size_t n = classOf.size();
    // Pair slot of each class in the current block; reset per block
    // through the block's own pairs.
    std::vector<u32> slot(
        n ? static_cast<std::size_t>(std::ranges::max(classOf)) + 1 : 0,
        none);
    BlockPairs pairs;
    pairs.start.push_back(0);
    for (std::size_t begin = 0; begin < n; begin += drawBlock) {
        const std::size_t first = pairs.cls.size();
        for (std::size_t i = begin; i < std::min(n, begin + drawBlock);
             ++i) {
            u32& s = slot[classOf[i]];
            if (s == none) {
                s = static_cast<u32>(pairs.cls.size());
                pairs.cls.push_back(classOf[i]);
                pairs.weight.push_back(weights[i]);
            } else {
                pairs.weight[s] += weights[i];
            }
        }
        for (std::size_t p = first; p < pairs.cls.size(); ++p)
            slot[pairs.cls[p]] = none;
        pairs.start.push_back(static_cast<u32>(pairs.cls.size()));
    }
    return pairs;
}

void
ProjectedData::buildRunIndex()
{
    runStart.clear();
    for (std::size_t i = 0; i < classOf.size(); ++i) {
        if (i == 0 || classOf[i] != classOf[i - 1])
            runStart.push_back(static_cast<u32>(i));
    }
    runStart.push_back(static_cast<u32>(classOf.size()));
    pairs = blockPairs(weights, classOf);
}

ProjectedData
project(const FrequencyVectorSet& fvs, u32 dims, u64 seed)
{
    if (dims == 0)
        fatal("projection dimension must be > 0");
    // One row per duplicate class goes through the matrix below; it
    // is every member's row.
    DedupMap dedup = fvs.dedup();
    ProjectedData out;
    out.allocate(fvs.size(), dedup.classes(), dims);

    // Dense projection matrix, one row per original dimension, with
    // rows padded to the same stride as the output so the axpy kernel
    // runs tail-free (padded entries are +0.0 and contribute exact
    // +0.0 to padded output lanes).  Entries are drawn in the same
    // flat row-major order as ever, so the matrix values — and hence
    // the projection — are independent of the padded layout.
    Rng rng(hashMix(seed ^ 0x9e3779b97f4a7c15ull));
    const std::size_t stride = out.rowStride();
    simd::AlignedVec matrix(
        static_cast<std::size_t>(fvs.dimension) * stride, 0.0);
    for (std::size_t r = 0; r < fvs.dimension; ++r) {
        double* mrow = matrix.data() + r * stride;
        for (u32 d = 0; d < dims; ++d)
            mrow[d] = rng.nextDouble(-1.0, 1.0);
    }

    // One multiply-add per (sparse entry x output dim): the dot-op
    // count of a row is nnz * dims regardless of layout or padding,
    // so the counter merges exactly at any --jobs.
    auto& reg = obs::StatRegistry::global();
    obs::Counter dotOps = reg.counter("projection.dotOps");

    auto projectClass = [&](std::size_t c, obs::ShardCounter& ops) {
        double* row = out.classRow(c);
        const SparseRow vec = fvs.row(dedup.firstOf[c]);
        for (std::size_t e = 0; e < vec.size(); ++e) {
            const double* mrow =
                matrix.data() +
                static_cast<std::size_t>(vec.index[e]) * stride;
            simd::axpy(row, mrow, vec.value[e], stride);
        }
        ops.add(static_cast<u64>(vec.size()) * dims);
    };

    parallelChunks(globalPool(), dedup.classes(),
                   [&](std::size_t begin, std::size_t end, std::size_t) {
                       obs::ShardCounter ops(dotOps);
                       for (std::size_t c = begin; c < end; ++c)
                           projectClass(c, ops);
                   });
    reg.counter("projection.rows.projected").add(dedup.classes());
    out.classOf = std::move(dedup.classOf);
    out.classFirst = std::move(dedup.firstOf);

    // Instruction-length weights rescaled to sum to the point count.
    const InstrCount total = fvs.totalInstructions();
    if (total > 0 && out.count > 0) {
        const double scale = static_cast<double>(out.count) /
                             static_cast<double>(total);
        for (std::size_t i = 0; i < out.count; ++i) {
            out.weights[i] =
                static_cast<double>(fvs.lengths[i]) * scale;
        }
    }
    out.buildRunIndex();
    return out;
}

} // namespace xbsp::sp
