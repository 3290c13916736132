/**
 * @file
 * Threading-model tests: ThreadPool/parallelFor unit behaviour
 * (exception propagation, empty ranges, nested submission) and the
 * headline guarantee of the parallel pipeline — a CrossBinaryStudy
 * run with N worker threads is bit-identical to a run with 1.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/study.hh"
#include "test_support.hh"
#include "util/threadpool.hh"

using namespace xbsp;

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    auto future = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, InlinePoolHasNoWorkers)
{
    ThreadPool zero(0);
    ThreadPool one(1);
    EXPECT_EQ(zero.size(), 0u);
    EXPECT_EQ(one.size(), 0u);
    EXPECT_EQ(zero.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ForkedChildRunsInline)
{
    // The workers exist only in this process; in a forked child (a
    // death test) the pool must run work inline, not queue it for
    // threads that will never pick it up, and must tear down without
    // joining them.
    auto pool = std::make_unique<ThreadPool>(4);
    EXPECT_EXIT(
        {
            int chunks = 0;
            pool->submit([&] { chunks = 1; }).wait();
            parallelFor(*pool, 8, [&](std::size_t) { ++chunks; });
            const bool inlined = pool->size() == 0 && chunks == 9;
            pool.reset();
            std::_Exit(inlined ? 0 : 2);
        },
        ::testing::ExitedWithCode(0), "");
    EXPECT_EQ(pool->size(), 4u);
    EXPECT_EQ(pool->submit([] { return 5; }).get(), 5);
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, NestedSubmitRunsInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    // Each outer task submits (and waits on) an inner task.  With a
    // queueing implementation this deadlocks once every worker blocks
    // on an inner task stuck behind it in the queue; the pool instead
    // runs nested submissions inline on the calling worker.
    std::vector<std::future<int>> outers;
    for (int i = 0; i < 8; ++i) {
        outers.push_back(pool.submit([&pool, i] {
            EXPECT_TRUE(pool.onWorkerThread());
            return pool.submit([i] { return i * i; }).get();
        }));
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(outers[i].get(), i * i);
}

TEST(ParallelFor, EmptyRangeNeverInvokes)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(pool, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesLowestIndexedException)
{
    ThreadPool pool(4);
    // Two chunks throw; the lowest-indexed chunk's exception must win
    // regardless of completion order.  With 1000 items and 64 chunks,
    // index 200 lands in an earlier chunk than index 900.
    try {
        parallelFor(globalPool(), 1000, [&](std::size_t i) {
            if (i == 200)
                throw std::runtime_error("early");
            if (i == 900)
                throw std::logic_error("late");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "early");
    }
}

TEST(ParallelFor, NestedUseRunsInline)
{
    ThreadPool pool(2);
    std::vector<int> out(16, 0);
    parallelFor(pool, 4, [&](std::size_t outer) {
        // Inner loops issued from a worker run serially inline; they
        // must still cover their range.
        parallelFor(pool, 4, [&](std::size_t inner) {
            out[outer * 4 + inner] = static_cast<int>(outer * 4 + inner);
        });
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ParallelChunks, ChunkingDependsOnSizeOnly)
{
    // The chunk count is a pure function of n — this is what makes
    // chunk-ordered reductions independent of the worker count.
    EXPECT_EQ(parallelChunkCount(0), 0u);
    EXPECT_EQ(parallelChunkCount(1), 1u);
    EXPECT_EQ(parallelChunkCount(5), 5u);
    EXPECT_EQ(parallelChunkCount(1 << 20), parallelChunkCount(1 << 20));

    ThreadPool wide(8);
    ThreadPool narrow(0);
    auto boundaries = [](ThreadPool& pool, std::size_t n) {
        std::vector<std::pair<std::size_t, std::size_t>> out(
            parallelChunkCount(n));
        parallelChunks(pool, n,
                       [&](std::size_t begin, std::size_t end,
                           std::size_t chunk) {
                           out[chunk] = {begin, end};
                       });
        return out;
    };
    EXPECT_EQ(boundaries(wide, 1000), boundaries(narrow, 1000));
}

namespace
{

sim::StudyConfig
smallConfig()
{
    sim::StudyConfig config;
    config.intervalTarget = 50000;
    config.simpoint.maxK = 10;
    return config;
}

/** Exact per-metric equality of two studies of the same program. */
void
expectIdenticalStudies(const sim::CrossBinaryStudy& a,
                       const sim::CrossBinaryStudy& b)
{
    ASSERT_EQ(a.perBinary().size(), b.perBinary().size());
    EXPECT_EQ(a.partition().intervalCount(),
              b.partition().intervalCount());
    EXPECT_EQ(a.mappable().points.size(), b.mappable().points.size());
    EXPECT_EQ(a.vliClustering().k, b.vliClustering().k);
    EXPECT_EQ(a.vliClustering().labels, b.vliClustering().labels);

    for (const sim::Method method :
         {sim::Method::PerBinaryFli, sim::Method::MappableVli}) {
        EXPECT_EQ(a.avgSimPointCount(method),
                  b.avgSimPointCount(method));
        EXPECT_EQ(a.avgIntervalSize(method), b.avgIntervalSize(method));
        EXPECT_EQ(a.avgCpiError(method), b.avgCpiError(method));
        for (const auto& pairs :
             {sim::samePlatformPairs(), sim::crossPlatformPairs()}) {
            for (const auto& pair : pairs) {
                EXPECT_EQ(a.speedupError(method, pair.a, pair.b),
                          b.speedupError(method, pair.a, pair.b))
                    << methodName(method) << " " << pair.label;
            }
        }
    }

    for (std::size_t i = 0; i < a.perBinary().size(); ++i) {
        const sim::BinaryStudy& bsA = a.perBinary()[i];
        const sim::BinaryStudy& bsB = b.perBinary()[i];
        EXPECT_EQ(bsA.totalInstrs, bsB.totalInstrs);
        EXPECT_EQ(bsA.fliIntervalCount, bsB.fliIntervalCount);
        EXPECT_EQ(bsA.fliBoundaries, bsB.fliBoundaries);
        EXPECT_EQ(bsA.fliClustering.k, bsB.fliClustering.k);
        EXPECT_EQ(bsA.fliClustering.labels, bsB.fliClustering.labels);
        EXPECT_EQ(bsA.fliEstimate.cpiError, bsB.fliEstimate.cpiError);
        EXPECT_EQ(bsA.vliEstimate.cpiError, bsB.vliEstimate.cpiError);
        EXPECT_EQ(bsA.fliEstimate.trueCycles,
                  bsB.fliEstimate.trueCycles);
        EXPECT_EQ(bsA.fliEstimate.estCycles, bsB.fliEstimate.estCycles);
        EXPECT_EQ(bsA.vliEstimate.trueCycles,
                  bsB.vliEstimate.trueCycles);
        EXPECT_EQ(bsA.vliEstimate.estCycles, bsB.vliEstimate.estCycles);
        EXPECT_EQ(bsA.detailedRun.totals, bsB.detailedRun.totals);
        EXPECT_EQ(bsA.detailedRun.memory.l1Hits,
                  bsB.detailedRun.memory.l1Hits);
        EXPECT_EQ(bsA.detailedRun.memory.dramAccesses,
                  bsB.detailedRun.memory.dramAccesses);
        EXPECT_EQ(bsA.detailedRun.memory.dramWritebacks,
                  bsB.detailedRun.memory.dramWritebacks);
        EXPECT_EQ(bsA.markers.counts, bsB.markers.counts);
    }
}

} // namespace

/**
 * The headline determinism guarantee: the whole pipeline — profiling,
 * clustering (including the parallel k-means E-step), detailed runs
 * and estimates — is bit-identical with 1 worker and with several.
 */
TEST(ParallelStudy, OneVsManyThreadsBitIdentical)
{
    const ir::Program program = test::tinyProgram();
    const sim::StudyConfig config = smallConfig();

    setGlobalJobs(1);
    const sim::CrossBinaryStudy serial =
        sim::CrossBinaryStudy::run(program, config);

    setGlobalJobs(4);
    const sim::CrossBinaryStudy parallel =
        sim::CrossBinaryStudy::run(program, config);

    setGlobalJobs(0); // back to automatic for other tests
    expectIdenticalStudies(serial, parallel);
}
