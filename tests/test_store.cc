/**
 * @file
 * The artifact store's contract: memoization returns bit-identical
 * values, every failure path (truncation, bit flips, version skew,
 * unwritable directories) degrades to recomputation instead of
 * failing the run, GC is LRU under a byte budget, and a warm
 * end-to-end study is byte-identical to a cold one.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

#include "compile/compiler.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "pipeline/taskgraph.hh"
#include "profile/profile.hh"
#include "sim/stages.hh"
#include "sim/study.hh"
#include "store/store.hh"
#include "test_support.hh"
#include "util/format.hh"
#include "util/threadpool.hh"

using namespace xbsp;
namespace fs = std::filesystem;

namespace
{

/** Fresh cache directory per test, removed on teardown. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("xbsp_store_test_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        store.configure({dir.string(), true});
    }

    void TearDown() override { fs::remove_all(dir); }

    fs::path dir;
    store::ArtifactStore store;
};

/** Trivial codec for tests: a length-prefixed string payload. */
struct StringCodec
{
    using Value = std::string;
    static constexpr u32 tag = serial::fourcc("TSTR");
    static constexpr u32 version = 3;

    static void
    encode(serial::Encoder& e, const std::string& s)
    {
        e.str(s);
    }

    static std::string
    decode(serial::Decoder& d)
    {
        return d.str();
    }
};

serial::Hash128
keyOf(std::string_view name)
{
    serial::Hasher h;
    h.str(name);
    return h.finish();
}

u64
counterValue(const std::string& path)
{
    return obs::StatRegistry::global().counterValue(path);
}

} // namespace

TEST_F(StoreTest, GetOrComputeMissThenHit)
{
    const u64 hits0 = counterValue("store.stage.test.hits");
    const u64 misses0 = counterValue("store.stage.test.misses");
    int computations = 0;
    auto compute = [&] {
        ++computations;
        return std::string("artifact-value");
    };
    const serial::Hash128 key = keyOf("a");
    EXPECT_EQ(store.getOrCompute<StringCodec>(key, "test", compute),
              "artifact-value");
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(store.getOrCompute<StringCodec>(key, "test", compute),
              "artifact-value");
    EXPECT_EQ(computations, 1);  // served from disk
    EXPECT_EQ(counterValue("store.stage.test.hits"), hits0 + 1);
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0 + 1);
    EXPECT_GT(counterValue("store.bytes_written"), 0u);
    EXPECT_GT(counterValue("store.bytes_read"), 0u);
}

TEST_F(StoreTest, ContainsProbesHeaderWithoutHitMissAccounting)
{
    const serial::Hash128 key = keyOf("probe-me");
    EXPECT_FALSE(
        store.contains(key, StringCodec::tag, StringCodec::version));
    store.getOrCompute<StringCodec>(key, "test",
                                    [] { return std::string("v"); });

    const u64 hits0 = counterValue("store.stage.test.hits");
    const u64 misses0 = counterValue("store.stage.test.misses");
    const u64 probes0 = counterValue("store.probes");
    EXPECT_TRUE(
        store.contains(key, StringCodec::tag, StringCodec::version));
    // Wrong type tag or version: present on disk, but not usable.
    EXPECT_FALSE(store.contains(key, serial::fourcc("XXXX"),
                                StringCodec::version));
    EXPECT_FALSE(
        store.contains(key, StringCodec::tag,
                       StringCodec::version + 1));
    EXPECT_FALSE(store.contains(keyOf("absent"), StringCodec::tag,
                                StringCodec::version));
    // Probes are header-only reads: they never count as hits or
    // misses (a miss would skew the warm-run assertions in CI).
    EXPECT_EQ(counterValue("store.stage.test.hits"), hits0);
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0);
    EXPECT_EQ(counterValue("store.probes"), probes0 + 4);

    store.configure({dir.string(), false});
    EXPECT_FALSE(
        store.contains(key, StringCodec::tag, StringCodec::version));
}

TEST_F(StoreTest, LookupServesHitsAndCountsNoMiss)
{
    const serial::Hash128 key = keyOf("look-me-up");
    const u64 hits0 = counterValue("store.stage.test.hits");
    const u64 misses0 = counterValue("store.stage.test.misses");
    EXPECT_FALSE(store.lookup<StringCodec>(key, "test").has_value());
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0);
    EXPECT_EQ(store.scan().entries, 0u);  // nothing computed or written

    store.getOrCompute<StringCodec>(key, "test",
                                    [] { return std::string("v"); });
    EXPECT_EQ(store.lookup<StringCodec>(key, "test"),
              std::optional<std::string>("v"));
    EXPECT_EQ(counterValue("store.stage.test.hits"), hits0 + 1);
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0 + 1);

    // An entry the codec rejects is evicted, and still no miss counts.
    store.writeEntry(key, StringCodec::tag, StringCodec::version,
                     "\x05" "ab");
    const u64 evictions0 = counterValue("store.evictions");
    EXPECT_FALSE(store.lookup<StringCodec>(key, "test").has_value());
    EXPECT_EQ(counterValue("store.evictions"), evictions0 + 1);
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0 + 1);
    EXPECT_EQ(store.scan().entries, 0u);

    store.configure({dir.string(), false});
    EXPECT_FALSE(store.lookup<StringCodec>(key, "test").has_value());
}

TEST_F(StoreTest, ComputeAndStoreWritesWithoutReading)
{
    // A corrupt entry under the key is overwritten, not read: nothing
    // is evicted, one miss counts, and the new value is what a lookup
    // then finds.
    const serial::Hash128 key = keyOf("write-me");
    store.writeEntry(key, StringCodec::tag, StringCodec::version,
                     "\x05" "ab");
    const u64 hits0 = counterValue("store.stage.test.hits");
    const u64 misses0 = counterValue("store.stage.test.misses");
    const u64 evictions0 = counterValue("store.evictions");
    int computations = 0;
    EXPECT_EQ(store.computeAndStore<StringCodec>(key, "test", [&] {
        ++computations;
        return std::string("v");
    }),
              "v");
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0 + 1);
    EXPECT_EQ(counterValue("store.stage.test.hits"), hits0);
    EXPECT_EQ(counterValue("store.evictions"), evictions0);
    EXPECT_EQ(store.lookup<StringCodec>(key, "test"),
              std::optional<std::string>("v"));

    // Disabled: it only computes.
    store.configure({dir.string(), false});
    EXPECT_EQ(store.computeAndStore<StringCodec>(
                  keyOf("unwritten"), "test",
                  [] { return std::string("w"); }),
              "w");
    EXPECT_EQ(counterValue("store.stage.test.misses"), misses0 + 1);
    store.configure({dir.string(), true});
    EXPECT_EQ(store.scan().entries, 1u);
}

TEST_F(StoreTest, DisabledStoreAlwaysComputes)
{
    store.configure({dir.string(), false});
    int computations = 0;
    auto compute = [&] {
        ++computations;
        return std::string("v");
    };
    store.getOrCompute<StringCodec>(keyOf("k"), "test", compute);
    store.getOrCompute<StringCodec>(keyOf("k"), "test", compute);
    EXPECT_EQ(computations, 2);
    EXPECT_EQ(store.scan().entries, 0u);
}

TEST_F(StoreTest, EntriesShardedByKeyPrefix)
{
    const serial::Hash128 key = keyOf("shard-me");
    store.getOrCompute<StringCodec>(key, "test",
                                    [] { return std::string("x"); });
    const fs::path path(store.entryPath(key));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(path.parent_path().filename().string(),
              key.hex().substr(0, 2));
    EXPECT_EQ(path.filename().string(), key.hex() + ".art");
}

TEST_F(StoreTest, TruncatedEntryFallsBackToRecompute)
{
    const serial::Hash128 key = keyOf("trunc");
    store.getOrCompute<StringCodec>(
        key, "test", [] { return std::string("original"); });
    const fs::path path(store.entryPath(key));
    const auto fullSize = fs::file_size(path);
    fs::resize_file(path, fullSize / 2);

    int computations = 0;
    const std::string value = store.getOrCompute<StringCodec>(
        key, "test", [&] {
            ++computations;
            return std::string("original");
        });
    EXPECT_EQ(value, "original");
    EXPECT_EQ(computations, 1);  // corrupt entry evicted, recomputed
    // The recomputed artifact was written back intact.
    EXPECT_EQ(fs::file_size(store.entryPath(key)), fullSize);
}

TEST_F(StoreTest, FlippedPayloadByteFailsChecksumAndRecomputes)
{
    const serial::Hash128 key = keyOf("flip");
    store.getOrCompute<StringCodec>(
        key, "test", [] { return std::string("payload-bytes"); });
    const fs::path path(store.entryPath(key));
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        // Flip one bit in the middle of the payload (header is 24
        // bytes; the payload starts right after).
        f.seekg(26);
        char c = 0;
        f.get(c);
        f.seekp(26);
        f.put(static_cast<char>(c ^ 0x40));
    }
    int computations = 0;
    const std::string value = store.getOrCompute<StringCodec>(
        key, "test", [&] {
            ++computations;
            return std::string("payload-bytes");
        });
    EXPECT_EQ(value, "payload-bytes");
    EXPECT_EQ(computations, 1);
}

TEST_F(StoreTest, TypeVersionMismatchEvictsAndRecomputes)
{
    const serial::Hash128 key = keyOf("versioned");
    // Simulate an artifact written by an older codec revision.
    serial::Encoder e;
    e.str("stale-format");
    store.writeEntry(key, StringCodec::tag, StringCodec::version - 1,
                     e.view());
    EXPECT_TRUE(fs::exists(store.entryPath(key)));

    int computations = 0;
    const std::string value = store.getOrCompute<StringCodec>(
        key, "test", [&] {
            ++computations;
            return std::string("fresh");
        });
    EXPECT_EQ(value, "fresh");
    EXPECT_EQ(computations, 1);
}

TEST_F(StoreTest, TypeTagMismatchEvictsAndRecomputes)
{
    const serial::Hash128 key = keyOf("tagged");
    serial::Encoder e;
    e.str("other-type");
    store.writeEntry(key, serial::fourcc("OTHR"), StringCodec::version,
                     e.view());
    int computations = 0;
    store.getOrCompute<StringCodec>(key, "test", [&] {
        ++computations;
        return std::string("v");
    });
    EXPECT_EQ(computations, 1);
}

TEST_F(StoreTest, GarbageInsteadOfMagicEvicts)
{
    const serial::Hash128 key = keyOf("garbage");
    std::error_code ec;
    fs::create_directories(
        fs::path(store.entryPath(key)).parent_path(), ec);
    std::ofstream out(store.entryPath(key), std::ios::binary);
    out << "this is not an artifact file at all";
    out.close();
    int computations = 0;
    EXPECT_EQ(store.getOrCompute<StringCodec>(key, "test",
                                              [&] {
                                                  ++computations;
                                                  return std::string(
                                                      "clean");
                                              }),
              "clean");
    EXPECT_EQ(computations, 1);
}

TEST_F(StoreTest, UnwritableCacheDirectoryStillComputes)
{
    // A cache path nested under a regular *file* can never be
    // created, no matter the euid (chmod-based read-only tests are
    // moot when the suite runs as root).
    const fs::path blocker = dir / "blocker";
    fs::create_directories(dir);
    std::ofstream(blocker).put('x');
    store.configure({(blocker / "cache").string(), true});

    int computations = 0;
    const std::string value = store.getOrCompute<StringCodec>(
        keyOf("k"), "test", [&] {
            ++computations;
            return std::string("computed-anyway");
        });
    EXPECT_EQ(value, "computed-anyway");
    EXPECT_EQ(computations, 1);
    // Nothing persisted, and a second call recomputes again —
    // degraded, never broken.
    store.getOrCompute<StringCodec>(keyOf("k"), "test", [&] {
        ++computations;
        return std::string("computed-anyway");
    });
    EXPECT_EQ(computations, 2);
}

TEST_F(StoreTest, ScanCountsEntriesAndBytes)
{
    store.getOrCompute<StringCodec>(keyOf("one"), "test",
                                    [] { return std::string("a"); });
    store.getOrCompute<StringCodec>(keyOf("two"), "test",
                                    [] { return std::string("bb"); });
    const store::CacheScan scan = store.scan();
    EXPECT_EQ(scan.entries, 2u);
    EXPECT_GT(scan.bytes, 0u);
    EXPECT_EQ(scan.tempFiles, 0u);
}

TEST_F(StoreTest, GcEvictsOldestFirstUnderByteBudget)
{
    const serial::Hash128 oldKey = keyOf("old");
    const serial::Hash128 newKey = keyOf("new");
    store.getOrCompute<StringCodec>(oldKey, "test",
                                    [] { return std::string("o"); });
    store.getOrCompute<StringCodec>(newKey, "test",
                                    [] { return std::string("n"); });
    // Age the first entry well past the second.
    std::error_code ec;
    fs::last_write_time(store.entryPath(oldKey),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(48),
                        ec);
    ASSERT_FALSE(ec);

    const u64 oneEntry = fs::file_size(store.entryPath(newKey));
    const store::GcResult result = store.gc(oneEntry);
    EXPECT_EQ(result.removedEntries, 1u);
    EXPECT_EQ(result.keptEntries, 1u);
    EXPECT_FALSE(fs::exists(store.entryPath(oldKey)));
    EXPECT_TRUE(fs::exists(store.entryPath(newKey)));
}

TEST_F(StoreTest, GcSparesRecentlyProbedEntries)
{
    // Regression: the scheduler's contains() probe promises "this
    // stage will be served from the cache", but probes deliberately
    // don't bump mtimes — so before the grace window, a concurrent
    // gc could evict a just-probed entry and break the promise
    // mid-run (recompute where the scheduler planned a cache hit).
    const serial::Hash128 probed = keyOf("probed");
    const serial::Hash128 cold = keyOf("cold");
    store.getOrCompute<StringCodec>(probed, "test",
                                    [] { return std::string("p"); });
    store.getOrCompute<StringCodec>(cold, "test",
                                    [] { return std::string("c"); });

    ASSERT_TRUE(store.contains(probed, StringCodec::tag,
                               StringCodec::version));

    // Budget 0 would evict everything; the probed entry must survive
    // inside its grace window.
    const store::GcResult graced = store.gc(0);
    EXPECT_EQ(graced.removedEntries, 1u);
    EXPECT_TRUE(fs::exists(store.entryPath(probed)));
    EXPECT_FALSE(fs::exists(store.entryPath(cold)));

    // Grace 0 disables the exemption (maintenance mode).
    const store::GcResult forced = store.gc(0, 0);
    EXPECT_EQ(forced.removedEntries, 1u);
    EXPECT_FALSE(fs::exists(store.entryPath(probed)));
}

TEST_F(StoreTest, GcRemovesStrayTempFiles)
{
    store.getOrCompute<StringCodec>(keyOf("k"), "test",
                                    [] { return std::string("v"); });
    const fs::path stray =
        fs::path(store.entryPath(keyOf("k"))).parent_path() /
        "deadbeef.art.tmp.999.7";
    std::ofstream(stray).put('x');
    EXPECT_EQ(store.scan().tempFiles, 1u);
    store.gc(std::numeric_limits<u64>::max());
    EXPECT_FALSE(fs::exists(stray));
    EXPECT_EQ(store.scan().tempFiles, 0u);
}

TEST_F(StoreTest, ClearRemovesEverything)
{
    store.getOrCompute<StringCodec>(keyOf("x"), "test",
                                    [] { return std::string("1"); });
    store.getOrCompute<StringCodec>(keyOf("y"), "test",
                                    [] { return std::string("2"); });
    EXPECT_EQ(store.clear(), 2u);
    EXPECT_EQ(store.scan().entries, 0u);
}

TEST_F(StoreTest, ConcurrentWritersNeverExposePartialEntries)
{
    // Two stores sharing one directory model two processes racing on
    // the same key: both write, the rename is atomic, and whichever
    // entry lands is complete and decodable.
    store::ArtifactStore other({dir.string(), true});
    const serial::Hash128 key = keyOf("race");
    store.writeEntry(key, StringCodec::tag, StringCodec::version,
                     "payload");
    other.writeEntry(key, StringCodec::tag, StringCodec::version,
                     "payload");
    const auto back =
        store.readEntry(key, StringCodec::tag, StringCodec::version);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "payload");
    EXPECT_EQ(store.scan().tempFiles, 0u);
}

namespace
{

/** Tiny-study fingerprint that covers every per-binary metric. */
std::string
studyFingerprint(const sim::CrossBinaryStudy& study)
{
    std::string out;
    for (const auto& bs : study.perBinary()) {
        out += format("{} {} {} {} {} {} {} {}|",
                      bin::targetName(bs.target),
                      bs.detailedRun.totals.instructions,
                      bs.detailedRun.totals.cycles,
                      bs.detailedRun.memory.dramAccesses,
                      bs.fliEstimate.cpiError, bs.vliEstimate.cpiError,
                      bs.fliIntervalCount, bs.fliClustering.k);
    }
    out += format("k={} intervals={}",
                  study.vliClustering().k,
                  study.partition().intervalCount());
    return out;
}

sim::StudyConfig
tinyStudyConfig()
{
    sim::StudyConfig config;
    config.intervalTarget = 50000;
    config.simpoint.maxK = 5;
    return config;
}

} // namespace

TEST_F(StoreTest, WarmStudyIsBitIdenticalToColdStudy)
{
    // Route the *global* store (which the pipeline stages consult) at
    // this test's directory for the duration of the test.
    store::ArtifactStore::configureGlobal({dir.string(), true});

    const std::string cold = studyFingerprint(sim::CrossBinaryStudy::run(
        test::tinyProgram(), tinyStudyConfig()));
    const u64 missesAfterCold = counterValue("store.misses");
    EXPECT_GT(missesAfterCold, 0u);

    const u64 hitsBeforeWarm = counterValue("store.hits");
    const std::string warm = studyFingerprint(sim::CrossBinaryStudy::run(
        test::tinyProgram(), tinyStudyConfig()));
    store::ArtifactStore::configureGlobal({});

    EXPECT_EQ(warm, cold);
    EXPECT_GT(counterValue("store.hits"), hitsBeforeWarm);
    // The warm run recomputed nothing: every stage was served.
    EXPECT_EQ(counterValue("store.misses"), missesAfterCold);
}

/**
 * A warm study needs no frequency vectors: every clustering is
 * stored, so the profile passes and the VLI build are read with
 * their vectors skipped, and no set is built (fvs.rows stays put).
 */
TEST_F(StoreTest, WarmStudyDecodesNoFrequencyVectors)
{
    store::ArtifactStore::configureGlobal({dir.string(), true});
    const std::string cold = studyFingerprint(sim::CrossBinaryStudy::run(
        test::tinyProgram(), tinyStudyConfig()));
    const u64 rows = counterValue("fvs.rows");
    const u64 hits = counterValue("store.hits");
    const u64 misses = counterValue("store.misses");
    const std::string warm = studyFingerprint(sim::CrossBinaryStudy::run(
        test::tinyProgram(), tinyStudyConfig()));
    store::ArtifactStore::configureGlobal({});

    EXPECT_EQ(warm, cold);
    EXPECT_EQ(counterValue("fvs.rows"), rows);
    EXPECT_EQ(counterValue("store.misses"), misses);
    // Compile, profile, FLI clustering and detailed run per binary,
    // plus the VLI build and its clustering.
    EXPECT_EQ(counterValue("store.hits") - hits, 4u * 4u + 2u);
}

/**
 * The partly warm stores a skimming read must fall back from: stored
 * passes without their clusterings (a new maxK) and stored
 * clusterings without their passes.  Both must give the study a cold
 * run gives.
 */
TEST_F(StoreTest, PartlyWarmStudiesMatchColdStudies)
{
    sim::StudyConfig config = tinyStudyConfig();
    store::ArtifactStore::configureGlobal({dir.string(), true});
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(), config);

    // A new maxK reads the stored VLI build once: its clustering is
    // keyed by the build's key, so the node learns the clustering is
    // missing before it reads the build.  Each missed clustering is
    // read once too: one `store simpoint` span per miss.
    config.simpoint.maxK = 3;
    const u64 vliHits = counterValue("store.stage.vli.hits");
    const u64 clusterMisses = counterValue("store.stage.simpoint.misses");
    obs::TraceSession& trace = obs::TraceSession::global();
    trace.clear();
    trace.enable();
    const std::string newMaxK = studyFingerprint(
        sim::CrossBinaryStudy::run(test::tinyProgram(), config));
    trace.disable();
    EXPECT_EQ(counterValue("store.stage.vli.hits") - vliHits, 1u);
    EXPECT_EQ(counterValue("store.stage.simpoint.misses") - clusterMisses,
              5u);
    const std::vector<obs::TraceEvent> events = trace.events();
    trace.clear();
    EXPECT_EQ(std::ranges::count(events, std::string("store simpoint"),
                                 &obs::TraceEvent::name),
              5);

    std::size_t removed = 0;
    for (const bin::Binary& binary : compile::compileAllTargets(
             test::tinyProgram(), config.compileOptions))
        removed += fs::remove(store::ArtifactStore::global().entryPath(
            prof::profilePassKey(binary, config.intervalTarget,
                                 config.engineSeed)));
    EXPECT_EQ(removed, 4u);
    const u64 passMisses = counterValue("store.stage.profile.misses");
    const std::string noPasses = studyFingerprint(
        sim::CrossBinaryStudy::run(test::tinyProgram(), config));
    EXPECT_EQ(counterValue("store.stage.profile.misses") - passMisses,
              4u);

    store::ArtifactStore::configureGlobal({});
    const std::string cold = studyFingerprint(
        sim::CrossBinaryStudy::run(test::tinyProgram(), config));
    EXPECT_EQ(newMaxK, cold);
    EXPECT_EQ(noPasses, cold);
}

TEST_F(StoreTest, ProfileNodeCacheResolvesOnlyWithItsFliClustering)
{
    store::ArtifactStore::configureGlobal({dir.string(), true});
    sim::StudyConfig config = tinyStudyConfig();
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(), config);

    // A new maxK: every profile pass is on disk, no FLI clustering
    // for it is.  The profile nodes must run on the pool — serving
    // the pass, computing the clustering — and cache-resolve only
    // once both artifacts are stored.
    config.simpoint.maxK = 3;
    auto profileStatuses = [&config] {
        sim::StudyBuild build(test::tinyProgram(), config);
        pipeline::TaskGraph graph;
        const sim::StudyNodes nodes =
            sim::appendStudyGraphNodes(graph, build);
        graph.run(globalPool());
        std::vector<pipeline::NodeStatus> out;
        for (const pipeline::NodeId id : nodes.profiles)
            out.push_back(graph.status(id));
        return out;
    };
    const u64 passHits = counterValue("store.stage.profile.hits");
    const u64 passMisses = counterValue("store.stage.profile.misses");
    const u64 clusterMisses = counterValue("store.stage.simpoint.misses");
    const std::vector<pipeline::NodeStatus> warmPass = profileStatuses();
    ASSERT_EQ(warmPass.size(), 4u);
    for (const pipeline::NodeStatus status : warmPass)
        EXPECT_EQ(status, pipeline::NodeStatus::Done);
    EXPECT_EQ(counterValue("store.stage.profile.hits") - passHits, 4u);
    EXPECT_EQ(counterValue("store.stage.profile.misses"), passMisses);
    // Four FLI clusterings and the VLI one.
    EXPECT_EQ(counterValue("store.stage.simpoint.misses") - clusterMisses,
              5u);

    for (const pipeline::NodeStatus status : profileStatuses())
        EXPECT_EQ(status, pipeline::NodeStatus::CacheResolved);
    store::ArtifactStore::configureGlobal({});
}

TEST_F(StoreTest, InjectedCorruptionIsEvictedAndStudyStillIdentical)
{
    store::ArtifactStore::configureGlobal({dir.string(), true});
    const std::string cold = studyFingerprint(sim::CrossBinaryStudy::run(
        test::tinyProgram(), tinyStudyConfig()));

    // Flip a byte in the middle of every cached artifact.
    std::size_t corrupted = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                         std::ios::binary);
        const auto size =
            static_cast<std::streamoff>(entry.file_size());
        f.seekg(size / 2);
        char c = 0;
        f.get(c);
        f.seekp(size / 2);
        f.put(static_cast<char>(c ^ 0xff));
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u);

    const u64 evictionsBefore = counterValue("store.evictions");
    const std::string recovered = studyFingerprint(
        sim::CrossBinaryStudy::run(test::tinyProgram(),
                                   tinyStudyConfig()));
    store::ArtifactStore::configureGlobal({});

    EXPECT_EQ(recovered, cold);
    EXPECT_GT(counterValue("store.evictions"), evictionsBefore);
}
