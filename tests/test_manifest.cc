/**
 * @file
 * Provenance-manifest tests: every TaskGraph run appends one
 * ManifestRun with entries in node-id order, probe outcomes agree
 * with the scheduler's cache counters, the JSON file round-trips,
 * unwritable output paths warn instead of throwing, and the progress
 * meter's ETA ignores zero-cost (cache-resolved) steps.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>
#include <unistd.h>

#include "obs/manifest/manifest.hh"
#include "obs/progress.hh"
#include "obs/setup.hh"
#include "obs/stats.hh"
#include "pipeline/taskgraph.hh"
#include "sim/serial.hh"
#include "sim/stages.hh"
#include "sim/study.hh"
#include "store/store.hh"
#include "test_support.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "util/threadpool.hh"

using namespace xbsp;
namespace fs = std::filesystem;

namespace
{

sim::StudyConfig
tinyStudyConfig()
{
    sim::StudyConfig config;
    config.intervalTarget = 50000;
    config.simpoint.maxK = 5;
    return config;
}

/** Clears the process-global manifest around each test. */
class ManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::RunManifest::global().clear();
        store::ArtifactStore::configureGlobal({});
        dir = fs::temp_directory_path() /
              ("xbsp_manifest_test_" + std::to_string(::getpid()) +
               "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void
    TearDown() override
    {
        store::ArtifactStore::configureGlobal({});
        obs::RunManifest::global().clear();
        fs::remove_all(dir);
    }

    fs::path dir;
};

bool
isHex(const std::string& s)
{
    for (char c : s) {
        const bool hex = (c >= '0' && c <= '9') ||
                         (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return !s.empty();
}

} // namespace

TEST_F(ManifestTest, StudyEntriesFollowNodeIdOrder)
{
    const sim::StudyConfig config = tinyStudyConfig();
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(), config);

    ASSERT_EQ(obs::RunManifest::global().runCount(), 1u);
    const obs::ManifestRun run =
        obs::RunManifest::global().runs().front();
    EXPECT_EQ(run.label, "study.tiny");
    EXPECT_EQ(run.configDigest,
              sim::studyConfigDigest("tiny", config));
    EXPECT_EQ(run.configDigest.size(), 32u);
    EXPECT_TRUE(isHex(run.configDigest));
    EXPECT_GT(run.startWallMillis, 0u);
    EXPECT_GT(run.wallNanos, 0u);

    // One study graph: compile, 4 profiles, match, cluster,
    // 4 binaries, finish — entries exactly in node-id order.
    ASSERT_EQ(run.entries.size(), 12u);
    const char* stages[12] = {"compile", "profile", "profile",
                              "profile", "profile", "match",
                              "vli",     "binary",  "binary",
                              "binary",  "binary",  "finish"};
    for (std::size_t i = 0; i < run.entries.size(); ++i) {
        const obs::ManifestEntry& entry = run.entries[i];
        EXPECT_EQ(entry.node, i);
        EXPECT_EQ(entry.stage, stages[i]) << "node " << i;
        EXPECT_EQ(entry.status, "done") << "node " << i;
        EXPECT_FALSE(entry.label.empty());
    }

    // Keyed stages report their store key; match/finish have none.
    for (std::size_t i : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 8u, 9u, 10u}) {
        EXPECT_EQ(run.entries[i].storeKey.size(), 32u) << "node " << i;
        EXPECT_TRUE(isHex(run.entries[i].storeKey)) << "node " << i;
    }
    EXPECT_TRUE(run.entries[5].storeKey.empty());
    EXPECT_TRUE(run.entries[11].storeKey.empty());
}

TEST_F(ManifestTest, WarmRunProbeHitsMatchSchedulerCounters)
{
    store::ArtifactStore::configureGlobal({dir.string(), true});
    const sim::StudyConfig config = tinyStudyConfig();

    (void)sim::CrossBinaryStudy::run(test::tinyProgram(), config);
    const u64 cacheBefore = obs::StatRegistry::global().counterValue(
        "scheduler.nodes.cacheResolved");
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(), config);

    ASSERT_EQ(obs::RunManifest::global().runCount(), 2u);
    const auto runs = obs::RunManifest::global().runs();
    const obs::ManifestRun& cold = runs[0];
    const obs::ManifestRun& warm = runs[1];
    EXPECT_EQ(cold.configDigest, warm.configDigest);

    // Cold: every probed node missed; nothing was cache-resolved.
    for (const auto& entry : cold.entries) {
        EXPECT_NE(entry.probe, "hit") << entry.label;
        EXPECT_EQ(entry.status, "done") << entry.label;
    }

    // Warm: the probed stages (compile, profiles, binaries) hit and
    // resolved inline off-pool; the probe tally agrees with the
    // scheduler's own counter for the run.
    u64 hits = 0;
    for (const auto& entry : warm.entries) {
        if (entry.probe == "hit") {
            ++hits;
            EXPECT_EQ(entry.status, "cache") << entry.label;
            EXPECT_EQ(entry.worker, 0u) << entry.label;  // scheduler
            EXPECT_FALSE(entry.storeKey.empty()) << entry.label;
        } else {
            EXPECT_NE(entry.status, "cache") << entry.label;
        }
    }
    EXPECT_EQ(hits, 9u);  // 1 compile + 4 profile + 4 binary
    EXPECT_EQ(hits, obs::StatRegistry::global().counterValue(
                        "scheduler.nodes.cacheResolved") -
                        cacheBefore);
}

/**
 * A binary entry's store key is the key of the detailed run its stage
 * did: rebuilt here from the study's own fields, it must equal the
 * manifest's key, and the cold run must have stored a detailed run
 * under it.
 */
TEST_F(ManifestTest, BinaryStoreKeysNameTheStoredDetailedRuns)
{
    store::ArtifactStore::configureGlobal({dir.string(), true});
    const sim::StudyConfig config = tinyStudyConfig();
    const sim::CrossBinaryStudy study =
        sim::CrossBinaryStudy::run(test::tinyProgram(), config);

    ASSERT_EQ(obs::RunManifest::global().runCount(), 1u);
    const obs::ManifestRun run =
        obs::RunManifest::global().runs().front();
    ASSERT_EQ(run.entries.size(), 12u);
    const store::ArtifactStore& store = store::ArtifactStore::global();
    for (std::size_t b = 0; b < study.binaries().size(); ++b) {
        const obs::ManifestEntry& entry = run.entries[7 + b];
        ASSERT_EQ(entry.stage, "binary");
        sim::DetailedRunRequest req = sim::makeRunRequest(config);
        req.fliBoundaries = study.perBinary()[b].fliBoundaries;
        req.mappable = &study.mappable();
        req.binaryIdx = b;
        req.partition = &study.partition();
        const serial::Hash128 key =
            sim::detailedRunKey(study.binaries()[b], req);
        EXPECT_EQ(entry.storeKey, key.hex()) << entry.label;
        EXPECT_TRUE(store.contains(key, sim::DetailedRunCodec::tag,
                                   sim::DetailedRunCodec::version))
            << entry.label;
    }
}

TEST_F(ManifestTest, FailedRunsAreRecordedWithStatusAndSkips)
{
    ThreadPool pool(0);
    pipeline::TaskGraph graph;
    const auto ok = graph.add("ok", "stage", {}, [] {});
    const auto bad = graph.add("bad", "stage", {ok}, [] {
        throw std::runtime_error("boom");
    });
    graph.add("downstream", "stage", {bad}, [] {});
    graph.setManifestInfo("unit", "feedface");
    EXPECT_THROW(graph.run(pool), std::runtime_error);

    ASSERT_EQ(obs::RunManifest::global().runCount(), 1u);
    const obs::ManifestRun run =
        obs::RunManifest::global().runs().front();
    EXPECT_EQ(run.label, "unit");
    EXPECT_EQ(run.configDigest, "feedface");
    ASSERT_EQ(run.entries.size(), 3u);
    EXPECT_EQ(run.entries[0].status, "done");
    EXPECT_EQ(run.entries[1].status, "failed");
    EXPECT_EQ(run.entries[2].status, "skipped");
    for (const auto& entry : run.entries) {
        EXPECT_EQ(entry.probe, "none");
        EXPECT_TRUE(entry.storeKey.empty());
    }
}

TEST_F(ManifestTest, JsonFileRoundTrips)
{
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(),
                                     tinyStudyConfig());
    const std::string path = (dir / "manifest.json").string();
    ASSERT_TRUE(obs::RunManifest::global().writeJsonFile(path));

    const JsonValue doc = parseJsonFile(path);
    const JsonValue& runs = doc.at("runs");
    ASSERT_EQ(runs.size(), 1u);
    const JsonValue& run = runs.at(std::size_t{0});
    EXPECT_EQ(run.at("label").asString(), "study.tiny");
    EXPECT_EQ(run.at("configDigest").asString().size(), 32u);
    const JsonValue& nodes = run.at("nodes");
    ASSERT_EQ(nodes.size(), 12u);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const JsonValue& node = nodes.at(i);
        EXPECT_EQ(node.at("node").asU64(), i);
        EXPECT_FALSE(node.at("stage").asString().empty());
        EXPECT_EQ(node.at("status").asString(), "done");
    }
    EXPECT_EQ(nodes.at(std::size_t{0}).at("stage").asString(),
              "compile");
}

TEST_F(ManifestTest, UnwritablePathWarnsAndReturnsFalse)
{
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(),
                                     tinyStudyConfig());
    EXPECT_NO_THROW({
        EXPECT_FALSE(obs::RunManifest::global().writeJsonFile(
            "/nonexistent-xbsp-dir/sub/manifest.json"));
    });
}

TEST_F(ManifestTest, ObsSessionFlushSurvivesUnwritablePaths)
{
    // A finished run's results must never be lost to a bad output
    // flag: flush() warns per file and keeps going.
    (void)sim::CrossBinaryStudy::run(test::tinyProgram(),
                                     tinyStudyConfig());
    ::setenv("XBSP_STATS", "/nonexistent-xbsp-dir/stats.json", 1);
    ::setenv("XBSP_TRACE", "/nonexistent-xbsp-dir/trace.json", 1);
    ::setenv("XBSP_MANIFEST", "/nonexistent-xbsp-dir/manifest.json",
             1);
    {
        Options options("test");
        obs::addCliOptions(options);
        const char* argv[] = {"test"};
        ASSERT_TRUE(options.parse(1, argv));
        obs::ObsSession session(options);
        EXPECT_NO_THROW(session.flush());
        EXPECT_NO_THROW(session.flush());  // idempotent
    }
    ::unsetenv("XBSP_STATS");
    ::unsetenv("XBSP_TRACE");
    ::unsetenv("XBSP_MANIFEST");
}

TEST(ProgressEta, ZeroCostStepsDoNotFeedTheEstimate)
{
    obs::Progress progress;
    EXPECT_LT(progress.etaSeconds(), 0.0);  // nothing announced

    progress.addSteps(4);
    EXPECT_LT(progress.etaSeconds(), 0.0);  // nothing done yet

    {
        obs::Progress::ZeroCostScope zeroCost;
        progress.completeStep("cached-a");
        progress.completeStep("cached-b");
    }
    EXPECT_EQ(progress.completed(), 2u);
    EXPECT_EQ(progress.zeroCostCompleted(), 2u);
    // Only cache hits so far: no costly sample, no estimate.
    EXPECT_LT(progress.etaSeconds(), 0.0);

    progress.completeStep("real-work");
    EXPECT_GE(progress.etaSeconds(), 0.0);

    progress.completeStep("last");
    EXPECT_EQ(progress.completed(), progress.announced());
    EXPECT_LT(progress.etaSeconds(), 0.0);  // finished
}

/**
 * A meter that never prints still keeps time: a scrape of a run
 * without --progress serves its elapsed time and ETA, and an ETA of
 * exactly 0 while steps remain would claim the run is done.
 */
TEST(ProgressEta, ClockRunsWithoutTheMeterEnabled)
{
    obs::Progress progress;
    progress.addSteps(4);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    progress.completeStep("a");
    progress.completeStep("b");
    ASSERT_FALSE(progress.enabled());
    EXPECT_GT(progress.elapsedSeconds(), 0.0);
    const double eta = progress.etaSeconds();
    EXPECT_TRUE(eta == -1.0 || eta > 0.0) << eta;
}
