/**
 * @file
 * The distributed executor's contract, end to end: wire messages
 * round-trip, StageTask specs survive a trip through a freshly
 * exec'd process byte-identically, and — the acceptance criterion —
 * a suite submitted to an `xbsp serve` daemon backed by two worker
 * processes produces a byte-identical report to a purely local run,
 * even when one worker is killed mid-run by fault injection.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cpu/core.hh"
#include "dist/client.hh"
#include "dist/server.hh"
#include "dist/stagerun.hh"
#include "dist/wire.hh"
#include "harness/experiments.hh"
#include "obs/stats.hh"
#include "simpoint/kmeans.hh"
#include "sim/stages.hh"
#include "spawn.hh"
#include "store/store.hh"
#include "test_support.hh"
#include "util/format.hh"
#include "util/rng.hh"
#include "util/socket.hh"
#include "workloads/workloads.hh"

using namespace xbsp;
namespace fs = std::filesystem;

namespace
{

/** The CLI binary path, injected by the build (needs xbsp_cli). */
const char*
cliPath()
{
    return XBSP_CLI_PATH;
}

u64
counterValue(const std::string& path)
{
    return obs::StatRegistry::global().counterValue(path);
}

/** Fresh scratch directory per test, removed on teardown. */
class DistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base = fs::temp_directory_path() /
               ("xbsp_dist_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(base);
        fs::create_directories(base);
    }

    void TearDown() override { fs::remove_all(base); }

    fs::path base;
};

/** The small suite every distributed test renders. */
dist::SuiteRequest
smallRequest()
{
    dist::SuiteRequest request;
    request.figures = {"figure3"};
    request.workloads = {"gzip", "swim"};
    request.workScale = 0.25;
    request.intervalTarget = 50'000;
    return request;
}

} // namespace

TEST(DistWire, ParseAddress)
{
    const net::Address unix1 = net::parseAddress("unix:/tmp/s");
    EXPECT_FALSE(unix1.tcp);
    EXPECT_EQ(unix1.path, "/tmp/s");
    const net::Address bare = net::parseAddress("/tmp/s2");
    EXPECT_FALSE(bare.tcp);
    EXPECT_EQ(bare.path, "/tmp/s2");
    const net::Address tcp = net::parseAddress("tcp:4711");
    EXPECT_TRUE(tcp.tcp);
    EXPECT_EQ(tcp.port, 4711);
    EXPECT_EQ(tcp.text(), "tcp:4711");
    EXPECT_EQ(net::parseAddress("tcp:65535").port, 65535);
}

TEST(DistWire, ParseAddressRejectsBadPorts)
{
    // Trailing garbage, signs, blanks, overflow and port 0 (a client
    // cannot connect to "any port") are all rejected, not truncated.
    for (const char* spec :
         {"tcp:80abc", "tcp:", "tcp:0", "tcp:-1", "tcp:+80", "tcp: 80",
          "tcp:65536", "tcp:99999999999999999999", "unix:"}) {
        EXPECT_THROW((void)net::parseAddress(spec), std::runtime_error)
            << spec;
    }
}

/** The dist frames cross a real loopback TCP connection both ways. */
TEST(DistWire, TaskFramesCrossLoopbackTcp)
{
    net::Listener listener("", 0);
    ASSERT_GT(listener.boundPort(), 0);
    const int client = net::connectTo(
        net::parseAddress(format("tcp:{}", listener.boundPort())));
    const int server = listener.accept();
    ASSERT_GE(server, 0);

    auto expectTask = [](const std::optional<std::string>& payload,
                         const dist::Task& sent) {
        ASSERT_TRUE(payload.has_value());
        serial::Decoder d(*payload);
        ASSERT_EQ(dist::decodeMsgType(d), dist::MsgType::Task);
        const dist::Task got = dist::decodeTask(d);
        EXPECT_EQ(got.taskId, sent.taskId);
        EXPECT_EQ(got.specKey, sent.specKey);
        EXPECT_EQ(got.payload, sent.payload);
    };
    const dist::Task down{7, "key-down", std::string("stage\0bytes", 11)};
    ASSERT_TRUE(dist::sendFrame(server, dist::frameTask(down)));
    expectTask(dist::recvFrame(client, 5'000), down);
    const dist::Task up{8, "key-up", "reply"};
    ASSERT_TRUE(dist::sendFrame(client, dist::frameTask(up)));
    expectTask(dist::recvFrame(server, 5'000), up);

    net::closeFd(client);
    net::closeFd(server);
}

TEST(DistWire, SuiteRequestFrameRoundTrip)
{
    dist::SuiteRequest request;
    request.figures = {"figure3", "table1"};
    request.workloads = {"gzip"};
    request.workScale = 0.5;
    request.intervalTarget = 123'456;
    request.maxK = 7;
    request.seed = 99;
    request.core = "decoupled";

    const std::string frame = dist::frameSuiteRequest(request);
    // Strip the 8-byte frame header (magic + size); the payload is
    // what recvFrame() hands to the dispatcher.
    ASSERT_GT(frame.size(), 8u);
    serial::Decoder d(std::string_view(frame).substr(8));
    ASSERT_EQ(dist::decodeMsgType(d), dist::MsgType::SuiteRequest);
    const dist::SuiteRequest back = dist::decodeSuiteRequest(d);
    EXPECT_EQ(back.figures, request.figures);
    EXPECT_EQ(back.workloads, request.workloads);
    EXPECT_EQ(back.workScale, request.workScale);
    EXPECT_EQ(back.intervalTarget, request.intervalTarget);
    EXPECT_EQ(back.maxK, request.maxK);
    EXPECT_EQ(back.seed, request.seed);
    EXPECT_EQ(back.core, request.core);
}

/**
 * A peer speaking protocol version 2 embeds a StudyConfig of another
 * layout in its stage tasks: its handshake must be refused, in both
 * directions, before any task is read.
 */
TEST(DistWire, HandshakeRejectsOtherProtocolVersion)
{
    ASSERT_EQ(dist::protocolVersion, 3u);
    auto payload = [](const std::string& frame) {
        return std::string_view(frame).substr(8);
    };

    dist::Hello hello;
    hello.version = 2;
    hello.workerName = "w0";
    const std::string helloFrame = dist::frameHello(hello);
    serial::Decoder d(payload(helloFrame));
    ASSERT_EQ(dist::decodeMsgType(d), dist::MsgType::Hello);
    EXPECT_THROW((void)dist::decodeHello(d), serial::DecodeError);

    dist::HelloAck ack;
    ack.version = 2;
    ack.serverName = "s0";
    const std::string ackFrame = dist::frameHelloAck(ack);
    serial::Decoder da(payload(ackFrame));
    ASSERT_EQ(dist::decodeMsgType(da), dist::MsgType::HelloAck);
    EXPECT_THROW((void)dist::decodeHelloAck(da), serial::DecodeError);

    // The current version still decodes.
    hello.version = dist::protocolVersion;
    const std::string current = dist::frameHello(hello);
    serial::Decoder dc(payload(current));
    ASSERT_EQ(dist::decodeMsgType(dc), dist::MsgType::Hello);
    EXPECT_EQ(dist::decodeHello(dc).workerName, "w0");
}

TEST(DistWire, SuiteConfigRejectsUnknownCore)
{
    dist::SuiteRequest request = smallRequest();
    request.core = "tomasulo";
    EXPECT_THROW((void)dist::suiteConfig(request),
                 std::runtime_error);
    request.core = "decoupled";
    const harness::ExperimentConfig config =
        dist::suiteConfig(request);
    EXPECT_EQ(config.study.core.kind, cpu::CoreKind::Decoupled);
    // "" keeps the server's default model.
    request.core.clear();
    EXPECT_EQ(dist::suiteConfig(request).study.core,
              harness::defaultStudyConfig().core);
}

TEST(DistWire, SuiteConfigRejectsMaxKOutsideU32)
{
    dist::SuiteRequest request = smallRequest();
    for (const u64 bad : {u64{0}, u64{1} << 32, (u64{1} << 32) + 10}) {
        request.maxK = bad;
        EXPECT_THROW((void)dist::suiteConfig(request),
                     std::runtime_error)
            << bad;
    }
    request.maxK = std::numeric_limits<u32>::max();
    EXPECT_EQ(dist::suiteConfig(request).study.simpoint.maxK,
              std::numeric_limits<u32>::max());
    request.maxK = 1;
    EXPECT_EQ(dist::suiteConfig(request).study.simpoint.maxK, 1u);
}

/** `--maxk` past u32 or 0 is fatal (exit 1), not truncated to k = 10. */
TEST(DistCli, MaxKOutsideU32IsFatal)
{
    for (const char* bad : {"4294967306", "4294967296", "0"}) {
        const int pid = test::spawnProcess(
            {cliPath(), "study", "--workload", "gzip", "--scale",
             "0.01", "--maxk", bad});
        ASSERT_GT(pid, 0);
        EXPECT_EQ(test::waitProcess(pid), 1) << bad;
    }
}

namespace
{

/**
 * Stdout of `<env> xbsp submit figure3 --local ... <flags>`, which
 * must exit 0.  At 20K-instruction intervals gzip has several
 * phases, so its CPI error depends on the timing core.
 */
std::string
submitLocalFigure3(const std::string& env, const std::string& flags)
{
    const std::string command =
        format("{} '{}' submit figure3 --local --workloads gzip "
               "--scale 0.1 --interval 20000 --no-cache {}",
               env, cliPath(), flags);
    const auto [out, status] = test::runShell(command);
    EXPECT_EQ(status, 0) << command;
    return out;
}

} // namespace

/**
 * The timing core travels only in the request: `--core` picks it,
 * and the process environment (the removed XBSP_CORE fallback) has
 * no say.
 */
TEST(DistCli, CoreFlagCarriesNoProcessState)
{
    const std::string inorder = submitLocalFigure3("", "--core inorder");
    const std::string decoupled =
        submitLocalFigure3("", "--core decoupled");
    const std::string envOnly =
        submitLocalFigure3("XBSP_CORE=decoupled", "");
    ASSERT_FALSE(inorder.empty());
    EXPECT_NE(decoupled, inorder);
    EXPECT_EQ(envOnly, inorder);
}

TEST(DistWire, StageTaskCodecRoundTrip)
{
    dist::StageTask task;
    task.workload = "gzip";
    task.workScale = 0.375;
    task.config = harness::defaultStudyConfig();
    task.config.core = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    task.config.core.predictorBits = 9;
    task.stage = "profile";
    task.index = 2;

    const std::string payload = dist::encodeStageTask(task);
    const dist::StageTask back = dist::decodeStageTask(payload);
    EXPECT_EQ(back.workload, task.workload);
    EXPECT_EQ(back.workScale, task.workScale);
    EXPECT_EQ(back.stage, task.stage);
    EXPECT_EQ(back.index, task.index);
    EXPECT_EQ(back.config.core, task.config.core);
    // The single-flight key is a pure function of the spec bytes.
    EXPECT_EQ(dist::stageTaskKey(back), dist::stageTaskKey(task));
    EXPECT_EQ(dist::encodeStageTask(back), payload);
}

/**
 * A StageTask from a hostile peer decodes or is rejected with
 * DecodeError.  An enum outside its range is rejected too: an unknown
 * k-means init would seed by random partition under a store key no
 * other process computes, and an unknown core kind would end the
 * worker instead of failing the task.
 */
TEST(DistWire, StageTaskDecoderRejectsHostileBytes)
{
    dist::StageTask task;
    task.workload = "mcf";
    task.workScale = 0.5;
    task.config = harness::defaultStudyConfig();
    task.config.core = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    task.stage = "vli";
    task.index = 1;
    auto decodes = [](const std::string& bytes) {
        try {
            (void)dist::decodeStageTask(bytes);
            return true;
        } catch (const serial::DecodeError&) {
            return false;
        }
    };

    dist::StageTask badInit = task;
    badInit.config.simpoint.init = static_cast<sp::InitMethod>(2);
    EXPECT_THROW((void)dist::decodeStageTask(dist::encodeStageTask(badInit)),
                 serial::DecodeError);
    dist::StageTask badKind = task;
    badKind.config.core.kind = static_cast<cpu::CoreKind>(2);
    EXPECT_THROW((void)dist::decodeStageTask(dist::encodeStageTask(badKind)),
                 serial::DecodeError);

    // Every proper prefix is rejected; every mutant with one to four
    // bytes changed, half of them also truncated, decodes or is
    // rejected.  Any other exception escapes and fails the test.
    const std::string sound = dist::encodeStageTask(task);
    ASSERT_TRUE(decodes(sound));
    for (std::size_t len = 0; len < sound.size(); ++len)
        EXPECT_FALSE(decodes(sound.substr(0, len))) << len;
    Rng rng(31);
    std::size_t rejected = 0;
    const std::size_t mutants = 4000;
    for (std::size_t m = 0; m < mutants; ++m) {
        std::string mutant = sound;
        const u64 edits = 1 + rng.nextBelow(4);
        for (u64 f = 0; f < edits; ++f)
            mutant[rng.nextBelow(mutant.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        if (m % 2)
            mutant.resize(rng.nextBelow(mutant.size() + 1));
        rejected += !decodes(mutant);
    }
    // Truncation alone rejects half of them.
    EXPECT_GE(rejected, mutants / 2);
}

TEST_F(DistTest, CrossProcessCodecRoundTrip)
{
    // Encode in this address space, re-encode in a freshly exec'd
    // process (xbsp codec-roundtrip), and byte-compare: the codec
    // contract must hold across process boundaries, not just within
    // one run's heap.
    dist::StageTask task;
    task.workload = "swim";
    task.workScale = 0.25;
    task.config = harness::defaultStudyConfig();
    task.config.intervalTarget = 50'000;
    // A thoroughly non-default core: every CoreConfig field must
    // survive the exec boundary bit-exactly, or remote workers would
    // silently simulate a different machine.
    task.config.core.kind = cpu::CoreKind::Decoupled;
    task.config.core.fetchWidth = 8;
    task.config.core.ftqDepth = 32;
    task.config.core.predictorBits = 10;
    task.config.core.mispredictPenalty = 7;
    task.stage = "vli";
    task.index = 0;
    const std::string payload = dist::encodeStageTask(task);

    const std::string file = (base / "task.bin").string();
    {
        std::ofstream os(file, std::ios::binary);
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
        ASSERT_TRUE(os.good());
    }

    const int pid =
        test::spawnProcess({cliPath(), "codec-roundtrip", file});
    ASSERT_GT(pid, 0);
    EXPECT_EQ(test::waitProcess(pid), 0);

    std::ifstream is(file + ".rt", std::ios::binary);
    ASSERT_TRUE(is.good());
    std::ostringstream buf;
    buf << is.rdbuf();
    EXPECT_EQ(buf.str(), payload);
}

TEST_F(DistTest, RemoteProfileStagePublishesPassAndFliClustering)
{
    // A worker replaying a profile stage must leave both artifacts
    // the scheduler's probe for that node asks for: the profile pass
    // and the pass's FLI clustering.
    store::ArtifactStore::configureGlobal(
        {(base / "cache").string(), true});
    dist::StageTask task;
    task.workload = "swim";
    task.workScale = 0.25;
    task.config = harness::defaultStudyConfig();
    task.config.intervalTarget = 50'000;
    task.stage = "profile";
    task.index = 2;
    const u64 clusterMisses =
        counterValue("store.stage.simpoint.misses");
    dist::runStageTask(task);
    EXPECT_EQ(counterValue("store.stage.simpoint.misses") - clusterMisses,
              1u);

    sim::StudyBuild build(
        workloads::makeWorkload(task.workload, task.workScale),
        task.config);
    build.compile();
    for (std::size_t b = 0; b < build.binaryCount(); ++b)
        EXPECT_EQ(build.profileCached(b), b == task.index) << b;
    store::ArtifactStore::configureGlobal({});
}

using DistServer = DistTest;

/**
 * A peer that connects and never sends its first frame must not hold
 * up the daemon's drain: stop() ends serve() at once, not after the
 * 10 s first-frame deadline.
 */
TEST_F(DistServer, SilentClientDoesNotDelayStop)
{
    using namespace std::chrono_literals;
    store::ArtifactStore::configureGlobal(
        {(base / "cache").string(), true});
    dist::ServerOptions so;
    so.unixPath = (base / "sock").string();
    dist::Server server(so);
    auto served = std::async(std::launch::async,
                             [&server] { server.serve(); });

    const std::string connect = "unix:" + so.unixPath;
    const int silent = net::connectTo(net::parseAddress(connect));
    // The daemon accepts in connection order, so once this request
    // is answered the silent connection has its own handler.
    dist::SuiteRequest bad = smallRequest();
    bad.workloads = {"no-such-workload"};
    const dist::SuiteResponse response = dist::submitSuite(connect, bad);
    EXPECT_FALSE(response.ok);

    std::thread([&server] { server.stop(); }).join();
    EXPECT_EQ(served.wait_for(1s), std::future_status::ready)
        << "a silent client delayed serve()'s return";
    // Hang up, so that a failing daemon can still unwind.
    net::closeFd(silent);
    served.wait();
}

namespace
{

/**
 * The serve-mode acceptance run: render `request` locally, then
 * through an in-process daemon backed by two spawned workers (one
 * rigged to die after its first task), and require byte-identical
 * reports.  Shared by the default-core and decoupled-core variants.
 */
void
checkSuiteByteIdenticalUnderWorkerDeath(const fs::path& base,
                                        const dist::SuiteRequest& request)
{
    // Local baseline: the daemon's exact rendering path, no backend,
    // its own cache directory.
    store::ArtifactStore::configureGlobal(
        {(base / "cacheA").string(), true});
    const std::string local = dist::renderSuiteReport(request, nullptr);
    ASSERT_FALSE(local.empty());

    // Distributed run: in-process daemon on a unix socket, a fresh
    // cache directory, and two spawned `xbsp work` processes — one
    // rigged to die after its first task (mid-protocol death; the
    // executor must requeue its in-flight work).
    store::ArtifactStore::configureGlobal(
        {(base / "cacheB").string(), true});
    const u64 completed0 = counterValue("dist.tasks.completed");
    const u64 lost0 = counterValue("dist.workers.lost");

    dist::ServerOptions so;
    so.unixPath = (base / "sock").string();
    so.taskTimeoutMs = 60'000;
    dist::Server server(so);
    std::thread serveThread([&server] { server.serve(); });

    const std::string connect = "unix:" + so.unixPath;
    const int w1 = test::spawnProcess(
        {cliPath(), "work", "--connect", connect, "--worker-name",
         "w1"});
    const int w2 = test::spawnProcess(
        {cliPath(), "work", "--connect", connect, "--worker-name",
         "w2"},
        {"XBSP_DIST_FAULT=kill-after:1"});
    ASSERT_GT(w1, 0);
    ASSERT_GT(w2, 0);
    for (int i = 0; i < 200 && server.executor().workerCount() < 2;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_EQ(server.executor().workerCount(), 2u);

    // Submit through the real client/daemon socket path.
    dist::SuiteResponse response;
    ASSERT_NO_THROW(response = dist::submitSuite(connect, request));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.report, local);

    // Remote execution actually happened, and the rigged worker's
    // death was observed (its tasks were recovered, not lost — the
    // report above proves that).
    EXPECT_GT(counterValue("dist.tasks.completed"), completed0);
    EXPECT_GE(counterValue("dist.workers.lost"), lost0 + 1);

    server.stop();
    serveThread.join();
    EXPECT_EQ(test::waitProcess(w2), 3);  // injected _exit(3)
    EXPECT_EQ(test::waitProcess(w1), 0);  // drained via Shutdown
}

} // namespace

TEST_F(DistTest, SuiteByteIdenticalUnderWorkerDeath)
{
    checkSuiteByteIdenticalUnderWorkerDeath(base, smallRequest());
}

TEST_F(DistTest, DecoupledSuiteByteIdenticalUnderWorkerDeath)
{
    // Same acceptance run with the non-default timing core riding in
    // the request: the workers must simulate the decoupled machine
    // (CoreConfig travels inside every StageTask), or the reports
    // diverge.
    dist::SuiteRequest request = smallRequest();
    request.workloads = {"swim"};
    request.core = "decoupled";
    checkSuiteByteIdenticalUnderWorkerDeath(base, request);
}
