/**
 * @file
 * Live-telemetry tests: the Prometheus exposition encoder/parser, the
 * scrape endpoint (including a client that connects and goes silent),
 * `xbsp top`'s client-side rates, and the pure-observer contract:
 * rendering the registry in a tight loop during a suite perturbs no
 * figure, trace or stats dump, at any job count.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/experiments.hh"
#include "obs/live/endpoint.hh"
#include "obs/live/exposition.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "test_support.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/threadpool.hh"

using namespace xbsp;
using namespace xbsp::obs;

namespace
{

harness::ExperimentConfig
quickConfig(std::vector<std::string> workloads)
{
    harness::ExperimentConfig config;
    config.workloads = std::move(workloads);
    config.workScale = 0.15;
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = 100000;
    config.verbose = false;
    return config;
}

/** Figure tables of a fresh suite run, rendered to text. */
std::string
renderedFigures(const std::vector<std::string>& workloads)
{
    harness::ExperimentSuite suite(quickConfig(workloads));
    std::ostringstream os;
    suite.figure3().print(os);
    suite.figure4().print(os);
    return os.str();
}

/** A fresh path for a unix socket (the endpoint unlinks it again). */
std::string
tempSocketPath()
{
    char pathTemplate[] = "/tmp/xbsp-live-test-XXXXXX";
    const int fd = mkstemp(pathTemplate);
    if (fd < 0)
        return {};
    close(fd);
    return pathTemplate;
}

/** Connect to a unix socket and send nothing; -1 on failure. */
int
connectSilently(const std::string& socketPath)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socketPath.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Continuous scraping in miniature: renders the global registry in a
 * tight loop on its own thread until finish().  Counts the renders
 * that landed mid-run: they saw some counter above zero (the caller
 * resets the registry first) and completed before finish() was
 * called, which the caller does once the run has returned.
 */
class Scraper
{
  public:
    /** Returns once the first render is done, so the loop is live
     *  before the caller's run starts. */
    Scraper() : thread([this] { loop(); })
    {
        while (renders.load() == 0)
            std::this_thread::yield();
    }

    ~Scraper() { finish(); }

    /** Stop scraping; returns the number of mid-run renders. */
    u64
    finish()
    {
        if (!done.exchange(true))
            thread.join();
        return midRun;
    }

  private:
    std::atomic<bool> done{false};
    std::atomic<u64> renders{0};
    u64 midRun = 0;
    std::thread thread;  // last: starts once the members above exist

    void
    loop()
    {
        while (!done.load()) {
            const auto series = parseExposition(
                renderExposition(StatRegistry::global()));
            const bool underWay = std::any_of(
                series.begin(), series.end(), [](const auto& entry) {
                    const std::string& name = entry.first;
                    return name.size() > 6 &&
                           name.compare(name.size() - 6, 6, "_total") ==
                               0 &&
                           entry.second > 0.0;
                });
            if (underWay && !done.load())
                ++midRun;
            ++renders;
        }
    }
};

} // namespace

TEST(PromSeriesName, SanitizesDottedPaths)
{
    EXPECT_EQ(promSeriesName("kmeans.estep.distances"),
              "xbsp_kmeans_estep_distances");
    EXPECT_EQ(promSeriesName("store.hits"), "xbsp_store_hits");
    EXPECT_EQ(promSeriesName("weird-path:x/y"), "xbsp_weird_path_x_y");
    EXPECT_EQ(promSeriesName(""), "xbsp_");
}

TEST(LiveStats, ReadsEveryKindInPathOrder)
{
    StatRegistry registry;
    registry.counter("alpha.count").add(7);
    registry.distribution("beta.dist").sample(3);
    registry.distribution("beta.dist").sample(5);
    registry.timer("gamma.time").addNanos(1000);

    const std::vector<LiveStat> stats = registry.liveStats();
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_EQ(stats[0].path, "alpha.count");
    EXPECT_EQ(stats[0].kind, StatKind::Counter);
    EXPECT_EQ(stats[0].value, 7u);
    EXPECT_EQ(stats[1].path, "beta.dist");
    EXPECT_EQ(stats[1].kind, StatKind::Distribution);
    EXPECT_EQ(stats[1].value, 8u);  // sum
    EXPECT_EQ(stats[1].count, 2u);
    EXPECT_EQ(stats[2].path, "gamma.time");
    EXPECT_EQ(stats[2].kind, StatKind::Timer);
    EXPECT_EQ(stats[2].value, 1000u);
    EXPECT_EQ(stats[2].count, 1u);
}

TEST(Exposition, RendersEveryKindWithTypesAndParsesBack)
{
    StatRegistry registry;
    registry.counter("store.hits").add(20);
    registry.distribution("kmeans.iters").sample(40);
    registry.distribution("kmeans.iters").sample(60);
    registry.timer("scheduler.nodeBusy").addNanos(1'500'000'000);
    registry.timer("scheduler.nodeBusy").addNanos(500'000'000);

    const std::string text = renderExposition(registry);
    EXPECT_NE(text.find("# TYPE xbsp_store_hits_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("xbsp_store_hits_total 20\n"),
              std::string::npos);
    EXPECT_NE(text.find("xbsp_kmeans_iters_sum 100\n"),
              std::string::npos);
    EXPECT_NE(text.find("xbsp_kmeans_iters_count 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("xbsp_scheduler_nodeBusy_nanos_total "
                        "2000000000\n"),
              std::string::npos);
    EXPECT_NE(text.find("xbsp_scheduler_nodeBusy_count 2\n"),
              std::string::npos);

    const auto series = parseExposition(text);
    EXPECT_DOUBLE_EQ(series.at("xbsp_store_hits_total"), 20.0);
    EXPECT_DOUBLE_EQ(series.at("xbsp_pool_workers"),
                     static_cast<double>(configuredJobs()));
    for (const char* gauge :
         {"xbsp_progress_done", "xbsp_progress_steps",
          "xbsp_progress_zero_cost", "xbsp_progress_elapsed_seconds",
          "xbsp_progress_eta_seconds"})
        EXPECT_EQ(series.count(gauge), 1u) << gauge;

    // Stateless: no rates, no per-render bookkeeping.
    for (const auto& [name, value] : series) {
        EXPECT_EQ(name.find("_rate"), std::string::npos) << name;
        EXPECT_EQ(name.find("_busy_ratio"), std::string::npos) << name;
        EXPECT_NE(name.rfind("xbsp_sample", 0), 0u) << name;
    }
}

TEST(Exposition, EverySeriesHasATypeCommentBeforeIt)
{
    StatRegistry registry;
    registry.counter("a.counter").add(1);
    registry.distribution("a.dist").sample(2);
    registry.timer("a.timer").addNanos(3);
    const std::string text = renderExposition(registry);

    // Walk line-by-line: any sample line must have been preceded by a
    // "# TYPE <name> ..." comment for exactly its series name.
    std::istringstream is(text);
    std::string line;
    std::set<std::string> typed;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            const std::string rest = line.substr(7);
            typed.insert(rest.substr(0, rest.find(' ')));
            continue;
        }
        ASSERT_NE(line[0], '#');
        const std::string name = line.substr(0, line.find(' '));
        EXPECT_TRUE(typed.count(name)) << "untyped series " << name;
    }
}

TEST(Exposition, IsAPureObserverOfTheRegistry)
{
    StatRegistry registry;
    registry.counter("only.stat").add(1);
    registry.timer("only.timer").addNanos(5);
    const std::string before = registry.jsonString(false);
    const std::string beforeWithTimers = registry.jsonString(true);

    for (int i = 0; i < 3; ++i)
        renderExposition(registry);

    // Rendering registered nothing and mutated nothing.
    EXPECT_EQ(registry.jsonString(false), before);
    EXPECT_EQ(registry.jsonString(true), beforeWithTimers);
}

TEST(Exposition, ParserRejectsGarbage)
{
    EXPECT_THROW(parseExposition("name_without_value\n"),
                 std::runtime_error);
    EXPECT_THROW(parseExposition("name not-a-number\n"),
                 std::runtime_error);
    EXPECT_TRUE(parseExposition("# only a comment\n\n").empty());
}

TEST(MetricsEndpoint, ServesExpositionOverUnixSocket)
{
    StatRegistry registry;
    registry.counter("served.requests").add(42);

    const std::string socketPath = tempSocketPath();
    ASSERT_FALSE(socketPath.empty());
    MetricsEndpoint endpoint({socketPath, -1}, [&registry] {
        return renderExposition(registry);
    });
    endpoint.start();
    EXPECT_TRUE(endpoint.running());

    const auto series = parseExposition(httpGetUnix(socketPath));
    EXPECT_DOUBLE_EQ(series.at("xbsp_served_requests_total"), 42.0);

    // Each scrape renders the registry as it is when it arrives.
    registry.counter("served.requests").add(1);
    const auto again = parseExposition(httpGetUnix(socketPath));
    EXPECT_DOUBLE_EQ(again.at("xbsp_served_requests_total"), 43.0);

    endpoint.stop();
    EXPECT_FALSE(endpoint.running());
    // Socket unlinked on stop.
    EXPECT_NE(access(socketPath.c_str(), F_OK), 0);
}

TEST(MetricsEndpoint, ServesOnEphemeralTcpPort)
{
    StatRegistry registry;
    registry.counter("tcp.hits").add(5);

    MetricsEndpoint endpoint({"", 0}, [&registry] {
        return renderExposition(registry);
    });
    endpoint.start();
    const int port = endpoint.boundTcpPort();
    ASSERT_GT(port, 0);

    const auto series = parseExposition(httpGetTcp(port));
    EXPECT_DOUBLE_EQ(series.at("xbsp_tcp_hits_total"), 5.0);
    endpoint.stop();
}

TEST(MetricsEndpoint, SilentClientNeitherBlocksScrapesNorStop)
{
    using namespace std::chrono_literals;
    StatRegistry registry;
    registry.counter("served.requests").add(7);

    const std::string socketPath = tempSocketPath();
    ASSERT_FALSE(socketPath.empty());
    MetricsEndpoint endpoint({socketPath, -1}, [&registry] {
        return renderExposition(registry);
    });
    endpoint.start();

    // A client that connects and never sends a byte.
    const int silent = connectSilently(socketPath);
    ASSERT_GE(silent, 0);

    // The next scraper is still served, and stop() still returns,
    // while the silent client holds its connection open.  Both run
    // on their own threads so a regression fails here instead of
    // hanging the test.
    auto scrape = std::async(std::launch::async, [&socketPath] {
        return httpGetUnix(socketPath);
    });
    const bool served = scrape.wait_for(5s) == std::future_status::ready;
    EXPECT_TRUE(served) << "a silent client blocked the next scrape";
    auto stopped =
        std::async(std::launch::async, [&endpoint] { endpoint.stop(); });
    EXPECT_EQ(stopped.wait_for(5s), std::future_status::ready)
        << "a silent client blocked stop()";

    // Hang up, so that a failing endpoint can still unwind.
    ::close(silent);
    stopped.wait();
    if (served) {
        const auto series = parseExposition(scrape.get());
        EXPECT_DOUBLE_EQ(series.at("xbsp_served_requests_total"), 7.0);
    } else {
        scrape.wait();
    }
}

TEST(XbspTop, ComputesRatesBetweenItsOwnScrapes)
{
    // Every scrape finds a million more E-step distances and 50 ms
    // more scheduler busy time, so `xbsp top` has growth to rate.
    StatRegistry registry;
    const std::string socketPath = tempSocketPath();
    ASSERT_FALSE(socketPath.empty());
    MetricsEndpoint endpoint({socketPath, -1}, [&registry] {
        registry.counter("kmeans.estep.distances").add(1'000'000);
        registry.timer("scheduler.nodeBusy").addNanos(50'000'000);
        return renderExposition(registry);
    });
    endpoint.start();

    const auto [out, status] = test::runShell(
        format("'{}' top --metrics-socket '{}' --count 2 "
               "--interval-ms 100 --plain",
               XBSP_CLI_PATH, socketPath));
    EXPECT_EQ(status, 0) << out;
    endpoint.stop();

    const std::size_t second = out.find("xbsp top — frame 2,");
    ASSERT_NE(second, std::string::npos) << out;
    const std::string frame1 = out.substr(0, second);
    const std::string frame2 = out.substr(second);

    EXPECT_NE(frame1.find("xbsp top — frame 1, window n/a"),
              std::string::npos)
        << frame1;
    EXPECT_NE(frame1.find("e-step    n/a Mdist/s (1000000 distances"),
              std::string::npos)
        << frame1;
    EXPECT_NE(frame1.find("worker-busy ratio n/a"), std::string::npos)
        << frame1;

    double windowMs = 0.0;
    const std::size_t window = frame2.find("window ");
    ASSERT_NE(window, std::string::npos) << frame2;
    ASSERT_EQ(std::sscanf(frame2.c_str() + window, "window %lf ms",
                          &windowMs),
              1)
        << frame2;
    EXPECT_GE(windowMs, 100.0);

    double mdist = 0.0;
    const std::size_t estep = frame2.find("e-step ");
    ASSERT_NE(estep, std::string::npos) << frame2;
    ASSERT_EQ(std::sscanf(frame2.c_str() + estep, "e-step %lf Mdist/s",
                          &mdist),
              1)
        << frame2;
    EXPECT_GT(mdist, 0.0);
    EXPECT_NE(frame2.find("(2000000 distances total)"),
              std::string::npos)
        << frame2;

    double busy = 0.0;
    const std::size_t ratio = frame2.find("worker-busy ratio ");
    ASSERT_NE(ratio, std::string::npos) << frame2;
    ASSERT_EQ(std::sscanf(frame2.c_str() + ratio,
                          "worker-busy ratio %lf", &busy),
              1)
        << frame2;
    EXPECT_GT(busy, 0.0);
}

TEST(LiveTelemetry, ScrapesAndTraceInterleaveCleanly)
{
    // Renders hammering the global registry while TraceSession
    // records pipeline spans, at 1 and 8 jobs.  The trace must stay
    // valid JSON and the deterministic stats sections must be
    // byte-identical across job counts.
    //
    // One throwaway run first: process-lifetime caches (the engine's
    // compiled-trace cache) warm up on the first study in a process,
    // and this test compares runs *within* one process — both
    // measured runs must be equally warm.
    renderedFigures({"gzip"});

    auto runTraced = [](u64 jobs) {
        StatRegistry::global().reset();
        TraceSession::global().clear();
        TraceSession::global().enable();
        Scraper scraper;
        setGlobalJobs(jobs);
        renderedFigures({"gzip"});
        setGlobalJobs(0);
        EXPECT_GE(scraper.finish(), 1u) << "no render landed mid-run";
        TraceSession::global().disable();

        std::ostringstream trace;
        TraceSession::global().writeJson(trace);
        return std::make_pair(
            StatRegistry::global().jsonString(false), trace.str());
    };

    const auto [stats1, trace1] = runTraced(1);
    const auto [stats8, trace8] = runTraced(8);
    TraceSession::global().clear();

    EXPECT_EQ(stats1, stats8);
    EXPECT_NO_THROW(parseJson(trace1));
    EXPECT_NO_THROW(parseJson(trace8));
    EXPECT_NE(trace1.find("\"pipeline\""), std::string::npos);
}

TEST(LiveTelemetry, ScrapingDoesNotPerturbSuiteReports)
{
    // The acceptance contract in miniature: figure tables and the
    // deterministic stats sections are byte-identical with renders
    // running in a tight loop throughout and without any.  Warm-up
    // run first, for the same reason as above: both measured runs
    // must see the same process-lifetime cache state.
    renderedFigures({"eon"});

    StatRegistry::global().reset();
    const std::string plainFigures = renderedFigures({"eon"});
    const std::string plainStats =
        StatRegistry::global().jsonString(false);

    StatRegistry::global().reset();
    Scraper scraper;
    const std::string scrapedFigures = renderedFigures({"eon"});
    EXPECT_GE(scraper.finish(), 1u) << "no render landed mid-run";
    const std::string scrapedStats =
        StatRegistry::global().jsonString(false);

    EXPECT_EQ(plainFigures, scrapedFigures);
    EXPECT_EQ(plainStats, scrapedStats);
}
