#include "obs/setup.hh"

#include <cstdlib>
#include <fstream>

#include "obs/live/endpoint.hh"
#include "obs/live/exposition.hh"
#include "obs/manifest/manifest.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace xbsp::obs
{

namespace
{

/** Option value if non-empty, else the environment variable. */
std::string
pathFrom(const std::string& optVal, const char* envName)
{
    if (!optVal.empty())
        return optVal;
    if (const char* env = std::getenv(envName))
        return env;
    return {};
}

void
applyLogLevel(const std::string& fromOpt)
{
    std::string name = fromOpt;
    if (name.empty()) {
        if (const char* env = std::getenv("XBSP_LOG_LEVEL"))
            name = env;
    }
    if (name.empty())
        return;
    if (auto level = parseLogLevel(name))
        setLogLevel(*level);
    else
        warn("ignoring unknown log level '{}'", name);
}

/** Parse a decimal port spec; -1 (disabled) on empty/garbage. */
int
parsePort(const std::string& text)
{
    if (text.empty())
        return -1;
    const std::optional<int> port = parseTcpPort(text);
    if (!port) {
        warn("ignoring bad metrics TCP port '{}'", text);
        return -1;
    }
    return *port;
}

/** "out/stats.json" -> "out/manifest.json"; bare file -> cwd. */
std::string
manifestPathNextTo(const std::string& statsPath)
{
    const std::size_t slash = statsPath.find_last_of('/');
    if (slash == std::string::npos)
        return "manifest.json";
    return statsPath.substr(0, slash + 1) + "manifest.json";
}

} // namespace

void
addCliOptions(Options& opts)
{
    opts.addString("stats-out",
                   "write the stats registry as JSON to this file "
                   "(env: XBSP_STATS)",
                   "");
    opts.addString("trace-out",
                   "write a Chrome trace_event JSON timeline to this "
                   "file (env: XBSP_TRACE)",
                   "");
    opts.addString("manifest-out",
                   "write the per-run provenance manifest to this "
                   "file (env: XBSP_MANIFEST; defaults to "
                   "manifest.json next to --stats-out)",
                   "");
    opts.addString("metrics-socket",
                   "serve live Prometheus metrics on this unix-domain "
                   "socket (env: XBSP_METRICS)",
                   "");
    opts.addString("metrics-tcp",
                   "also serve live metrics on 127.0.0.1:PORT; 0 "
                   "picks an ephemeral port (env: XBSP_METRICS_TCP)",
                   "");
    opts.addString("log-level",
                   "log verbosity: quiet|warn|inform|debug "
                   "(env: XBSP_LOG_LEVEL)",
                   "");
    opts.addBool("progress", "print an ETA line per pipeline step",
                 false);
    opts.addBool("stats-timers",
                 "include wall-clock timers in --stats-out (their "
                 "values differ run to run)",
                 false);
}

ObsSession::ObsSession(const Options& opts)
    : statsPath(pathFrom(opts.getString("stats-out"), "XBSP_STATS")),
      tracePath(pathFrom(opts.getString("trace-out"), "XBSP_TRACE")),
      manifestPath(pathFrom(opts.getString("manifest-out"),
                            "XBSP_MANIFEST")),
      metricsSocketPath(pathFrom(opts.getString("metrics-socket"),
                                 "XBSP_METRICS")),
      metricsTcpPort(parsePort(pathFrom(opts.getString("metrics-tcp"),
                                        "XBSP_METRICS_TCP"))),
      includeTimers(opts.getBool("stats-timers"))
{
    applyLogLevel(opts.getString("log-level"));
    if (opts.getBool("progress"))
        Progress::global().enable();
    if (!tracePath.empty())
        TraceSession::global().enable();
    if (manifestPath.empty() && !statsPath.empty())
        manifestPath = manifestPathNextTo(statsPath);
    if (!metricsSocketPath.empty() || metricsTcpPort >= 0)
        startTelemetry();
}

void
ObsSession::startTelemetry()
{
    MetricsEndpoint::Config endpointConfig;
    endpointConfig.unixPath = metricsSocketPath;
    endpointConfig.tcpPort = metricsTcpPort;
    liveEndpoint = std::make_unique<MetricsEndpoint>(
        endpointConfig,
        [] { return renderExposition(StatRegistry::global()); });
    try {
        liveEndpoint->start();
    } catch (const std::exception& e) {
        // Telemetry must never kill the run it is watching.
        warn("live metrics endpoint disabled: {}", e.what());
        liveEndpoint.reset();
        return;
    }
    if (!metricsSocketPath.empty())
        inform("serving live metrics on {}", metricsSocketPath);
    if (metricsTcpPort >= 0)
        inform("serving live metrics on 127.0.0.1:{}",
               liveEndpoint->boundTcpPort());
}

void
ObsSession::flush()
{
    if (flushed)
        return;
    flushed = true;

    // Telemetry down first: no scrape may observe the teardown.
    if (liveEndpoint)
        liveEndpoint->stop();

    if (!statsPath.empty()) {
        std::ofstream os(statsPath);
        if (!os) {
            warn("cannot open stats output file '{}'", statsPath);
        } else {
            StatRegistry::global().writeJsonFile(os, includeTimers);
            os.flush();
            if (!os.good())
                warn("failed writing stats output file '{}'",
                     statsPath);
            else
                inform("wrote stats to {}", statsPath);
        }
    }

    if (!tracePath.empty()) {
        TraceSession::global().disable();
        std::ofstream os(tracePath);
        if (!os) {
            warn("cannot open trace output file '{}'", tracePath);
        } else {
            TraceSession::global().writeJson(os);
            os.flush();
            if (!os.good())
                warn("failed writing trace output file '{}'",
                     tracePath);
            else
                inform("wrote trace to {}", tracePath);
        }
    }

    if (!manifestPath.empty() && !RunManifest::global().empty()) {
        if (!RunManifest::global().writeJsonFile(manifestPath))
            warn("cannot write manifest file '{}'", manifestPath);
        else
            inform("wrote manifest to {}", manifestPath);
    }
}

ObsSession::~ObsSession()
{
    flush();
}

} // namespace xbsp::obs
