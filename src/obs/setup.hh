/**
 * @file
 * Command-line and environment plumbing for the observability
 * subsystem.  Tools declare the shared flags with addCliOptions(),
 * then construct one ObsSession after parsing; the session enables
 * tracing/progress/log level for the run, owns the live-telemetry
 * machinery (the metrics exposition endpoint), and writes the
 * stats, trace and manifest files when flushed (or destroyed).
 *
 * Flags (each with an environment fallback so wrapped invocations —
 * CI, scripts — can opt in without touching argv):
 *
 *   --stats-out=FILE    / XBSP_STATS=FILE    stats registry JSON
 *   --trace-out=FILE    / XBSP_TRACE=FILE    Chrome trace JSON
 *   --manifest-out=FILE / XBSP_MANIFEST=FILE provenance manifest JSON
 *                                            (defaults to
 *                                            manifest.json next to
 *                                            --stats-out)
 *   --metrics-socket=PATH / XBSP_METRICS=PATH  serve Prometheus text
 *                                            exposition on this
 *                                            unix-domain socket
 *   --metrics-tcp=PORT  / XBSP_METRICS_TCP=  also serve on
 *                                            127.0.0.1:PORT (0 picks
 *                                            an ephemeral port)
 *   --log-level=LEVEL   / XBSP_LOG_LEVEL=    quiet|warn|inform|debug
 *   --progress                               per-step ETA lines
 *   --stats-timers                           include wall-clock
 *                                            timers in --stats-out
 *                                            (breaks cross-jobs
 *                                            byte-identity, off by
 *                                            default)
 *
 * The endpoint is a pure observer (see obs/live): it renders the
 * stats registry when a scrape arrives and runs nothing in between,
 * so with or without scrapers, at any --jobs, every study result,
 * report, stats dump and trace is byte-identical.
 */

#ifndef XBSP_OBS_SETUP_HH
#define XBSP_OBS_SETUP_HH

#include <memory>
#include <string>

namespace xbsp
{
class Options;
}

namespace xbsp::obs
{

class MetricsEndpoint;

/** Declare the shared observability options on `opts`. */
void addCliOptions(Options& opts);

/**
 * Applies parsed observability options for the lifetime of a tool
 * run; the destructor flushes any requested output files.
 */
class ObsSession
{
  public:
    /** Read the flags declared by addCliOptions() (+ env). */
    explicit ObsSession(const Options& opts);

    /** Flushes output files when requested; warns on failure. */
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /**
     * Stop live telemetry and write the requested output files now
     * instead of at destruction.  Unwritable paths warn and continue
     * — a finished run's results must never be lost to a bad output
     * flag — and every file is error-checked after the write, not
     * just at open.  Idempotent.
     */
    void flush();

    /** The endpoint, when --metrics-socket/--metrics-tcp enabled it. */
    MetricsEndpoint* endpoint() { return liveEndpoint.get(); }

  private:
    std::string statsPath;
    std::string tracePath;
    std::string manifestPath;
    std::string metricsSocketPath;
    int metricsTcpPort = -1;  ///< -1 disabled, 0 ephemeral
    bool includeTimers = false;
    bool flushed = false;

    std::unique_ptr<MetricsEndpoint> liveEndpoint;

    void startTelemetry();
};

} // namespace xbsp::obs

#endif // XBSP_OBS_SETUP_HH
