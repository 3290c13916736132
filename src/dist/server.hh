/**
 * @file
 * The `xbsp serve` daemon: one listener, two kinds of peers.
 *
 * A connection's first frame declares its role: Hello makes it a
 * worker (handed to the Executor after a HelloAck carrying the shared
 * cache directory), SuiteRequest makes it a client (served on its own
 * handler thread and closed after one SuiteResponse).
 *
 * Concurrent clients share everything that matters: the process-wide
 * ArtifactStore stays warm across requests, and identical in-flight
 * stages single-flight inside the Executor on their stage keys — two
 * clients asking for the same figure at the same time compute each
 * stage once.
 *
 * Shutdown (stop(), typically from a SIGTERM handler) stops the
 * accept loop, drops connections still waiting for their first
 * frame, joins client handlers, and drains the executor, which sends
 * Shutdown to every worker so they exit cleanly.
 *
 * The helpers at the bottom are the single rendering path shared by
 * the daemon and `xbsp submit --local`, which is what makes
 * byte-for-byte report comparison between the two modes meaningful.
 */

#ifndef XBSP_DIST_SERVER_HH
#define XBSP_DIST_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/executor.hh"
#include "dist/wire.hh"
#include "harness/experiments.hh"
#include "util/socket.hh"

namespace xbsp::dist
{

/** Options for Server (CLI flags of `xbsp serve`). */
struct ServerOptions
{
    std::string unixPath;       ///< unix socket ("" = none)
    int tcpPort = -1;           ///< loopback TCP (-1 none, 0 ephemeral)
    std::string name;           ///< self-reported identity ("" = pid)
    int taskTimeoutMs = 120'000;
    int maxRetries = 2;
};

class Server
{
  public:
    /** Binds immediately; fatal when the global store is disabled. */
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Ephemeral-port readback for tcpPort == 0. */
    int boundPort() const { return acceptor.boundPort(); }

    /** The remote backend (tests drive graphs through it directly). */
    Executor& executor() { return exec; }

    /** Accept loop; blocks until stop(). */
    void serve();

    /** End serve(), join handlers, drain workers.  Idempotent. */
    void stop();

  private:
    /** A client-connection thread plus a flag it raises on exit, so
     *  the accept loop can reap finished handlers without joining
     *  (and thus blocking on) live ones. */
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    void handleConnection(int fd);
    void handleSuite(int fd, const SuiteRequest& request);
    /** Join and drop every handler whose done flag is set.  Caller
     *  holds handlersMutex. */
    void reapFinishedHandlers();

    ServerOptions opts;
    std::string serverName;
    net::Listener acceptor;
    Executor exec;
    std::atomic<bool> stopping{false};
    std::mutex handlersMutex;
    std::vector<Handler> handlers;
};

/**
 * Translate a SuiteRequest into the harness configuration:
 * defaultStudyConfig plus the request's scalars and core.  Shared by
 * the daemon and `xbsp submit --local`.  Throws
 * std::runtime_error on an unknown core or a maxK outside
 * [1, 2^32 - 1], so the daemon answers a bad request with an error.
 */
harness::ExperimentConfig suiteConfig(const SuiteRequest& request);

/**
 * Arm a finalized config for remote dispatch: every remote-eligible
 * stage node (compile, profile, vli, and — under detailed timing —
 * binary) gets a StageTask spec, and graphs built from the config
 * route probe misses through `backend`.  Must run after the config's
 * study/scale fields are final (specs capture them by value).
 */
void enableRemote(harness::ExperimentConfig& config,
                  pipeline::RemoteBackend* backend);

/**
 * Run the requested figures and render them as one report string.
 * `backend` may be null (purely local).  Throws on unknown figure
 * names or workloads.
 */
std::string renderSuiteReport(const SuiteRequest& request,
                              pipeline::RemoteBackend* backend);

} // namespace xbsp::dist

#endif // XBSP_DIST_SERVER_HH
