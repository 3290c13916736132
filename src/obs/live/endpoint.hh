/**
 * @file
 * Minimal metrics endpoint: a listener thread serving the Prometheus
 * text exposition over a unix-domain socket (and, optionally, a
 * loopback TCP socket) with single-shot HTTP/1.0 responses.  Every
 * request — whatever the path — gets the current exposition document
 * from the body callback, `Content-Type: text/plain; version=0.0.4`,
 * then the connection closes.  That is all a Prometheus scraper,
 * `curl --unix-socket`, or `xbsp top` needs; there is deliberately no
 * routing, keep-alive, or TLS.
 *
 * The endpoint is part of the pure-observer telemetry layer: it only
 * ever *reads* (through the callback, which renders the stats
 * registry when the request arrives), so serving scrapes can never
 * perturb study results.  A client gets a bounded time to send its
 * request and to take the response, so a silent one neither stalls
 * other scrapers nor delays stop().
 *
 * httpGetUnix()/httpGetTcp() are the matching one-shot clients used
 * by `xbsp top` and the tests; they return the response body.
 */

#ifndef XBSP_OBS_LIVE_ENDPOINT_HH
#define XBSP_OBS_LIVE_ENDPOINT_HH

#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace xbsp::obs
{

/** Unix-socket (+ optional loopback TCP) exposition server. */
class MetricsEndpoint
{
  public:
    struct Config
    {
        /** Unix-domain socket path; empty disables the unix socket. */
        std::string unixPath;

        /**
         * Loopback TCP port; -1 disables TCP, 0 binds an ephemeral
         * port (read it back with boundTcpPort()).
         */
        int tcpPort = -1;
    };

    /** `body` is called per request from the listener thread. */
    MetricsEndpoint(Config config, std::function<std::string()> body);

    /** Stops and closes sockets if still running. */
    ~MetricsEndpoint();

    MetricsEndpoint(const MetricsEndpoint&) = delete;
    MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

    /**
     * Bind, listen and launch the accept thread.  Throws
     * std::runtime_error if no configured socket could be bound.
     * Idempotent while running.
     */
    void start();

    /** Stop the thread and close/unlink sockets (idempotent). */
    void stop();

    bool running() const;

    /** Actual TCP port after start() (0 when TCP is disabled). */
    int boundTcpPort() const;

    const std::string& unixPath() const { return cfg.unixPath; }

  private:
    Config cfg;
    std::function<std::string()> body;

    std::thread thread;
    mutable std::mutex mutex;
    bool threadRunning = false;

    std::vector<int> listenFds;
    int unixFd = -1;
    int tcpFd = -1;
    int tcpPortBound = 0;
    int wakePipe[2] = {-1, -1};  ///< self-pipe to interrupt poll()

    void loop();
    void serveOne(int fd);
    void closeSockets();
};

/** GET the exposition from a unix-socket endpoint; returns the body.
 *  Throws std::runtime_error on connect/read failure. */
std::string httpGetUnix(const std::string& socketPath);

/** GET the exposition from a loopback TCP endpoint. */
std::string httpGetTcp(int port);

} // namespace xbsp::obs

#endif // XBSP_OBS_LIVE_ENDPOINT_HH
