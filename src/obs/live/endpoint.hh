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
 * other scrapers nor delays stop().  The sockets come from
 * util/socket: a net::Listener plus one thread that serves each
 * accepted connection in turn.
 *
 * httpGet() is the matching one-shot client used by `xbsp top` and
 * the tests; it returns the response body.
 */

#ifndef XBSP_OBS_LIVE_ENDPOINT_HH
#define XBSP_OBS_LIVE_ENDPOINT_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "util/socket.hh"

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
     * std::runtime_error when no socket is configured or one cannot
     * be bound.  Idempotent while running.
     */
    void start();

    /** Stop the thread and close/unlink sockets (idempotent). */
    void stop();

    bool running() const;

    /** Actual TCP port after start() (0 when TCP is disabled). */
    int boundTcpPort() const;

  private:
    Config cfg;
    std::function<std::string()> body;

    mutable std::mutex mutex;
    std::unique_ptr<net::Listener> listener;  ///< set while running
    std::thread thread;  ///< accept -> serveOne until stop()

    void serveOne(int fd);
};

/** GET the exposition from the endpoint at `address`; returns the
 *  body.  Throws std::runtime_error on connect/read failure. */
std::string httpGet(const net::Address& address);

} // namespace xbsp::obs

#endif // XBSP_OBS_LIVE_ENDPOINT_HH
