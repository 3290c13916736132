/**
 * @file
 * The one place xbsp opens sockets: unix-domain and loopback TCP
 * stream sockets for the live metrics endpoint (obs/live/endpoint)
 * and the distributed daemon (dist/server, dist/worker,
 * dist/client).
 *
 * Addresses are strings: "unix:PATH" (or a bare path) for a
 * unix-domain socket, "tcp:PORT" for 127.0.0.1:PORT.  Every call is
 * synchronous; concurrency is the caller's business.  A Listener's
 * stop() makes its wake fd readable for good, so accept() and any
 * readSome() handed that wake fd return at once, from then on — a
 * peer that connects and goes silent cannot hold up a shutdown.
 */

#ifndef XBSP_UTIL_SOCKET_HH
#define XBSP_UTIL_SOCKET_HH

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace xbsp::net
{

/** Parsed peer address. */
struct Address
{
    bool tcp = false;
    std::string path;  ///< unix socket path (when !tcp)
    int port = 0;      ///< loopback TCP port (when tcp)

    /** Render back to the canonical "unix:..."/"tcp:..." form. */
    std::string text() const;
};

/**
 * Parse "unix:PATH", "tcp:PORT", or a bare path (= unix).  Throws
 * std::runtime_error on a malformed spec.
 */
Address parseAddress(const std::string& spec);

/**
 * Listening socket on a unix path and/or a loopback TCP port.
 * accept() waits on every listening fd plus the wake pipe, so stop()
 * (from any thread) interrupts it promptly.
 */
class Listener
{
  public:
    /**
     * Bind a unix-domain listener at `unixPath` ("" = none; a stale
     * socket file there is unlinked first) and/or a loopback TCP
     * listener at `tcpPort` (-1 = none, 0 = an ephemeral port, read
     * it back with boundPort()).  Throws std::runtime_error when
     * neither is configured or either cannot be bound.
     */
    Listener(const std::string& unixPath, int tcpPort);

    /** Closes every fd and unlinks the unix socket. */
    ~Listener();

    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /**
     * Wait for one connection and return its fd; -1 once stop() was
     * called.  Safe to call from one thread while another calls
     * stop().
     */
    int accept();

    /** Unblock accept() permanently and make wakeFd() readable. */
    void stop();

    /** Bound TCP port (0 when TCP is disabled). */
    int boundPort() const { return tcpPortBound; }

    /** Turns readable once stop() is called; for readSome(). */
    int wakeFd() const { return wakePipe[0]; }

  private:
    std::vector<int> fds;
    std::string unixPath;
    int tcpPortBound = 0;
    int wakePipe[2] = {-1, -1};
};

/** Connect to `address`; throws std::runtime_error on failure. */
int connectTo(const Address& address);

/** Close a connection fd (no-op for fd < 0). */
void closeFd(int fd);

/**
 * Write all of `data`, tolerating short writes; false on any error.
 * MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE, not as a
 * SIGPIPE that kills the process.
 */
bool sendAll(int fd, std::string_view data);

/** The point after which a read gives up; nullopt = never. */
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/** `ms` milliseconds from now; nullopt (never) when ms < 0. */
Deadline deadlineIn(int ms);

/**
 * Read up to `size` bytes once `fd` has data.  Returns the count
 * read, 0 on orderly EOF, or -1 on a socket error, when `deadline`
 * passes (errno ETIMEDOUT), or once `wakeFd` (when >= 0) is readable
 * (errno ECANCELED).
 */
ssize_t readSome(int fd, char* out, std::size_t size,
                 const Deadline& deadline, int wakeFd = -1);

} // namespace xbsp::net

#endif // XBSP_UTIL_SOCKET_HH
