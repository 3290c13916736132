#include "obs/live/endpoint.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/format.hh"
#include "util/types.hh"

namespace xbsp::obs
{

namespace
{

/** Write all of `data`, tolerating short writes; false on error.
 *  MSG_NOSIGNAL: a scraper that hung up mid-response must surface as
 *  EPIPE, not a SIGPIPE that kills the instrumented process. */
bool
writeAll(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Time a client gets to send its request head, and to take each
 *  chunk of the response: a client that connects and goes silent
 *  must not hold the only listener thread, or stop(), hostage. */
constexpr int clientDeadlineMs = 1000;

/** Read until the blank line ending the request head (best effort:
 *  we answer every request identically, so the head's content never
 *  matters — we just drain it so the client's write can finish).
 *  Gives up at the client deadline, or once `wakeFd` turns readable
 *  (stop() was called). */
void
drainRequestHead(int fd, int wakeFd)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(clientDeadlineMs);
    std::string head;
    char buf[512];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos &&
           head.size() < 16384) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (left <= 0)
            break;
        pollfd fds[2] = {{fd, POLLIN, 0}, {wakeFd, POLLIN, 0}};
        const int ready = ::poll(fds, 2, static_cast<int>(left));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0 || (fds[1].revents & POLLIN))
            break;
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        head.append(buf, static_cast<std::size_t>(n));
    }
}

int
makeUnixListener(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            format("metrics socket path too long: {}", path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_UNIX): {}",
                                        std::strerror(errno)));
    // A previous run's socket file would make bind fail; it is dead
    // weight by definition (a live listener would still hold it, and
    // two concurrent runs must use distinct paths anyway).
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("bind({}): {}", path,
                                        std::strerror(err)));
    }
    if (::listen(fd, 16) < 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(path.c_str());
        throw std::runtime_error(format("listen({}): {}", path,
                                        std::strerror(err)));
    }
    return fd;
}

int
makeTcpListener(int port, int& boundPort)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_INET): {}",
                                        std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<u16>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 16) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(
            format("bind/listen(127.0.0.1:{}): {}", port,
                   std::strerror(err)));
    }
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) <
        0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("getsockname: {}",
                                        std::strerror(err)));
    }
    boundPort = ntohs(got.sin_port);
    return fd;
}

/** Connect, send a GET, return the body after the header break. */
std::string
httpGetFd(int fd)
{
    if (!writeAll(fd,
                  "GET /metrics HTTP/1.0\r\n"
                  "Host: xbsp\r\n"
                  "\r\n")) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("metrics request write: {}",
                                        std::strerror(err)));
    }
    ::shutdown(fd, SHUT_WR);

    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            throw std::runtime_error(
                format("metrics response read: {}",
                       std::strerror(err)));
        }
        if (n == 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos)
        throw std::runtime_error("metrics response has no header end");
    if (response.compare(0, 12, "HTTP/1.0 200") != 0)
        throw std::runtime_error(
            format("metrics endpoint answered: {}",
                   response.substr(0, response.find('\r'))));
    return response.substr(split + 4);
}

} // namespace

MetricsEndpoint::MetricsEndpoint(Config config,
                                 std::function<std::string()> bodyFn)
    : cfg(std::move(config)), body(std::move(bodyFn))
{
}

MetricsEndpoint::~MetricsEndpoint()
{
    stop();
}

void
MetricsEndpoint::start()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (threadRunning)
        return;
    if (cfg.unixPath.empty() && cfg.tcpPort < 0)
        throw std::runtime_error("metrics endpoint has no socket "
                                 "configured");

    try {
        if (!cfg.unixPath.empty()) {
            unixFd = makeUnixListener(cfg.unixPath);
            listenFds.push_back(unixFd);
        }
        if (cfg.tcpPort >= 0) {
            tcpFd = makeTcpListener(cfg.tcpPort, tcpPortBound);
            listenFds.push_back(tcpFd);
        }
        if (::pipe(wakePipe) < 0)
            throw std::runtime_error(format("pipe: {}",
                                            std::strerror(errno)));
    } catch (...) {
        closeSockets();
        throw;
    }

    threadRunning = true;
    thread = std::thread([this] { loop(); });
}

void
MetricsEndpoint::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!threadRunning)
            return;
    }
    // Wake poll(); the thread exits when it sees the pipe readable.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n =
        ::write(wakePipe[1], &byte, 1);
    thread.join();
    std::lock_guard<std::mutex> lock(mutex);
    threadRunning = false;
    closeSockets();
}

bool
MetricsEndpoint::running() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return threadRunning;
}

int
MetricsEndpoint::boundTcpPort() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return tcpPortBound;
}

void
MetricsEndpoint::loop()
{
    std::vector<pollfd> fds;
    for (const int fd : listenFds)
        fds.push_back({fd, POLLIN, 0});
    fds.push_back({wakePipe[0], POLLIN, 0});

    for (;;) {
        for (pollfd& p : fds)
            p.revents = 0;
        const int ready = ::poll(fds.data(), fds.size(), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds.back().revents & POLLIN)
            return;  // stop() poked the wake pipe
        for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int client = ::accept(fds[i].fd, nullptr, nullptr);
            if (client >= 0)
                serveOne(client);
        }
    }
}

void
MetricsEndpoint::serveOne(int fd)
{
    // Bound every send too: a client that stops reading mid-response
    // gets dropped instead of blocking the listener.
    const timeval sendTimeout{clientDeadlineMs / 1000,
                              (clientDeadlineMs % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &sendTimeout,
                 sizeof(sendTimeout));
    drainRequestHead(fd, wakePipe[0]);

    std::string payload;
    try {
        payload = body();
    } catch (const std::exception& e) {
        const std::string error =
            format("HTTP/1.0 500 Internal Server Error\r\n"
                   "Content-Type: text/plain\r\n"
                   "Connection: close\r\n\r\n{}\n",
                   e.what());
        writeAll(fd, error);
        ::close(fd);
        return;
    }

    const std::string head = format(
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: {}\r\n"
        "Connection: close\r\n\r\n",
        payload.size());
    writeAll(fd, head) && writeAll(fd, payload);
    ::close(fd);
}

void
MetricsEndpoint::closeSockets()
{
    for (const int fd : listenFds)
        ::close(fd);
    listenFds.clear();
    if (unixFd >= 0 && !cfg.unixPath.empty())
        ::unlink(cfg.unixPath.c_str());
    unixFd = -1;
    tcpFd = -1;
    for (int& fd : wakePipe) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

std::string
httpGetUnix(const std::string& socketPath)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            format("metrics socket path too long: {}", socketPath));
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_UNIX): {}",
                                        std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("connect({}): {}", socketPath,
                                        std::strerror(err)));
    }
    return httpGetFd(fd);
}

std::string
httpGetTcp(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_INET): {}",
                                        std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<u16>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(
            format("connect(127.0.0.1:{}): {}", port,
                   std::strerror(err)));
    }
    return httpGetFd(fd);
}

} // namespace xbsp::obs
