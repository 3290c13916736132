#include "dist/transport.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "dist/wire.hh"
#include "util/format.hh"
#include "util/options.hh"
#include "util/serial.hh"

namespace xbsp::dist
{

namespace
{

int
makeUnixListener(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            format("dist socket path too long: {}", path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_UNIX): {}",
                                        std::strerror(errno)));
    // A previous run's socket file is dead weight by definition (a
    // live listener would still hold it); see obs/live/endpoint.cc.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("bind({}): {}", path,
                                        std::strerror(err)));
    }
    if (::listen(fd, 64) < 0) {
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
        ::listen(fd, 64) < 0) {
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

using clock_type = std::chrono::steady_clock;

/** Milliseconds left before `deadline`; -1 for "no deadline". */
int
remainingMs(const std::optional<clock_type::time_point>& deadline)
{
    if (!deadline)
        return -1;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            *deadline - clock_type::now())
            .count();
    return left <= 0 ? 0 : static_cast<int>(left);
}

/**
 * Read exactly `n` bytes into `out`, honouring the deadline; false
 * on EOF, error, or expiry.  `sawBytes` reports whether anything
 * arrived (distinguishes orderly EOF from a torn frame).
 */
bool
readExact(int fd, char* out, std::size_t n,
          const std::optional<clock_type::time_point>& deadline,
          bool* sawBytes)
{
    std::size_t off = 0;
    while (off < n) {
        pollfd p{fd, POLLIN, 0};
        const int waitMs = remainingMs(deadline);
        if (waitMs == 0)
            return false;  // deadline expired
        const int ready = ::poll(&p, 1, waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (ready == 0)
            return false;  // timeout
        const ssize_t got = ::read(fd, out + off, n - off);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false;  // EOF
        if (sawBytes)
            *sawBytes = true;
        off += static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace

std::string
Address::text() const
{
    return tcp ? format("tcp:{}", port) : "unix:" + path;
}

Address
parseAddress(const std::string& spec)
{
    Address address;
    if (spec.rfind("tcp:", 0) == 0) {
        const std::optional<int> port = parseTcpPort(spec.substr(4));
        if (!port || *port == 0)
            throw std::runtime_error(
                format("bad tcp port in '{}'", spec));
        address.tcp = true;
        address.port = *port;
        return address;
    }
    address.path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
    if (address.path.empty())
        throw std::runtime_error(
            format("empty socket path in '{}'", spec));
    return address;
}

Listener::Listener(const std::string& unixSocketPath, int tcpPort)
    : unixPath(unixSocketPath)
{
    if (unixPath.empty() && tcpPort < 0)
        throw std::runtime_error("dist listener has no address");
    try {
        if (!unixPath.empty())
            fds.push_back(makeUnixListener(unixPath));
        if (tcpPort >= 0)
            fds.push_back(makeTcpListener(tcpPort, tcpPortBound));
        if (::pipe(wakePipe) < 0)
            throw std::runtime_error(format("pipe: {}",
                                            std::strerror(errno)));
    } catch (...) {
        for (const int fd : fds)
            ::close(fd);
        fds.clear();
        throw;
    }
}

Listener::~Listener()
{
    for (const int fd : fds)
        ::close(fd);
    if (!unixPath.empty())
        ::unlink(unixPath.c_str());
    for (int& fd : wakePipe) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

int
Listener::accept(int timeoutMs)
{
    std::vector<pollfd> polled;
    for (const int fd : fds)
        polled.push_back({fd, POLLIN, 0});
    polled.push_back({wakePipe[0], POLLIN, 0});

    const std::optional<clock_type::time_point> deadline =
        timeoutMs < 0 ? std::nullopt
                      : std::optional(clock_type::now() +
                                      std::chrono::milliseconds(
                                          timeoutMs));
    for (;;) {
        for (pollfd& p : polled)
            p.revents = 0;
        const int waitMs = remainingMs(deadline);
        const int ready = ::poll(polled.data(), polled.size(), waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (ready == 0)
            return -1;  // timeout
        if (polled.back().revents & POLLIN)
            return -1;  // stop() poked the wake pipe
        for (std::size_t i = 0; i + 1 < polled.size(); ++i) {
            if (!(polled[i].revents & POLLIN))
                continue;
            const int client =
                ::accept(polled[i].fd, nullptr, nullptr);
            if (client >= 0)
                return client;
        }
    }
}

void
Listener::stop()
{
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wakePipe[1], &byte, 1);
}

int
connectTo(const Address& address)
{
    if (address.tcp) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error(format("socket(AF_INET): {}",
                                            std::strerror(errno)));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<u16>(address.port));
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) < 0) {
            const int err = errno;
            ::close(fd);
            throw std::runtime_error(
                format("connect({}): {}", address.text(),
                       std::strerror(err)));
        }
        return fd;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (address.path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            format("dist socket path too long: {}", address.path));
    std::memcpy(addr.sun_path, address.path.c_str(),
                address.path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(format("socket(AF_UNIX): {}",
                                        std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(format("connect({}): {}",
                                        address.text(),
                                        std::strerror(err)));
    }
    return fd;
}

bool
sendFrame(int fd, const std::string& frame)
{
    std::size_t off = 0;
    while (off < frame.size()) {
        // MSG_NOSIGNAL: a peer that reset the connection (killed
        // worker, disconnected client) must surface as EPIPE, not a
        // process-killing SIGPIPE in the serve daemon.
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string>
recvFrame(int fd, int timeoutMs)
{
    const std::optional<clock_type::time_point> deadline =
        timeoutMs < 0 ? std::nullopt
                      : std::optional(clock_type::now() +
                                      std::chrono::milliseconds(
                                          timeoutMs));
    char header[8];
    bool sawBytes = false;
    if (!readExact(fd, header, sizeof(header), deadline, &sawBytes))
        return std::nullopt;
    u64 size = 0;
    try {
        serial::Decoder d(std::string_view(header, sizeof(header)));
        if (d.fixed32() != frameMagic)
            return std::nullopt;
        size = d.fixed32();
    } catch (const serial::DecodeError&) {
        return std::nullopt;
    }
    if (size > maxFrameBytes)
        return std::nullopt;
    std::string payload(static_cast<std::size_t>(size), '\0');
    if (size > 0 &&
        !readExact(fd, payload.data(), payload.size(), deadline,
                   nullptr))
        return std::nullopt;
    return payload;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

} // namespace xbsp::dist
