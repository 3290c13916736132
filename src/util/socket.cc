#include "util/socket.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/format.hh"
#include "util/options.hh"
#include "util/types.hh"

namespace xbsp::net
{

namespace
{

/** Throw "what: strerror(errno)", closing `fd` (when >= 0) first. */
[[noreturn]] void
throwErrno(int fd, const std::string& what)
{
    const int err = errno;
    if (fd >= 0)
        ::close(fd);
    throw std::runtime_error(format("{}: {}", what, std::strerror(err)));
}

/** A fresh stream socket of `address`'s family, and its sockaddr. */
struct Socket
{
    int fd = -1;
    sockaddr_storage addr{};
    socklen_t len = 0;

    const sockaddr*
    sa() const
    {
        return reinterpret_cast<const sockaddr*>(&addr);
    }
};

Socket
openSocket(const Address& address)
{
    Socket s;
    if (address.tcp) {
        sockaddr_in in{};
        in.sin_family = AF_INET;
        in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        in.sin_port = htons(static_cast<u16>(address.port));
        std::memcpy(&s.addr, &in, sizeof(in));
        s.len = sizeof(in);
    } else {
        sockaddr_un un{};
        un.sun_family = AF_UNIX;
        if (address.path.size() >= sizeof(un.sun_path))
            throw std::runtime_error(
                format("socket path too long: {}", address.path));
        std::memcpy(un.sun_path, address.path.c_str(),
                    address.path.size() + 1);
        std::memcpy(&s.addr, &un, sizeof(un));
        s.len = sizeof(un);
    }
    s.fd = ::socket(s.addr.ss_family, SOCK_STREAM, 0);
    if (s.fd < 0)
        throwErrno(-1, format("socket({})", address.text()));
    return s;
}

int
listenOn(const Address& address)
{
    const Socket s = openSocket(address);
    if (address.tcp) {
        const int one = 1;
        ::setsockopt(s.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    } else {
        // A previous run's socket file would make bind fail; it is
        // dead weight by definition (a live listener would still hold
        // it, and two concurrent runs must use distinct paths anyway).
        ::unlink(address.path.c_str());
    }
    if (::bind(s.fd, s.sa(), s.len) < 0 || ::listen(s.fd, 64) < 0) {
        const int err = errno;
        if (!address.tcp)
            ::unlink(address.path.c_str());
        errno = err;
        throwErrno(s.fd, format("bind/listen({})", address.text()));
    }
    return s.fd;
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
        throw std::runtime_error("listener has no socket configured");
    try {
        if (!unixPath.empty())
            fds.push_back(listenOn({.path = unixPath}));
        if (tcpPort >= 0) {
            fds.push_back(
                listenOn({.tcp = true, .path = {}, .port = tcpPort}));
            sockaddr_in got{};
            socklen_t len = sizeof(got);
            if (::getsockname(fds.back(),
                              reinterpret_cast<sockaddr*>(&got),
                              &len) < 0)
                throwErrno(-1, "getsockname");
            tcpPortBound = ntohs(got.sin_port);
        }
        if (::pipe(wakePipe) < 0)
            throwErrno(-1, "pipe");
    } catch (...) {
        for (const int fd : fds)
            ::close(fd);
        if (!unixPath.empty() && !fds.empty())
            ::unlink(unixPath.c_str());
        throw;
    }
}

Listener::~Listener()
{
    for (const int fd : fds)
        ::close(fd);
    if (!unixPath.empty())
        ::unlink(unixPath.c_str());
    for (const int fd : wakePipe)
        ::close(fd);
}

int
Listener::accept()
{
    std::vector<pollfd> polled;
    for (const int fd : fds)
        polled.push_back({fd, POLLIN, 0});
    polled.push_back({wakePipe[0], POLLIN, 0});
    for (;;) {
        if (::poll(polled.data(), polled.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (polled.back().revents & POLLIN)
            return -1;  // stop() poked the wake pipe
        for (std::size_t i = 0; i + 1 < polled.size(); ++i) {
            if (!(polled[i].revents & POLLIN))
                continue;
            const int client = ::accept(polled[i].fd, nullptr, nullptr);
            if (client >= 0)
                return client;
        }
    }
}

void
Listener::stop()
{
    // Never drained: the pipe stays readable from here on.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wakePipe[1], &byte, 1);
}

int
connectTo(const Address& address)
{
    const Socket s = openSocket(address);
    if (::connect(s.fd, s.sa(), s.len) < 0)
        throwErrno(s.fd, format("connect({})", address.text()));
    return s.fd;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

bool
sendAll(int fd, std::string_view data)
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

Deadline
deadlineIn(int ms)
{
    if (ms < 0)
        return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(ms);
}

ssize_t
readSome(int fd, char* out, std::size_t size, const Deadline& deadline,
         int wakeFd)
{
    pollfd polled[2] = {{fd, POLLIN, 0}, {wakeFd, POLLIN, 0}};
    const nfds_t count = wakeFd >= 0 ? 2 : 1;
    for (;;) {
        int waitMs = -1;
        if (deadline) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0) {
                errno = ETIMEDOUT;
                return -1;
            }
            waitMs = static_cast<int>(
                std::min<decltype(left)>(left, INT_MAX));
        }
        const int ready = ::poll(polled, count, waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (count == 2 && (polled[1].revents & POLLIN)) {
            errno = ECANCELED;
            return -1;
        }
        if (ready == 0)
            continue;  // the deadline check above ends the wait
        const ssize_t n = ::read(fd, out, size);
        if (n < 0 && errno == EINTR)
            continue;
        return n;
    }
}

} // namespace xbsp::net
