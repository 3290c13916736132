#include "obs/live/endpoint.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/time.h>

#include "util/format.hh"

namespace xbsp::obs
{

namespace
{

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
    const net::Deadline deadline = net::deadlineIn(clientDeadlineMs);
    std::string head;
    char buf[512];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos &&
           head.size() < 16384) {
        const ssize_t n =
            net::readSome(fd, buf, sizeof(buf), deadline, wakeFd);
        if (n <= 0)
            break;
        head.append(buf, static_cast<std::size_t>(n));
    }
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
    if (listener)
        return;
    listener = std::make_unique<net::Listener>(cfg.unixPath, cfg.tcpPort);
    thread = std::thread([this] {
        for (int fd; (fd = listener->accept()) >= 0;)
            serveOne(fd);
    });
}

void
MetricsEndpoint::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!listener)
            return;
        listener->stop();
    }
    thread.join();
    std::lock_guard<std::mutex> lock(mutex);
    listener.reset();
}

bool
MetricsEndpoint::running() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return listener != nullptr;
}

int
MetricsEndpoint::boundTcpPort() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return listener ? listener->boundPort() : 0;
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
    drainRequestHead(fd, listener->wakeFd());

    std::string payload;
    try {
        payload = body();
    } catch (const std::exception& e) {
        const std::string error =
            format("HTTP/1.0 500 Internal Server Error\r\n"
                   "Content-Type: text/plain\r\n"
                   "Connection: close\r\n\r\n{}\n",
                   e.what());
        net::sendAll(fd, error);
        net::closeFd(fd);
        return;
    }

    const std::string head = format(
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: {}\r\n"
        "Connection: close\r\n\r\n",
        payload.size());
    net::sendAll(fd, head) && net::sendAll(fd, payload);
    net::closeFd(fd);
}

std::string
httpGet(const net::Address& address)
{
    const int fd = net::connectTo(address);
    if (!net::sendAll(fd,
                      "GET /metrics HTTP/1.0\r\n"
                      "Host: xbsp\r\n"
                      "\r\n")) {
        const int err = errno;
        net::closeFd(fd);
        throw std::runtime_error(format("metrics request write: {}",
                                        std::strerror(err)));
    }
    ::shutdown(fd, SHUT_WR);

    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n =
            net::readSome(fd, buf, sizeof(buf), std::nullopt);
        if (n < 0) {
            const int err = errno;
            net::closeFd(fd);
            throw std::runtime_error(
                format("metrics response read: {}",
                       std::strerror(err)));
        }
        if (n == 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    net::closeFd(fd);

    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos)
        throw std::runtime_error("metrics response has no header end");
    if (response.compare(0, 12, "HTTP/1.0 200") != 0)
        throw std::runtime_error(
            format("metrics endpoint answered: {}",
                   response.substr(0, response.find('\r'))));
    return response.substr(split + 4);
}

} // namespace xbsp::obs
