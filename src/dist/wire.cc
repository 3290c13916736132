#include "dist/wire.hh"

#include "util/socket.hh"

namespace xbsp::dist
{

namespace
{

/** Wrap an encoded payload in the frame header. */
std::string
frame(serial::Encoder&& payload)
{
    serial::Encoder out;
    out.fixed32(frameMagic);
    out.fixed32(static_cast<u32>(payload.size()));
    const std::string body = payload.take();
    out.bytes(body.data(), body.size());
    return out.take();
}

void
checkVersion(u32 version)
{
    if (version != protocolVersion)
        throw serial::DecodeError(
            "protocol version " + std::to_string(version) + " != " +
            std::to_string(protocolVersion));
}

/** Read exactly `size` bytes; false on EOF, error, expiry or wake. */
bool
readExact(int fd, char* out, std::size_t size,
          const net::Deadline& deadline, int wakeFd)
{
    for (std::size_t off = 0; off < size;) {
        const ssize_t got =
            net::readSome(fd, out + off, size - off, deadline, wakeFd);
        if (got <= 0)
            return false;
        off += static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace

std::string
frameHello(const Hello& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::Hello));
    e.varint(m.version);
    e.str(m.workerName);
    e.str(m.cacheDir);
    return frame(std::move(e));
}

std::string
frameHelloAck(const HelloAck& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::HelloAck));
    e.varint(m.version);
    e.str(m.serverName);
    e.str(m.cacheDir);
    return frame(std::move(e));
}

std::string
frameTask(const Task& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::Task));
    e.varint(m.taskId);
    e.str(m.specKey);
    e.str(m.payload);
    return frame(std::move(e));
}

std::string
frameTaskDone(const TaskDone& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::TaskDone));
    e.varint(m.taskId);
    e.boolean(m.ok);
    e.str(m.error);
    e.varint(m.busyNanos);
    return frame(std::move(e));
}

std::string
frameShutdown()
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::Shutdown));
    return frame(std::move(e));
}

std::string
frameSuiteRequest(const SuiteRequest& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::SuiteRequest));
    e.varint(m.figures.size());
    for (const std::string& f : m.figures)
        e.str(f);
    e.varint(m.workloads.size());
    for (const std::string& w : m.workloads)
        e.str(w);
    e.f64(m.workScale);
    e.varint(m.intervalTarget);
    e.varint(m.maxK);
    e.varint(m.seed);
    e.str(m.core);
    return frame(std::move(e));
}

std::string
frameSuiteResponse(const SuiteResponse& m)
{
    serial::Encoder e;
    e.varint(static_cast<u64>(MsgType::SuiteResponse));
    e.boolean(m.ok);
    e.str(m.error);
    e.str(m.report);
    return frame(std::move(e));
}

MsgType
decodeMsgType(serial::Decoder& d)
{
    const u64 type = d.varint();
    switch (static_cast<MsgType>(type)) {
      case MsgType::Hello:
      case MsgType::HelloAck:
      case MsgType::Task:
      case MsgType::TaskDone:
      case MsgType::Shutdown:
      case MsgType::SuiteRequest:
      case MsgType::SuiteResponse:
        return static_cast<MsgType>(type);
    }
    throw serial::DecodeError("unknown message type " +
                              std::to_string(type));
}

Hello
decodeHello(serial::Decoder& d)
{
    Hello m;
    m.version = static_cast<u32>(d.varint());
    checkVersion(m.version);
    m.workerName = d.str();
    m.cacheDir = d.str();
    d.expectEnd();
    return m;
}

HelloAck
decodeHelloAck(serial::Decoder& d)
{
    HelloAck m;
    m.version = static_cast<u32>(d.varint());
    checkVersion(m.version);
    m.serverName = d.str();
    m.cacheDir = d.str();
    d.expectEnd();
    return m;
}

Task
decodeTask(serial::Decoder& d)
{
    Task m;
    m.taskId = d.varint();
    m.specKey = d.str();
    m.payload = d.str();
    d.expectEnd();
    return m;
}

TaskDone
decodeTaskDone(serial::Decoder& d)
{
    TaskDone m;
    m.taskId = d.varint();
    m.ok = d.boolean();
    m.error = d.str();
    m.busyNanos = d.varint();
    d.expectEnd();
    return m;
}

SuiteRequest
decodeSuiteRequest(serial::Decoder& d)
{
    SuiteRequest m;
    const u64 figures = d.arrayCount();
    m.figures.reserve(static_cast<std::size_t>(figures));
    for (u64 i = 0; i < figures; ++i)
        m.figures.push_back(d.str());
    const u64 workloads = d.arrayCount();
    m.workloads.reserve(static_cast<std::size_t>(workloads));
    for (u64 i = 0; i < workloads; ++i)
        m.workloads.push_back(d.str());
    m.workScale = d.f64();
    m.intervalTarget = d.varint();
    m.maxK = d.varint();
    m.seed = d.varint();
    m.core = d.str();
    d.expectEnd();
    return m;
}

SuiteResponse
decodeSuiteResponse(serial::Decoder& d)
{
    SuiteResponse m;
    m.ok = d.boolean();
    m.error = d.str();
    m.report = d.str();
    d.expectEnd();
    return m;
}

bool
sendFrame(int fd, const std::string& frame)
{
    return net::sendAll(fd, frame);
}

std::optional<std::string>
recvFrame(int fd, int timeoutMs, int wakeFd)
{
    const net::Deadline deadline = net::deadlineIn(timeoutMs);
    char header[8];
    if (!readExact(fd, header, sizeof(header), deadline, wakeFd))
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
    if (!readExact(fd, payload.data(), payload.size(), deadline, wakeFd))
        return std::nullopt;
    return payload;
}

} // namespace xbsp::dist
