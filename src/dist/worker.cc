#include "dist/worker.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <optional>

#include <poll.h>
#include <unistd.h>

#include "dist/stagerun.hh"
#include "dist/wire.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/socket.hh"

namespace xbsp::dist
{

namespace
{

std::atomic<bool> drainRequested{false};

void
onSigterm(int)
{
    drainRequested.store(true, std::memory_order_relaxed);
}

/**
 * XBSP_DIST_FAULT=kill-after:<n>: the number of tasks the worker
 * executes before it _exit(3)s on the next one; nullopt = no fault.
 */
std::optional<long>
parseKillAfter()
{
    const char* raw = std::getenv("XBSP_DIST_FAULT");
    if (!raw || !*raw)
        return std::nullopt;
    const std::string spec(raw);
    const std::string kind = "kill-after:";
    if (spec.rfind(kind, 0) != 0) {
        warn("dist: ignoring malformed XBSP_DIST_FAULT '{}'", spec);
        return std::nullopt;
    }
    return std::atol(spec.c_str() + kind.size());
}

/** Poll tick so the loop notices SIGTERM between frames. */
constexpr int idleTickMs = 200;

} // namespace

int
runWorker(const WorkerOptions& options)
{
    const std::string name =
        options.name.empty() ? format("worker-{}", ::getpid())
                             : options.name;
    const std::optional<long> killAfter = parseKillAfter();

    struct sigaction action{};
    action.sa_handler = onSigterm;
    ::sigaction(SIGTERM, &action, nullptr);

    int fd = -1;
    try {
        fd = net::connectTo(net::parseAddress(options.connect));
    } catch (const std::exception& e) {
        fatal("dist: {}", e.what());
    }

    Hello hello;
    hello.workerName = name;
    hello.cacheDir = store::ArtifactStore::global().enabled()
                         ? store::ArtifactStore::global().directory()
                         : "";
    if (!sendFrame(fd, frameHello(hello)))
        fatal("dist: handshake send failed");
    const std::optional<std::string> ackFrame = recvFrame(fd, 10'000);
    if (!ackFrame)
        fatal("dist: no HelloAck from server");
    try {
        serial::Decoder d(*ackFrame);
        if (decodeMsgType(d) != MsgType::HelloAck)
            throw serial::DecodeError("expected HelloAck");
        const HelloAck ack = decodeHelloAck(d);
        if (hello.cacheDir.empty()) {
            // Publish into the server's store; without a shared
            // cache directory remote execution cannot move results.
            store::ArtifactStore::configureGlobal(
                {ack.cacheDir, true});
        } else if (hello.cacheDir != ack.cacheDir) {
            warn("dist: worker cache dir '{}' differs from server "
                 "'{}'; artifacts will not be shared",
                 hello.cacheDir, ack.cacheDir);
        }
        inform("dist: {} connected to {} (cache {})", name,
               ack.serverName,
               store::ArtifactStore::global().directory());
    } catch (const serial::DecodeError& e) {
        fatal("dist: bad HelloAck: {}", e.what());
    }

    long executed = 0;
    int exitCode = 0;
    for (;;) {
        if (drainRequested.load(std::memory_order_relaxed)) {
            inform("dist: {} draining on SIGTERM", name);
            break;
        }
        // Wait for readability WITHOUT consuming, so an idle tick
        // never strands a half-read frame header; only once bytes
        // are pending does recvFrame take over (with its own
        // deadline against torn frames).
        pollfd pending{fd, POLLIN, 0};
        const int ready = ::poll(&pending, 1, idleTickMs);
        if (ready < 0 && errno != EINTR) {
            exitCode = 1;
            break;
        }
        if (ready <= 0)
            continue;  // idle tick or EINTR: recheck the drain flag
        const std::optional<std::string> frameData =
            recvFrame(fd, 10'000);
        if (!frameData) {
            inform("dist: {} lost server connection", name);
            exitCode = 1;
            break;
        }

        try {
            serial::Decoder d(*frameData);
            const MsgType type = decodeMsgType(d);
            if (type == MsgType::Shutdown) {
                inform("dist: {} shutting down on server request",
                       name);
                break;
            }
            if (type != MsgType::Task)
                throw serial::DecodeError("unexpected message type");
            const Task request = decodeTask(d);
            const StageTask stageTask =
                decodeStageTask(request.payload);

            if (killAfter && executed >= *killAfter)
                ::_exit(3);  // mid-protocol death

            TaskDone reply;
            reply.taskId = request.taskId;
            const auto begin = std::chrono::steady_clock::now();
            try {
                runStageTask(stageTask);
                reply.ok = true;
            } catch (const std::exception& e) {
                reply.ok = false;
                reply.error = e.what();
            }
            reply.busyNanos = static_cast<u64>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - begin)
                    .count());
            ++executed;
            if (!sendFrame(fd, frameTaskDone(reply))) {
                exitCode = 1;
                break;
            }
        } catch (const serial::DecodeError& e) {
            warn("dist: {} dropping malformed frame: {}", name,
                 e.what());
            exitCode = 1;
            break;
        }
    }

    net::closeFd(fd);
    return exitCode;
}

} // namespace xbsp::dist
