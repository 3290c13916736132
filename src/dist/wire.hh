/**
 * @file
 * Wire protocol of the distributed executor: length-prefixed frames
 * carrying util/serial-encoded messages over a stream socket.
 *
 * Frame layout (all little-endian, written by serial::Encoder):
 *
 *   fixed32 magic "XBSD" | fixed32 payload size | payload bytes
 *
 * The payload starts with a varint message type followed by the
 * message fields.  Artifacts never travel in frames: a worker
 * publishes its results through the shared ArtifactStore and replies
 * with a tiny TaskDone — the store is the data plane, the socket only
 * the control plane.  Framing or version violations throw
 * serial::DecodeError; the peer is then treated as dead (see
 * src/dist/executor).  sendFrame()/recvFrame() move frames over a
 * util/socket connection.
 *
 * Message inventory:
 *
 *   Hello        worker -> server   protocol version, worker name,
 *                                   the worker's cache dir ("" when
 *                                   unconfigured)
 *   HelloAck     server -> worker   protocol version, server name,
 *                                   the shared cache dir the worker
 *                                   must publish artifacts into
 *   Task         server -> worker   task id, single-flight spec key,
 *                                   opaque stage payload (see
 *                                   dist/stagerun)
 *   TaskDone     worker -> server   task id, ok/error, busy time
 *   Shutdown     server -> worker   drain and exit
 *   SuiteRequest client -> server   figures + study parameters
 *   SuiteResponse server -> client  rendered report (or error)
 */

#ifndef XBSP_DIST_WIRE_HH
#define XBSP_DIST_WIRE_HH

#include <optional>
#include <string>
#include <vector>

#include "util/serial.hh"

namespace xbsp::dist
{

/** Frame magic ("XBSD" = xbsp distributed). */
constexpr u32 frameMagic = serial::fourcc("XBSD");

/**
 * Protocol version; peers with a different version are rejected.
 * Version 2: SuiteRequest carries the timing-core selection and
 * StageTask's embedded StudyConfig grew the CoreConfig fields.
 * Version 3: that StudyConfig lost the clustering `accelerate` flag
 * and duplicate-merge quantum, so a version-2 peer would misread
 * every field after them.
 */
constexpr u32 protocolVersion = 3;

/** Largest accepted frame payload (a malformed length cannot OOM). */
constexpr u64 maxFrameBytes = 16ull * 1024 * 1024;

/** Message type discriminator (first varint of every payload). */
enum class MsgType : u64
{
    Hello = 1,
    HelloAck = 2,
    Task = 3,
    TaskDone = 4,
    Shutdown = 5,
    SuiteRequest = 6,
    SuiteResponse = 7
};

struct Hello
{
    u32 version = protocolVersion;
    std::string workerName;
    std::string cacheDir;
};

struct HelloAck
{
    u32 version = protocolVersion;
    std::string serverName;
    std::string cacheDir;
};

struct Task
{
    u64 taskId = 0;
    std::string specKey;   ///< store-key digest (single-flight id)
    std::string payload;   ///< opaque stage description
};

struct TaskDone
{
    u64 taskId = 0;
    bool ok = false;
    std::string error;     ///< "" when ok
    u64 busyNanos = 0;     ///< worker-side stage execution time
};

struct SuiteRequest
{
    std::vector<std::string> figures;    ///< "figure1".."figure5"
    std::vector<std::string> workloads;  ///< empty = full suite
    double workScale = 1.0;
    u64 intervalTarget = 250'000;
    u64 maxK = 10;
    u64 seed = 42;

    /**
     * Timing core ("inorder"/"decoupled"; "" = in-order).  `xbsp
     * submit` always sends its --core value, so the rendered report
     * never depends on the daemon.
     */
    std::string core;
};

struct SuiteResponse
{
    bool ok = false;
    std::string error;   ///< "" when ok
    std::string report;  ///< rendered figure tables
};

/** Encode one message as a complete frame (magic + size + payload). */
std::string frameHello(const Hello& m);
std::string frameHelloAck(const HelloAck& m);
std::string frameTask(const Task& m);
std::string frameTaskDone(const TaskDone& m);
std::string frameShutdown();
std::string frameSuiteRequest(const SuiteRequest& m);
std::string frameSuiteResponse(const SuiteResponse& m);

/**
 * Split one received frame payload into its type; the per-message
 * decoders below consume the rest of the decoder.  All throw
 * serial::DecodeError on malformed input.
 */
MsgType decodeMsgType(serial::Decoder& d);

Hello decodeHello(serial::Decoder& d);
HelloAck decodeHelloAck(serial::Decoder& d);
Task decodeTask(serial::Decoder& d);
TaskDone decodeTaskDone(serial::Decoder& d);
SuiteRequest decodeSuiteRequest(serial::Decoder& d);
SuiteResponse decodeSuiteResponse(serial::Decoder& d);

/** Write one pre-framed message; false on any socket error. */
bool sendFrame(int fd, const std::string& frame);

/**
 * Read one complete frame payload (header validated and stripped).
 * nullopt on EOF, on a deadline expiry (timeoutMs >= 0), once
 * `wakeFd` (when >= 0) turns readable, or on any socket or framing
 * error.
 */
std::optional<std::string> recvFrame(int fd, int timeoutMs = -1,
                                     int wakeFd = -1);

} // namespace xbsp::dist

#endif // XBSP_DIST_WIRE_HH
