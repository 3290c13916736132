#include "dist/server.hh"

#include <algorithm>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "cpu/core.hh"
#include "dist/stagerun.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

namespace xbsp::dist
{

harness::ExperimentConfig
suiteConfig(const SuiteRequest& request)
{
    harness::ExperimentConfig config;
    config.workloads = request.workloads;
    config.workScale = request.workScale;
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = request.intervalTarget;
    // maxK travels as a u64 varint; narrowing it silently would run
    // 2^32 + 10 as k = 10.
    if (request.maxK == 0 ||
        request.maxK > std::numeric_limits<u32>::max()) {
        throw std::runtime_error(
            format("maxK must be between 1 and {}, got {}",
                   std::numeric_limits<u32>::max(), request.maxK));
    }
    config.study.simpoint.maxK = static_cast<u32>(request.maxK);
    config.study.simpoint.seed = request.seed;
    if (!request.core.empty()) {
        const auto kind = cpu::parseCoreKind(request.core);
        if (!kind) {
            throw std::runtime_error("unknown core '" + request.core +
                                     "' (want inorder|decoupled)");
        }
        config.study.core = cpu::coreConfigFor(*kind);
    }
    // The report is the deliverable; progress chatter stays off so
    // serve-mode and --local runs print through one code path only.
    config.verbose = false;
    return config;
}

void
enableRemote(harness::ExperimentConfig& config,
             pipeline::RemoteBackend* backend)
{
    config.remote = backend;
    // Capture the study parameterization by value: every spec the
    // graph wiring asks for later describes exactly this config.
    const sim::StudyConfig study = config.study;
    const double scale = config.workScale;
    config.remoteSpec = [study, scale](const std::string& workload,
                                       const std::string& stage,
                                       std::size_t index) {
        StageTask task;
        task.workload = workload;
        task.workScale = scale;
        task.config = study;
        task.stage = stage;
        task.index = index;
        return pipeline::RemoteSpec{stageTaskKey(task),
                                    encodeStageTask(task)};
    };
}

namespace
{

Table
renderFigure(harness::ExperimentSuite& suite, const std::string& name,
             const harness::ExperimentConfig& config)
{
    if (name == "table1")
        return harness::ExperimentSuite::table1(config.study.memory);
    if (name == "figure1")
        return suite.figure1();
    if (name == "figure2")
        return suite.figure2();
    if (name == "figure3")
        return suite.figure3();
    if (name == "figure4")
        return suite.figure4();
    if (name == "figure5")
        return suite.figure5();
    if (name == "table2")
        return suite.table2();
    if (name == "table3")
        return suite.table3();
    if (name == "mappability")
        return suite.mappabilityReport();
    throw std::runtime_error(format("unknown figure '{}'", name));
}

/**
 * Whether `figure` reads detailed timing: the CPI and speedup errors
 * of figures 3-5 and the phase tables.  Table 1, figures 1-2 and the
 * mappability report do not.
 */
bool
readsTiming(const std::string& figure)
{
    return figure == "figure3" || figure == "figure4" ||
           figure == "figure5" || figure == "table2" ||
           figure == "table3";
}

} // namespace

std::string
renderSuiteReport(const SuiteRequest& request,
                  pipeline::RemoteBackend* backend)
{
    harness::ExperimentConfig config = suiteConfig(request);
    // Validate up front with a catchable error: the harness treats
    // unknown workloads as fatal(), which would take the daemon down
    // with the request.
    for (const std::string& workload : config.workloads) {
        if (!workloads::findWorkload(workload))
            throw std::runtime_error(
                format("unknown workload '{}'", workload));
    }
    const std::vector<std::string> figures =
        request.figures.empty()
            ? std::vector<std::string>{"figure3"}
            : request.figures;
    // Timing is the suite's dominant cost; run it only when a
    // requested figure reads it (the remote specs capture the flag).
    config.study.detailed =
        std::any_of(figures.begin(), figures.end(), readsTiming);
    if (backend)
        enableRemote(config, backend);
    harness::ExperimentSuite suite(config);
    std::ostringstream os;
    for (const std::string& name : figures) {
        renderFigure(suite, name, config).print(os);
        os << "\n";
    }
    return os.str();
}

Server::Server(ServerOptions options)
    : opts(std::move(options)),
      serverName(opts.name.empty() ? format("serve-{}", ::getpid())
                                   : opts.name),
      acceptor(opts.unixPath, opts.tcpPort),
      exec(opts.taskTimeoutMs, opts.maxRetries)
{
    if (!store::ArtifactStore::global().enabled())
        fatal("xbsp serve needs an artifact store (--cache-dir or "
              "XBSP_CACHE_DIR): workers publish results through it");
}

Server::~Server()
{
    stop();
    std::lock_guard lock(handlersMutex);
    for (Handler& handler : handlers) {
        if (handler.thread.joinable())
            handler.thread.join();
    }
}

void
Server::reapFinishedHandlers()
{
    std::erase_if(handlers, [](Handler& handler) {
        if (!handler.done->load(std::memory_order_acquire))
            return false;
        if (handler.thread.joinable())
            handler.thread.join();
        return true;
    });
}

void
Server::serve()
{
    if (!opts.unixPath.empty())
        inform("dist: {} listening on unix:{}", serverName,
               opts.unixPath);
    if (opts.tcpPort >= 0)
        inform("dist: {} listening on tcp:{}", serverName,
               boundPort());
    for (;;) {
        const int fd = acceptor.accept();
        if (fd < 0)
            break;  // stop() or listener failure
        std::lock_guard lock(handlersMutex);
        if (stopping.load(std::memory_order_relaxed)) {
            net::closeFd(fd);
            break;
        }
        // A long-lived daemon serves unbounded requests; reap the
        // threads of finished ones instead of hoarding them until
        // serve() exits.
        reapFinishedHandlers();
        auto done = std::make_shared<std::atomic<bool>>(false);
        Handler handler;
        handler.done = done;
        handler.thread = std::thread([this, fd, done] {
            handleConnection(fd);
            done->store(true, std::memory_order_release);
        });
        handlers.push_back(std::move(handler));
    }
    // Loop over: settle clients, then drain workers.
    {
        std::lock_guard lock(handlersMutex);
        for (Handler& handler : handlers) {
            if (handler.thread.joinable())
                handler.thread.join();
        }
        handlers.clear();
    }
    exec.drain();
    inform("dist: {} stopped", serverName);
}

void
Server::stop()
{
    stopping.store(true, std::memory_order_relaxed);
    acceptor.stop();
}

void
Server::handleConnection(int fd)
{
    // stop() cuts the wait short: a peer that connects and stays
    // silent must not hold up the drain in serve().
    const std::optional<std::string> first =
        recvFrame(fd, 10'000, acceptor.wakeFd());
    if (!first) {
        net::closeFd(fd);
        return;
    }
    try {
        serial::Decoder d(*first);
        const MsgType type = decodeMsgType(d);
        if (type == MsgType::Hello) {
            const Hello hello = decodeHello(d);
            HelloAck ack;
            ack.serverName = serverName;
            ack.cacheDir = store::ArtifactStore::global().directory();
            if (!sendFrame(fd, frameHelloAck(ack))) {
                net::closeFd(fd);
                return;
            }
            inform("dist: worker {} joined", hello.workerName);
            exec.addWorker(fd, hello.workerName);
            return;  // the executor owns the fd now
        }
        if (type == MsgType::SuiteRequest) {
            handleSuite(fd, decodeSuiteRequest(d));
            net::closeFd(fd);
            return;
        }
        throw serial::DecodeError("unexpected first message");
    } catch (const serial::DecodeError& e) {
        warn("dist: rejecting connection: {}", e.what());
        net::closeFd(fd);
    }
}

void
Server::handleSuite(int fd, const SuiteRequest& request)
{
    inform("dist: suite request ({} figure(s), {} workload(s), "
           "scale {}) with {} worker(s)",
           request.figures.empty() ? 1 : request.figures.size(),
           request.workloads.size(), request.workScale,
           exec.workerCount());
    SuiteResponse response;
    try {
        response.report = renderSuiteReport(request, &exec);
        response.ok = true;
    } catch (const std::exception& e) {
        response.ok = false;
        response.error = e.what();
        warn("dist: suite request failed: {}", e.what());
    }
    sendFrame(fd, frameSuiteResponse(response));
}

} // namespace xbsp::dist
