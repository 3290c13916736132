#include "dist/executor.hh"

#include <sys/socket.h>

#include "dist/wire.hh"
#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/socket.hh"

namespace xbsp::dist
{

namespace
{

obs::Counter
counter(const char* name)
{
    return obs::StatRegistry::global().counter(name);
}

} // namespace

Executor::Executor(int taskTimeoutMs, int maxRetries)
    : taskTimeoutMs(taskTimeoutMs), maxRetries(maxRetries)
{
}

Executor::~Executor()
{
    drain();
}

void
Executor::addWorker(int fd, const std::string& workerName)
{
    {
        std::lock_guard lock(mutex);
        if (stopping) {
            net::closeFd(fd);
            return;
        }
        workerFds.push_back(fd);
        ++liveWorkers;
        // Under the lock: the server's handler threads adopt workers
        // concurrently.
        threads.emplace_back(
            [this, fd, workerName] { serviceWorker(fd, workerName); });
    }
    counter("dist.workers.connected").add();
}

std::size_t
Executor::workerCount() const
{
    std::lock_guard lock(mutex);
    return liveWorkers;
}

void
Executor::submit(const pipeline::RemoteSpec& spec, DoneFn done)
{
    {
        std::unique_lock lock(mutex);
        if (!stopping && liveWorkers > 0) {
            counter("dist.tasks.submitted").add();
            auto it = flights.find(spec.key);
            if (it != flights.end()) {
                // Identical stage already queued or flying: join it.
                counter("dist.tasks.coalesced").add();
                it->second.callbacks.push_back(std::move(done));
                return;
            }
            Flight flight;
            flight.key = spec.key;
            flight.payload = spec.payload;
            flight.callbacks.push_back(std::move(done));
            flights.emplace(spec.key, std::move(flight));
            queue.push_back(spec.key);
            lock.unlock();
            workAvailable.notify_one();
            return;
        }
    }
    // No workers (or draining): fail fast so the scheduler falls
    // back to its local pool without waiting on a deadline.
    counter("dist.tasks.failed").add();
    done(false, {});
}

void
Executor::settle(Flight&& flight, bool ok,
                 const std::string& workerName)
{
    for (DoneFn& callback : flight.callbacks)
        callback(ok, workerName);
}

void
Executor::requeueOrFail(Flight&& flight)
{
    // Caller holds no lock.  The flight was removed from `flights`
    // by the caller; decide its fate under the lock, fire callbacks
    // outside it.
    bool retry = false;
    {
        std::lock_guard lock(mutex);
        if (!stopping && liveWorkers > 0 &&
            flight.retries < maxRetries) {
            ++flight.retries;
            retry = true;
            queue.push_front(flight.key);
            flights.emplace(flight.key, std::move(flight));
        }
    }
    if (retry) {
        counter("dist.tasks.retries").add();
        workAvailable.notify_one();
        return;
    }
    counter("dist.tasks.failed").add();
    settle(std::move(flight), false, {});
}

void
Executor::serviceWorker(int fd, std::string workerName)
{
    for (;;) {
        std::string key;
        std::string payload;
        u64 taskId = 0;
        {
            std::unique_lock lock(mutex);
            workAvailable.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (stopping)
                return;
            key = std::move(queue.front());
            queue.pop_front();
            auto it = flights.find(key);
            if (it == flights.end())
                continue;  // settled while queued (drain race)
            taskId = nextTaskId++;
            payload = it->second.payload;
        }

        bool dead = false;
        bool ok = false;
        if (!sendFrame(fd, frameTask({taskId, key, payload}))) {
            dead = true;
        } else {
            const std::optional<std::string> reply =
                recvFrame(fd, taskTimeoutMs);
            if (!reply) {
                dead = true;  // death, or a deadline blown == death
            } else {
                try {
                    serial::Decoder d(*reply);
                    if (decodeMsgType(d) != MsgType::TaskDone)
                        throw serial::DecodeError("expected TaskDone");
                    const TaskDone done = decodeTaskDone(d);
                    if (done.taskId != taskId)
                        throw serial::DecodeError("task id mismatch");
                    ok = done.ok;
                    if (!ok && !done.error.empty())
                        warn("dist: worker {} failed stage: {}",
                             workerName, done.error);
                } catch (const serial::DecodeError&) {
                    dead = true;
                }
            }
        }

        // Pull the flight back out; it may already be gone if drain
        // swept it while we were blocked on the socket.
        Flight flight;
        bool haveFlight = false;
        {
            std::lock_guard lock(mutex);
            auto it = flights.find(key);
            if (it != flights.end()) {
                flight = std::move(it->second);
                flights.erase(it);
                haveFlight = true;
            }
        }

        if (!dead) {
            counter(ok ? "dist.tasks.completed"
                       : "dist.tasks.failed")
                .add();
            if (haveFlight)
                settle(std::move(flight), ok, workerName);
            continue;
        }

        // Worker death: retire this connection, give the task back.
        counter("dist.workers.lost").add();
        std::vector<Flight> orphans;
        bool ownClose = false;
        {
            std::lock_guard lock(mutex);
            --liveWorkers;
            // Whoever removes the fd from workerFds owns the close.
            // If drain() already claimed the whole set, it is still
            // writing Shutdown/shutdown(2) to this fd and will close
            // it after joining us — closing here would race a reused
            // fd number.
            ownClose = std::erase(workerFds, fd) > 0;
            if (liveWorkers == 0 && !stopping) {
                // Nobody left to run the queue: fail it all now so
                // the scheduler's pool fallback proceeds.
                for (auto& [flightKey, queued] : flights)
                    orphans.push_back(std::move(queued));
                flights.clear();
                queue.clear();
            }
        }
        if (ownClose)
            net::closeFd(fd);
        if (haveFlight)
            requeueOrFail(std::move(flight));
        for (Flight& orphan : orphans) {
            counter("dist.tasks.failed").add();
            settle(std::move(orphan), false, {});
        }
        return;
    }
}

void
Executor::drain()
{
    std::vector<Flight> orphans;
    std::vector<int> fds;
    std::vector<std::thread> ioThreads;
    {
        std::lock_guard lock(mutex);
        if (stopping && threads.empty())
            return;
        stopping = true;
        ioThreads = std::move(threads);
        threads.clear();
        // Claim every live fd: once out of workerFds, a service
        // thread that detects its worker's death will not close it
        // (see serviceWorker), so writing to these outside the lock
        // cannot hit a closed-and-reused descriptor.
        fds = std::move(workerFds);
        workerFds.clear();
        for (auto& [key, flight] : flights)
            orphans.push_back(std::move(flight));
        flights.clear();
        queue.clear();
    }
    workAvailable.notify_all();
    for (const int fd : fds) {
        sendFrame(fd, frameShutdown());
        // Wake any thread parked in recvFrame; plain close() does
        // not reliably interrupt poll() on the same fd.
        ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : ioThreads)
        t.join();
    // Claimed fds close only after every service thread is gone.
    for (const int fd : fds)
        net::closeFd(fd);
    {
        std::lock_guard lock(mutex);
        liveWorkers = 0;
    }
    for (Flight& orphan : orphans) {
        counter("dist.tasks.failed").add();
        settle(std::move(orphan), false, {});
    }
}

} // namespace xbsp::dist
