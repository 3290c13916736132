/**
 * @file
 * Worker process loop behind `xbsp work`: connect to a serve daemon,
 * handshake, and execute StageTasks until told to stop.
 *
 * The worker's only output channel is the shared ArtifactStore — the
 * handshake hands it the server's cache directory (adopted when the
 * worker has none of its own), every runStageTask publishes through
 * it, and the TaskDone reply carries just ok/error/busy-time.
 *
 * Fault injection (tests and the CI smoke job): with the environment
 * variable XBSP_DIST_FAULT=kill-after:<n> the worker executes n
 * tasks normally, then _exit(3)s on the next one (mid-protocol
 * death; the server must requeue the task).
 *
 * SIGTERM requests a graceful drain: the current task finishes and
 * its TaskDone is sent before the loop exits.
 */

#ifndef XBSP_DIST_WORKER_HH
#define XBSP_DIST_WORKER_HH

#include <string>

namespace xbsp::dist
{

/** Options for runWorker (CLI flags of `xbsp work`). */
struct WorkerOptions
{
    std::string connect;     ///< address spec ("unix:..."/"tcp:...")
    std::string name;        ///< self-reported identity ("" = pid)
};

/**
 * Run the worker loop until the server shuts us down, the connection
 * drops, or SIGTERM drains us.  Returns the process exit code.
 */
int runWorker(const WorkerOptions& options);

} // namespace xbsp::dist

#endif // XBSP_DIST_WORKER_HH
