/**
 * @file
 * Minimal child-process helper for tests that need real
 * multi-process topology (an `xbsp work` fleet, a codec round-trip
 * helper): fork/exec with per-child environment additions, and wait.
 * Not a general process library — no pipes, no pgids.
 */

#ifndef XBSP_TEST_SPAWN_HH
#define XBSP_TEST_SPAWN_HH

#include <string>
#include <vector>

namespace xbsp::test
{

/**
 * Fork and exec `argv[0]` with the given arguments; `extraEnv`
 * ("NAME=value") entries are added to the child's environment.
 * Returns the child pid, or -1 when the fork failed (an exec failure
 * surfaces as exit code 127 from waitProcess instead).
 */
int spawnProcess(const std::vector<std::string>& argv,
                 const std::vector<std::string>& extraEnv = {});

/**
 * Wait for `pid`; returns its exit code, 128+signal when it died on
 * a signal, or -1 on wait failure.
 */
int waitProcess(int pid);

} // namespace xbsp::test

#endif // XBSP_TEST_SPAWN_HH
