#include "spawn.hh"

#include <cstdlib>

#include <sys/wait.h>
#include <unistd.h>

namespace xbsp::test
{

int
spawnProcess(const std::vector<std::string>& argv,
             const std::vector<std::string>& extraEnv)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid > 0)
        return static_cast<int>(pid);

    // Child.  Only async-signal-unsafe work left is setenv/execv;
    // acceptable because the parent is single-purpose test
    // scaffolding, not a general-purpose threaded host.
    for (const std::string& entry : extraEnv) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos)
            continue;
        ::setenv(entry.substr(0, eq).c_str(),
                 entry.substr(eq + 1).c_str(), 1);
    }
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv)
        args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
}

int
waitProcess(int pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

} // namespace xbsp::test
