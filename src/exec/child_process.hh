/**
 * @file
 * One supervised child process: spawn, watchdog wait, reap.
 *
 * The suite supervisor (supervisor.hh) runs each bench, and the
 * mc_serve daemon each isolated request (serve/worker.hh), in a child
 * forked here. The child has its own process group, so escalation
 * reaches any grandchildren, and a parent-death SIGKILL, so even a
 * SIGKILLed parent leaves no orphans. The wait blocks in poll(2) on a
 * pidfd of the child, so an exit is seen the moment it happens; the
 * 10 ms poll timeout only bounds how late a deadline, grace or stop
 * check runs (without pidfd_open the same loop sees an exit within one
 * timeout). It can drain the child's result pipe meanwhile, so a child
 * writing more than the pipe buffer never blocks. Completion follows
 * the pid, never the pipe's EOF: a sibling forked meanwhile may hold
 * the write end open. Classifying the status stays with the callers,
 * which read SIGKILL differently.
 */

#ifndef MC_EXEC_CHILD_PROCESS_HH
#define MC_EXEC_CHILD_PROCESS_HH

#include <functional>
#include <string>

#include <sys/types.h>

namespace mc {
namespace exec {

/** How a waited-for child ended. */
struct ChildExit
{
    int waitStatus = 0;         ///< the waitpid(2) status
    bool watchdogFired = false; ///< the deadline passed; SIGTERM was sent
    double durationSec = 0.0;   ///< wall-clock seconds, spawn to reap
};

class ChildProcess
{
  public:
    /**
     * Fork and run @p body in the child; it must exec or _exit (one
     * that returns exits exit_code::Failure). A child whose parent is
     * already gone exits exit_code::ExecFailed first. started() is
     * false when fork failed.
     */
    explicit ChildProcess(const std::function<void()> &body);

    /** SIGKILLs and reaps a child that wait() did not reap. */
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    bool started() const { return _pid > 0; }

    /**
     * Supervise the started child until it exits and reap it; call
     * once. SIGTERM the group @p deadline_sec after spawn (0 = never)
     * and SIGKILL it @p grace_sec later; SIGKILL it at once when
     * @p stop returns true. @p drain_fd (-1 = none) is made
     * nonblocking and read into @p drained until it reads EOF, and
     * once more after the reap.
     */
    ChildExit wait(double deadline_sec, double grace_sec,
                   const std::function<bool()> &stop = {},
                   int drain_fd = -1, std::string *drained = nullptr);

  private:
    double _startedAt = 0.0;
    pid_t _pid = -1;
    int _pidfd = -1;
    bool _reaped = false;
};

} // namespace exec
} // namespace mc

#endif // MC_EXEC_CHILD_PROCESS_HH
