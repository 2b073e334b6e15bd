#include "child_process.hh"

#include <cerrno>
#include <chrono>
#include <csignal>

#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/logging.hh"
#include "common/status.hh"

namespace mc {
namespace exec {

namespace {

/** Poll timeout: the most a deadline, grace or stop check runs late. */
constexpr int kTickMs = 10;

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Kill @p pid's whole process group, falling back to the pid alone. */
void
killGroup(pid_t pid, int signo)
{
    if (::kill(-pid, signo) != 0)
        ::kill(pid, signo);
}

/** A pidfd of @p pid, or -1. Through syscall(2): glibc 2.36's
 *  <sys/pidfd.h> lacks extern "C" under C++ and does not link. */
int
openPidfd(pid_t pid)
{
#if defined(SYS_pidfd_open)
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    (void)pid;
    return -1;
#endif
}

/** Nonblocking drain of @p fd into @p buffer; true on EOF or a read
 *  error, after which the fd has nothing more to give. */
bool
drainFd(int fd, std::string &buffer)
{
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return true;
        if (errno == EINTR)
            continue;
        return errno != EAGAIN && errno != EWOULDBLOCK;
    }
}

} // namespace

ChildProcess::ChildProcess(const std::function<void()> &body)
    : _startedAt(monotonicSeconds())
{
    const pid_t parent = ::getpid();
    _pid = ::fork();
    if (_pid == 0) {
        ::setpgid(0, 0);
#if defined(__linux__)
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(exit_code::ExecFailed); // parent already gone
#endif
        body();
        ::_exit(exit_code::Failure);
    }
    if (_pid < 0)
        return;
    // Also set the group from the parent: whichever side wins the race,
    // the group exists before anyone signals it.
    ::setpgid(_pid, _pid);
    _pidfd = openPidfd(_pid);
}

ChildProcess::~ChildProcess()
{
    if (started() && !_reaped) {
        killGroup(_pid, SIGKILL);
        while (::waitpid(_pid, nullptr, 0) < 0 && errno == EINTR) {
        }
    }
    if (_pidfd >= 0)
        ::close(_pidfd);
}

ChildExit
ChildProcess::wait(double deadline_sec, double grace_sec,
                   const std::function<bool()> &stop, int drain_fd,
                   std::string *drained)
{
    mc_assert(started() && !_reaped, "wait() needs an unreaped child");
    mc_assert(drain_fd < 0 || drained, "a drained fd needs a buffer");
    if (drain_fd >= 0)
        ::fcntl(drain_fd, F_SETFL, ::fcntl(drain_fd, F_GETFL) | O_NONBLOCK);

    // poll() skips negative fds: without a pidfd, or once the drained
    // fd reads EOF, the same loop runs with fewer fds to wake it.
    struct pollfd fds[2] = {{_pidfd, POLLIN, 0}, {drain_fd, POLLIN, 0}};
    ChildExit ended;
    bool term_sent = false;
    bool kill_sent = false;
    double term_sent_at = 0.0;
    for (;;) {
        if (fds[1].fd >= 0 && drainFd(fds[1].fd, *drained))
            fds[1].fd = -1;
        if (::waitpid(_pid, &ended.waitStatus, WNOHANG) == _pid)
            break;
        const double now = monotonicSeconds();
        if (!kill_sent && stop && stop()) {
            killGroup(_pid, SIGKILL);
            kill_sent = true;
        } else if (deadline_sec > 0.0 && !term_sent &&
                   now - _startedAt > deadline_sec) {
            ended.watchdogFired = true;
            killGroup(_pid, SIGTERM);
            term_sent = true;
            term_sent_at = now;
        } else if (term_sent && !kill_sent &&
                   now - term_sent_at > grace_sec) {
            // The child ignored SIGTERM past the grace period.
            killGroup(_pid, SIGKILL);
            kill_sent = true;
        }
        ::poll(fds, 2, kTickMs);
    }
    _reaped = true;
    ended.durationSec = monotonicSeconds() - _startedAt;
    // Everything the child wrote before it exited is in the fd now.
    if (fds[1].fd >= 0)
        drainFd(fds[1].fd, *drained);
    return ended;
}

} // namespace exec
} // namespace mc
