#include "worker.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <memory>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "exec/supervisor.hh"

namespace mc {
namespace serve {

namespace {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Kill the worker's whole process group, falling back to the pid. */
void
killGroup(pid_t pid, int signo)
{
    if (::kill(-pid, signo) != 0)
        ::kill(pid, signo);
}

/** Nonblocking drain of @p fd into @p buffer; true on EOF. */
bool
drainPipe(int fd, std::string &buffer)
{
    char chunk[4096];
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
        return false; // EAGAIN (or an error treated as "not EOF yet")
    }
}

/** Extract the single result frame from the drained pipe bytes;
 *  nullopt when the frame is missing or torn. */
std::optional<std::string>
extractFrame(const std::string &buffer)
{
    if (buffer.size() < 4)
        return std::nullopt;
    const auto *p = reinterpret_cast<const unsigned char *>(buffer.data());
    const std::uint32_t size = (std::uint32_t(p[0]) << 24) |
                               (std::uint32_t(p[1]) << 16) |
                               (std::uint32_t(p[2]) << 8) |
                               std::uint32_t(p[3]);
    if (size > kMaxFrameBytes || buffer.size() < 4 + std::size_t(size))
        return std::nullopt;
    return buffer.substr(4, size);
}

[[noreturn]] void
workerChild(int result_fd, const ServeRequest &request,
            const EngineOptions &engine)
{
    // Mirror the supervisor's child setup: own group so escalation
    // reaches any descendants, die with the daemon so a SIGKILLed
    // daemon leaves no orphan simulations behind.
    ::setpgid(0, 0);
#if defined(__linux__)
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1)
        ::_exit(exit_code::ExecFailed);
#endif
    // The daemon's shared plan cache cannot cross the fork: another
    // slot's thread may hold its mutex inside findOrCompute, and no
    // thread here would ever release it. Plans are a pure function of
    // the request, so a private cache changes no payload byte.
    EngineOptions own = engine;
    own.planCache = std::make_shared<blas::PlanCache>();
    auto payload = executePayload(request, own);
    const std::string frame =
        payload.isOk() ? okResponse(request.id, payload.value())
                       : errorResponse(request.id, payload.status());
    // A failed pipe write (parent already gave up on us) is its own
    // Unavailable on the parent side; nothing useful to do here.
    (void)writeFrame(result_fd, frame);
    ::_exit(exit_code::Ok);
}

} // namespace

ErrorCode
classifyWorkerExit(int wait_status, bool watchdog_fired)
{
    if (WIFSIGNALED(wait_status) && !watchdog_fired &&
        WTERMSIG(wait_status) == SIGKILL) {
        // The suite supervisor reads SIGKILL as the OOM killer
        // (machine-wide ResourceExhausted); for a serving daemon the
        // request-level truth is "my worker was shot out from under
        // me" — the service and every other request are fine, so this
        // one degrades to retriable Unavailable.
        return ErrorCode::Unavailable;
    }
    return exec::classifyWaitStatus(wait_status, watchdog_fired);
}

Result<JsonValue>
runInWorker(const ServeRequest &request, const WorkerOptions &options)
{
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return Status::resourceExhausted("cannot allocate a worker pipe");

    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(pipe_fds[0]);
        workerChild(pipe_fds[1], request, options.engine);
    }
    ::close(pipe_fds[1]);
    if (pid < 0) {
        ::close(pipe_fds[0]);
        return Status::resourceExhausted("cannot fork a worker process");
    }
    ::setpgid(pid, pid);
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);

    // The supervisor's watchdog loop, plus pipe draining: reading while
    // waiting keeps a worker with a payload larger than the pipe buffer
    // from blocking forever on write (which the watchdog would then
    // misread as a hang).
    std::string buffer;
    int wait_status = 0;
    bool watchdog_fired = false;
    bool term_sent = false;
    bool kill_sent = false;
    double term_sent_at = 0.0;
    const double started = monotonicSeconds();
    for (;;) {
        drainPipe(pipe_fds[0], buffer);
        const pid_t r = ::waitpid(pid, &wait_status, WNOHANG);
        if (r == pid)
            break;
        const double now = monotonicSeconds();
        if (options.deadlineSec > 0.0 &&
            now - started > options.deadlineSec && !term_sent) {
            watchdog_fired = true;
            killGroup(pid, SIGTERM);
            term_sent = true;
            term_sent_at = now;
        } else if (term_sent && !kill_sent &&
                   now - term_sent_at > options.graceSec) {
            killGroup(pid, SIGKILL);
            kill_sent = true;
        }
        struct timespec ts{0, 10 * 1000 * 1000}; // 10 ms
        ::nanosleep(&ts, nullptr);
    }
    // Everything the child wrote before exiting is still in the pipe.
    drainPipe(pipe_fds[0], buffer);
    ::close(pipe_fds[0]);

    const ErrorCode code = classifyWorkerExit(wait_status, watchdog_fired);
    const std::optional<std::string> frame = extractFrame(buffer);
    if (code == ErrorCode::Ok && frame) {
        auto response = parseResponse(*frame);
        if (!response.isOk())
            return response.status();
        if (response.value().code == ErrorCode::Ok)
            return response.value().payload;
        return Status(response.value().code, response.value().error);
    }
    switch (code) {
      case ErrorCode::Ok:
        // Exit 0 but the result frame is missing or torn: the worker
        // lost its result, which no retry of the same daemon state is
        // guaranteed to fix — a bug, not a degradation.
        return Status::internal("worker exited without a result frame");
      case ErrorCode::DeadlineExceeded:
        return Status::deadlineExceeded(
            "worker overran its wall-clock deadline");
      case ErrorCode::Unavailable:
        return Status::unavailable("worker was terminated");
      case ErrorCode::Internal:
        return Status::internal("worker crashed");
      default:
        return Status(code, "worker failed");
    }
}

} // namespace serve
} // namespace mc
