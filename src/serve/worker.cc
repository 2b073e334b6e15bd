#include "worker.hh"

#include <csignal>
#include <memory>
#include <optional>

#include <sys/wait.h>
#include <unistd.h>

#include "exec/child_process.hh"
#include "exec/supervisor.hh"

namespace mc {
namespace serve {

namespace {

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

    exec::ChildProcess child([&] {
        ::close(pipe_fds[0]);
        workerChild(pipe_fds[1], request, options.engine);
    });
    ::close(pipe_fds[1]);
    if (!child.started()) {
        ::close(pipe_fds[0]);
        return Status::resourceExhausted("cannot fork a worker process");
    }
    std::string buffer;
    const exec::ChildExit ended = child.wait(
        options.deadlineSec, options.graceSec, {}, pipe_fds[0], &buffer);
    ::close(pipe_fds[0]);

    const ErrorCode code =
        classifyWorkerExit(ended.waitStatus, ended.watchdogFired);
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
