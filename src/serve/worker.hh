/**
 * @file
 * Supervised worker processes for the mc_serve daemon.
 *
 * A request that can take a process down — chaos modes by design,
 * fault-injected requests by assumption — must not take the *daemon*
 * down. runInWorker executes the request's payload in a forked child
 * on exec::ChildProcess, the suite supervisor's primitive (own process
 * group, parent-death SIGKILL, SIGTERM -> SIGKILL escalation; the wait
 * wakes on the child's pidfd, so an exited worker is reaped at once),
 * and maps the child's fate into the ErrorCode taxonomy: the daemon's
 * degradation ladder (docs/SERVING.md) is exactly this classification.
 *
 * The child streams its result back over a pipe using the same
 * length-prefixed frame as the wire protocol, enveloped by
 * okResponse/errorResponse — one framing for sockets and pipes. The
 * parent drains the pipe *inside* the watchdog wait, so a worker
 * writing a large payload can never deadlock against a parent that
 * only reads after reaping.
 */

#ifndef MC_SERVE_WORKER_HH
#define MC_SERVE_WORKER_HH

#include "serve/engine.hh"
#include "serve/protocol.hh"

namespace mc {
namespace serve {

/** Supervision knobs of one worker run. */
struct WorkerOptions
{
    /** Wall-clock watchdog: a worker running longer is SIGTERMed (then
     *  SIGKILLed after graceSec) and the request degrades to
     *  DeadlineExceeded. This is real time, unlike the request's
     *  simulated-time deadlineSec, because a hung worker burns no
     *  simulated time at all. */
    double deadlineSec = 60.0;
    /** Grace between SIGTERM and SIGKILL. */
    double graceSec = 2.0;
    /** Execution environment handed to the child's executePayload;
     *  the child swaps planCache for a private one (a shared cache's
     *  mutex may be held by another daemon thread at fork time). */
    EngineOptions engine;
};

/**
 * Execute @p request's payload in a supervised child process.
 *
 * The degradation ladder, in classification order:
 *
 *  - child exits 0 with a complete result frame: the frame's verdict
 *    (Ok payload, or the classified error executePayload produced);
 *  - watchdog fired (hung or overlong worker): DeadlineExceeded;
 *  - killed by SIGKILL: Unavailable (something outside the request
 *    force-killed the worker; the daemon and every other request are
 *    unaffected, and a retry may well succeed);
 *  - SIGTERM / SIGINT / SIGHUP: Unavailable (interrupted);
 *  - any other signal (SIGSEGV, SIGABRT, ...): Internal (crashed);
 *  - nonzero exit: the exit-code contract of docs/RESILIENCE.md
 *    (errorCodeForExitStatus);
 *  - exit 0 with a missing or torn frame: Internal.
 *
 * Every error message is deterministic — no pids, durations, or
 * errno text — so degraded responses replay byte-identically.
 */
Result<JsonValue> runInWorker(const ServeRequest &request,
                              const WorkerOptions &options);

/**
 * The ladder's signal/exit classification alone (exposed for tests):
 * the serve-specific remapping over exec::classifyWaitStatus — SIGKILL
 * means "my worker was shot, retriable" here, not the suite
 * supervisor's machine-wide OOM reading.
 */
ErrorCode classifyWorkerExit(int wait_status, bool watchdog_fired);

} // namespace serve
} // namespace mc

#endif // MC_SERVE_WORKER_HH
