/**
 * @file
 * The mc_serve process under test and the open-loop load generator.
 *
 * The generator is one process with one connection: a sender thread
 * writes each request at its scheduled time, whether or not earlier
 * responses have arrived, and the calling thread collects responses by
 * id. Latency is measured from the
 * *scheduled* send time, so a stall in the daemon, or in the generator
 * itself, is charged to every request it delays (no coordinated
 * omission). How late each request actually left is recorded too: a
 * rung whose sends ran late measures the generator, not the daemon.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/json.hh"
#include "common/status.hh"
#include "mixes.hh"

namespace perfbench {

/** A running mc_serve daemon. */
struct Daemon
{
    pid_t pid = -1;
    std::string socketPath;
    double setupSec = 0.0; ///< spawn until ready file + first ping answered
};

/** Spawn @p binary with @p args plus --socket/--ready-file under
 *  @p work_dir, wait until it answers a ping. stdout and stderr of the
 *  daemon go to @p work_dir/mc_serve.log. */
mc::Result<Daemon> spawnDaemon(const std::string &binary,
                               const std::vector<std::string> &args,
                               const std::string &work_dir, int ordinal);

/** Ask for a clean shutdown and reap; SIGKILL after @p grace_sec. */
void stopDaemon(Daemon &daemon, double grace_sec = 10.0);

/** The daemon's "stats" payload. */
mc::Result<mc::JsonValue> daemonStats(const Daemon &daemon);

/** VmHWM of @p pid in MiB (0 when unreadable). */
double vmHwmMb(pid_t pid);

/** Aggregate CPU time of the host (/proc/stat), in jiffies. */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0; ///< taken by the hypervisor for other guests
};
CpuTimes cpuTimes();

/** Share of CPU time stolen from this machine between @p a and @p b: how
 *  much other guests on the host disturbed a measurement. */
double stealShare(const CpuTimes &a, const CpuTimes &b);

/** A measurement during which other guests took more than this share of
 *  the machine's CPU time is invalid. */
constexpr double kMaxStealShare = 0.05;

/** Launches of the process under test per run; set-up time is their
 *  median. */
constexpr int kSetupLaunches = 41;

/** Connect to a Unix socket; -1 on failure. */
int connectUnix(const std::string &path);

/** One request's fate in an open-loop run. */
struct Outcome
{
    double scheduledUs = 0.0; ///< absolute (nowUs clock)
    double sentUs = 0.0;
    double doneUs = 0.0;      ///< 0 = no response
    std::string response;     ///< the raw response frame
};

/** Send @p requests open-loop over one connection, starting @p lead_sec
 *  from now; returns one outcome per request (by index). */
mc::Result<std::vector<Outcome>> runOpenLoop(const Daemon &daemon,
                                             const std::vector<Request> &requests,
                                             double lead_sec);

/** The payload part of a response frame ("" when it is not Ok). */
std::string responsePayload(const std::string &frame);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
