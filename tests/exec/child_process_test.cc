/**
 * @file
 * Tests of exec::ChildProcess, the one fork/supervise/reap primitive
 * under the suite supervisor and the serve worker: exit statuses, the
 * child's own process group, the stop predicate (the supervisor's
 * shutdown), the drained result pipe, and that an exit wakes the wait
 * at once. Deadline escalation is tested through both callers
 * (Supervisor.Watchdog*, RunInWorker.HangTripsTheWatchdog...).
 *
 * Every test forks, so the binary carries the "supervisor" label; it
 * runs serially because one test times how fast exits are reaped.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <string>
#include <vector>

#include "exec/child_process.hh"

namespace mc {
namespace exec {
namespace {

/** Blocking write of all of @p data, for child bodies. */
void
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n <= 0)
            ::_exit(1);
        done += static_cast<std::size_t>(n);
    }
}

TEST(ChildProcess, ExitStatusFromItsOwnProcessGroup)
{
    ChildProcess child([] { ::_exit(::getpgrp() == ::getpid() ? 7 : 1); });
    ASSERT_TRUE(child.started());
    const ChildExit ended = child.wait(20.0, 0.2);
    ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    EXPECT_EQ(WEXITSTATUS(ended.waitStatus), 7);
    EXPECT_FALSE(ended.watchdogFired);
}

TEST(ChildProcess, BodyThatReturnsExitsFailure)
{
    ChildProcess child([] {});
    const ChildExit ended = child.wait(20.0, 0.2);
    ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    EXPECT_EQ(WEXITSTATUS(ended.waitStatus), 1);
}

TEST(ChildProcess, StopPredicateKillsWithoutFiringTheWatchdog)
{
    int checks = 0;
    ChildProcess child([] {
        for (;;)
            ::pause();
    });
    const ChildExit ended =
        child.wait(20.0, 0.2, [&] { return ++checks >= 3; });
    ASSERT_TRUE(WIFSIGNALED(ended.waitStatus));
    EXPECT_EQ(WTERMSIG(ended.waitStatus), SIGKILL);
    EXPECT_FALSE(ended.watchdogFired);
    EXPECT_LT(ended.durationSec, 5.0);
}

TEST(ChildProcess, LargeResultCrossesTheDrainedPipe)
{
    // 1 MiB is sixteen 64 KiB pipe buffers: the child can only finish
    // writing, and so exit, because the wait drains while it waits.
    std::string payload(1u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 131 + (i >> 12));
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ChildProcess child([&] {
        ::close(fds[0]);
        writeAll(fds[1], payload);
        ::_exit(0);
    });
    ::close(fds[1]);
    std::string drained;
    const ChildExit ended = child.wait(20.0, 0.2, {}, fds[0], &drained);
    ::close(fds[0]);
    ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    EXPECT_EQ(WEXITSTATUS(ended.waitStatus), 0);
    EXPECT_FALSE(ended.watchdogFired);
    ASSERT_EQ(drained.size(), payload.size());
    EXPECT_TRUE(drained == payload);
}

TEST(ChildProcess, CompletionFollowsThePidNotEof)
{
    // A sibling forked while child A runs inherits A's pipe write end
    // and keeps it open for 2 s (as a second serve slot's worker
    // would). A's wait must end when A does, with all of A's output.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ChildProcess a([&] {
        ::close(fds[0]);
        writeAll(fds[1], "output of child A");
        ::_exit(0);
    });
    const pid_t sibling = ::fork();
    if (sibling == 0) {
        struct timespec ts{2, 0};
        ::nanosleep(&ts, nullptr);
        ::_exit(0);
    }
    ASSERT_GT(sibling, 0);
    ::close(fds[1]);

    std::string drained;
    const auto start = std::chrono::steady_clock::now();
    const ChildExit ended = a.wait(20.0, 0.2, {}, fds[0], &drained);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    ::kill(sibling, SIGKILL);
    ::waitpid(sibling, nullptr, 0);
    ::close(fds[0]);

    ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    EXPECT_EQ(WEXITSTATUS(ended.waitStatus), 0);
    EXPECT_EQ(drained, "output of child A");
    EXPECT_LT(waited, 0.5);
}

TEST(ChildProcess, ExitedChildIsReapedWithoutWaitingOutATick)
{
    // The wait wakes on the child's pidfd, not at the next 10 ms poll
    // timeout; a median under half a tick shows it.
    std::vector<double> durations;
    for (int i = 0; i < 21; ++i) {
        ChildProcess child([] { ::_exit(0); });
        const ChildExit ended = child.wait(20.0, 0.2);
        ASSERT_TRUE(WIFEXITED(ended.waitStatus));
        durations.push_back(ended.durationSec);
    }
    std::nth_element(durations.begin(), durations.begin() + 10,
                     durations.end());
    EXPECT_LT(durations[10], 0.005) << "median spawn-to-reap seconds";
}

} // namespace
} // namespace exec
} // namespace mc
