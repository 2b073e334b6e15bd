#include "loadgen.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "trace.hh"

namespace perfbench {

namespace {

void
sleepUntilUs(double when_us)
{
    const double left = when_us - nowUs();
    if (left > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(left));
}

mc::Result<std::string>
roundTrip(int fd, const std::string &frame)
{
    mc::Status sent = mc::serve::writeFrame(fd, frame);
    if (!sent.isOk())
        return sent;
    auto reply = mc::serve::readFrame(fd);
    if (!reply.isOk())
        return reply.status();
    if (!reply.value())
        return mc::Status(mc::ErrorCode::Unavailable, "daemon closed");
    return *reply.value();
}

mc::Result<std::string>
ask(const std::string &socket_path, const std::string &frame)
{
    const int fd = connectUnix(socket_path);
    if (fd < 0)
        return mc::Status(mc::ErrorCode::Unavailable, "connect failed");
    auto reply = roundTrip(fd, frame);
    ::close(fd);
    return reply;
}

/** The id of a response frame (responses start {"id": "..."). */
std::string
responseId(const std::string &frame)
{
    const std::string lead = "{\"id\": \"";
    if (frame.compare(0, lead.size(), lead) != 0)
        return "";
    const auto end = frame.find('"', lead.size());
    return end == std::string::npos ? ""
                                    : frame.substr(lead.size(), end - lead.size());
}

} // namespace

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

mc::Result<Daemon>
spawnDaemon(const std::string &binary, const std::vector<std::string> &args,
            const std::string &work_dir, int ordinal)
{
    Daemon d;
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(ordinal);
    d.socketPath = work_dir + "/s" + tag + ".sock";
    const std::string ready = work_dir + "/ready" + tag;
    const std::string log = work_dir + "/mc_serve.log";
    ::unlink(d.socketPath.c_str());
    ::unlink(ready.c_str());

    std::vector<std::string> argv_s = {binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    argv_s.push_back("--socket=" + d.socketPath);
    argv_s.push_back("--ready-file=" + ready);
    std::vector<char *> argv;
    for (auto &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // The ready file appears by rename (an atomic write): wake on that
    // event rather than polling for it.
    const int watch = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
    if (watch < 0 || ::inotify_add_watch(watch, work_dir.c_str(), IN_MOVED_TO) < 0) {
        if (watch >= 0)
            ::close(watch);
        return mc::Status(mc::ErrorCode::Internal, "inotify failed");
    }
    const double t0 = nowUs();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(watch);
        return mc::Status(mc::ErrorCode::Internal, "fork failed");
    }
    if (pid == 0) {
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    d.pid = pid;
    const std::string ping = "{\"kind\":\"ping\",\"id\":\"p\"}";
    mc::Status failed = mc::Status::ok();
    for (;;) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            d.pid = -1;
            failed = mc::Status(mc::ErrorCode::Unavailable,
                                "mc_serve exited during start-up");
            break;
        }
        struct stat st{};
        const bool written = ::stat(ready.c_str(), &st) == 0;
        if (written && ask(d.socketPath, ping).isOk()) {
            d.setupSec = (nowUs() - t0) * 1e-6;
            break;
        }
        if (nowUs() - t0 > 30e6) {
            stopDaemon(d, 0.0);
            failed = mc::Status(mc::ErrorCode::DeadlineExceeded,
                                "mc_serve did not become ready");
            break;
        }
        pollfd pfd{watch, POLLIN, 0};
        if (written)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        else if (::poll(&pfd, 1, 5) > 0) {
            char events[4096];
            while (::read(watch, events, sizeof(events)) > 0) {
            }
        }
    }
    ::close(watch);
    if (!failed.isOk())
        return failed;
    ::unlink(ready.c_str());
    return d;
}

void
stopDaemon(Daemon &daemon, double grace_sec)
{
    if (daemon.pid < 0)
        return;
    if (grace_sec > 0)
        (void)ask(daemon.socketPath, "{\"kind\":\"shutdown\",\"id\":\"q\"}");
    const double t0 = nowUs();
    for (;;) {
        int status = 0;
        if (::waitpid(daemon.pid, &status, WNOHANG) == daemon.pid)
            break;
        if (nowUs() - t0 > grace_sec * 1e6) {
            ::kill(daemon.pid, SIGKILL);
            ::waitpid(daemon.pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    daemon.pid = -1;
    ::unlink(daemon.socketPath.c_str());
}

mc::Result<mc::JsonValue>
daemonStats(const Daemon &daemon)
{
    auto reply = ask(daemon.socketPath, "{\"kind\":\"stats\",\"id\":\"s\"}");
    if (!reply.isOk())
        return reply.status();
    auto parsed = mc::serve::parseResponse(reply.value());
    if (!parsed.isOk())
        return parsed.status();
    return parsed.value().payload;
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

CpuTimes
cpuTimes()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTimes t;
    in >> cpu;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const CpuTimes &a, const CpuTimes &b)
{
    const std::uint64_t total = b.total - a.total;
    return total > 0 ? static_cast<double>(b.steal - a.steal) /
                           static_cast<double>(total)
                     : 0.0;
}

std::string
responsePayload(const std::string &frame)
{
    const std::string marker = "\"code\": \"Ok\", \"payload\": ";
    const auto at = frame.find(marker);
    return at == std::string::npos ? "" : frame.substr(at + marker.size());
}

mc::Result<std::vector<Outcome>>
runOpenLoop(const Daemon &daemon, const std::vector<Request> &requests,
            double lead_sec)
{
    std::vector<Outcome> out(requests.size());
    const int fd = connectUnix(daemon.socketPath);
    if (fd < 0)
        return mc::Status(mc::ErrorCode::Unavailable, "connect failed");
    // A response that never comes must not block the run forever.
    timeval tv{120, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Frames are built before the clock starts.
    std::vector<std::string> frames(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        frames[i] = requests[i].frame("r" + std::to_string(i));
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return requests[a].sendAt < requests[b].sendAt;
    });

    const double t0 = nowUs() + lead_sec * 1e6;
    for (std::size_t i = 0; i < requests.size(); ++i)
        out[i].scheduledUs = t0 + requests[i].sendAt * 1e6;

    std::thread sender([&] {
        for (std::size_t i : order) {
            sleepUntilUs(out[i].scheduledUs);
            out[i].sentUs = nowUs();
            if (!mc::serve::writeFrame(fd, frames[i]).isOk())
                break;
        }
    });
    for (std::size_t got = 0; got < requests.size(); ++got) {
        auto frame = mc::serve::readFrame(fd);
        if (!frame.isOk() || !frame.value())
            break;
        const double done = nowUs();
        const std::string id = responseId(*frame.value());
        if (id.size() < 2 || id[0] != 'r')
            continue;
        const auto i = std::stoull(id.substr(1));
        if (i < out.size()) {
            out[i].doneUs = done;
            out[i].response = std::move(*frame.value());
        }
    }
    sender.join();
    ::close(fd);
    return out;
}

} // namespace perfbench
