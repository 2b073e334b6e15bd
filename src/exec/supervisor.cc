#include "supervisor.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "exec/child_process.hh"

namespace mc {
namespace exec {

namespace {

constexpr const char *kManifestFormat = "mcchar suite manifest v1";
constexpr const char *kManifestFile = "manifest.json";
/** Set from signal handlers; polled by the supervision loops. */
volatile std::sig_atomic_t g_shutdown_requested = 0;

/** Sleep ~@p seconds in small chunks, returning early on shutdown. */
void
interruptibleSleep(double seconds)
{
    using Clock = std::chrono::steady_clock;
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    while (!g_shutdown_requested && Clock::now() < end) {
        struct timespec ts{0, 10 * 1000 * 1000}; // 10 ms
        ::nanosleep(&ts, nullptr);
    }
}

/**
 * Split a line into tokens on whitespace; a single- or double-quoted
 * span (no escapes) keeps its spaces, so plans can express
 * `sh -c "..."` commands.
 */
std::vector<std::string>
splitTokens(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string token;
    bool in_token = false;
    char quote = '\0';
    for (char ch : text) {
        if (quote) {
            if (ch == quote)
                quote = '\0';
            else
                token += ch;
        } else if (ch == '\'' || ch == '"') {
            quote = ch;
            in_token = true;
        } else if (ch == ' ' || ch == '\t' || ch == '\r') {
            if (in_token)
                tokens.push_back(token);
            token.clear();
            in_token = false;
        } else {
            token += ch;
            in_token = true;
        }
    }
    if (in_token)
        tokens.push_back(token);
    return tokens;
}

bool
parsePositiveDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0)
        return false;
    out = v;
    return true;
}

/** Read a whole file; empty string when unreadable (logs are best-effort). */
std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

// ---- Plan parsing ---------------------------------------------------------

Result<SuitePlan>
SuitePlan::parse(const std::string &text)
{
    SuitePlan plan;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;

        const std::size_t colon = line.find(" : ");
        if (line.compare(first, 6, "bench ") != 0 ||
            colon == std::string::npos) {
            return Status::invalidArgument(
                "plan line " + std::to_string(line_no) +
                ": expected `bench <name> [key=value...] : <argv...>`");
        }

        BenchSpec bench;
        const std::vector<std::string> head = splitTokens(
            line.substr(first + 6, colon - first - 6));
        bench.argv = splitTokens(line.substr(colon + 3));
        if (head.empty() || bench.argv.empty()) {
            return Status::invalidArgument(
                "plan line " + std::to_string(line_no) +
                ": missing bench name or command");
        }
        bench.name = head[0];
        for (std::size_t i = 1; i < head.size(); ++i) {
            const std::string &option = head[i];
            const std::size_t eq = option.find('=');
            const std::string key =
                eq == std::string::npos ? option : option.substr(0, eq);
            const std::string value =
                eq == std::string::npos ? "" : option.substr(eq + 1);
            bool ok = true;
            if (key == "deadline") {
                ok = parsePositiveDouble(value, bench.deadlineSec);
            } else if (key == "attempts") {
                char *end = nullptr;
                const long v = std::strtol(value.c_str(), &end, 10);
                ok = end != value.c_str() && *end == '\0' && v >= 1 &&
                     v <= std::numeric_limits<int>::max();
                bench.maxAttempts = static_cast<int>(v);
            } else if (key == "out") {
                ok = !value.empty();
                bench.outputs.push_back(value);
            } else {
                ok = false;
            }
            if (!ok) {
                return Status::invalidArgument(
                    "plan line " + std::to_string(line_no) +
                    ": bad option '" + option + "'");
            }
        }
        for (const BenchSpec &existing : plan.benches) {
            if (existing.name == bench.name) {
                return Status::invalidArgument(
                    "plan line " + std::to_string(line_no) +
                    ": duplicate bench name '" + bench.name + "'");
            }
        }
        plan.benches.push_back(std::move(bench));
    }
    if (plan.benches.empty())
        return Status::invalidArgument("plan declares no benches");
    return plan;
}

Result<SuitePlan>
SuitePlan::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::notFound("cannot open plan file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

// ---- Classification -------------------------------------------------------

ErrorCode
classifyWaitStatus(int wait_status, bool watchdog_fired)
{
    if (WIFEXITED(wait_status))
        return errorCodeForExitStatus(WEXITSTATUS(wait_status));
    if (WIFSIGNALED(wait_status)) {
        if (watchdog_fired)
            return ErrorCode::DeadlineExceeded;
        switch (WTERMSIG(wait_status)) {
          case SIGKILL:
            // The kernel OOM killer's signature; also anything else
            // that force-killed the child — either way the machine ran
            // out of some resource, not the bench out of correctness.
            return ErrorCode::ResourceExhausted;
          case SIGTERM:
          case SIGINT:
          case SIGHUP:
            return ErrorCode::Unavailable;
          default:
            // SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, ...: a crash.
            return ErrorCode::Internal;
        }
    }
    return ErrorCode::Internal;
}

bool
supervisorRetriable(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
      case ErrorCode::InvalidArgument:
      case ErrorCode::Unsupported:
      case ErrorCode::NotFound:
        return false;
      default:
        return true;
    }
}

// ---- Manifest serialization -----------------------------------------------

JsonValue
benchOutcomeToJson(const BenchOutcome &outcome)
{
    JsonValue entry = JsonValue::object();
    entry.set("name", outcome.name);
    JsonValue command = JsonValue::array();
    for (const std::string &arg : outcome.command)
        command.append(arg);
    entry.set("command", std::move(command));
    entry.set("outcome", outcome.ok() ? "ok" : "failed");
    entry.set("code", errorCodeName(outcome.code));
    entry.set("completion_line", outcome.completionLineSeen);
    entry.set("resumed", outcome.resumedFromManifest);
    entry.set("stdout_log", outcome.stdoutLog);
    entry.set("stderr_log", outcome.stderrLog);
    if (!outcome.outputs.empty()) {
        JsonValue outputs = JsonValue::array();
        for (const std::string &path : outcome.outputs)
            outputs.append(path);
        entry.set("outputs", std::move(outputs));
    }
    JsonValue attempts = JsonValue::array();
    for (const AttemptOutcome &attempt : outcome.attempts) {
        JsonValue record = JsonValue::object();
        record.set("code", errorCodeName(attempt.code));
        record.set("exit_status", attempt.exitStatus);
        record.set("signal", attempt.signal);
        record.set("watchdog", attempt.watchdogFired);
        record.set("duration_sec", attempt.durationSec);
        attempts.append(std::move(record));
    }
    entry.set("attempts", std::move(attempts));
    return entry;
}

Result<BenchOutcome>
benchOutcomeFromJson(const JsonValue &entry)
{
    if (!entry.isObject() || !entry.has("name") || !entry.has("code") ||
        !entry.has("command") || !entry.has("attempts")) {
        return Status::failedPrecondition(
            "manifest entry is missing required members");
    }
    BenchOutcome outcome;
    outcome.name = entry.at("name").asString();
    if (!errorCodeFromName(entry.at("code").asString(), outcome.code)) {
        return Status::failedPrecondition(
            "manifest entry for '" + outcome.name +
            "' has unknown code '" + entry.at("code").asString() + "'");
    }
    const JsonValue &command = entry.at("command");
    for (std::size_t i = 0; i < command.size(); ++i)
        outcome.command.push_back(command.at(i).asString());
    if (const JsonValue *flag = entry.find("completion_line"))
        outcome.completionLineSeen = flag->asBool();
    if (const JsonValue *log = entry.find("stdout_log"))
        outcome.stdoutLog = log->asString();
    if (const JsonValue *log = entry.find("stderr_log"))
        outcome.stderrLog = log->asString();
    if (const JsonValue *outputs = entry.find("outputs")) {
        for (std::size_t i = 0; i < outputs->size(); ++i)
            outcome.outputs.push_back(outputs->at(i).asString());
    }
    const JsonValue &attempts = entry.at("attempts");
    for (std::size_t i = 0; i < attempts.size(); ++i) {
        const JsonValue &record = attempts.at(i);
        AttemptOutcome attempt;
        if (!errorCodeFromName(record.at("code").asString(),
                               attempt.code)) {
            return Status::failedPrecondition(
                "manifest attempt record has an unknown code");
        }
        attempt.exitStatus = static_cast<int>(
            record.at("exit_status").asInt());
        attempt.signal = static_cast<int>(record.at("signal").asInt());
        attempt.watchdogFired = record.at("watchdog").asBool();
        attempt.durationSec = record.at("duration_sec").asNumber();
        outcome.attempts.push_back(attempt);
    }
    return outcome;
}

// ---- Supervisor -----------------------------------------------------------

Supervisor::Supervisor(SuitePlan plan, SupervisorOptions options)
    : _plan(std::move(plan)), _options(std::move(options))
{
    mc_assert(!_plan.benches.empty(), "supervisor needs a non-empty plan");
    if (_options.runDir.empty())
        _options.runDir = ".";
}

std::string
Supervisor::manifestPath() const
{
    return _options.runDir + "/" + kManifestFile;
}

void
Supervisor::requestShutdown()
{
    g_shutdown_requested = 1;
}

Status
Supervisor::writeManifest(const std::vector<BenchOutcome> &outcomes) const
{
    JsonValue manifest = JsonValue::object();
    manifest.set("format", kManifestFormat);
    JsonValue benches = JsonValue::array();
    for (const BenchOutcome &outcome : outcomes)
        benches.append(benchOutcomeToJson(outcome));
    manifest.set("benches", std::move(benches));
    return writeFileAtomic(manifestPath(), manifest.serialize());
}

Result<std::vector<BenchOutcome>>
Supervisor::loadManifest() const
{
    const std::string text = slurpFile(manifestPath());
    if (text.empty()) {
        return Status::notFound("no manifest at '" + manifestPath() +
                                "'");
    }
    auto parsed = JsonValue::parse(text);
    if (!parsed.isOk()) {
        return Status::failedPrecondition(
            "manifest '" + manifestPath() +
            "' is not valid JSON: " + parsed.status().message());
    }
    const JsonValue &manifest = parsed.value();
    const JsonValue *format = manifest.find("format");
    if (!format || format->asString() != kManifestFormat) {
        return Status::failedPrecondition(
            "'" + manifestPath() + "' is not a suite manifest");
    }
    std::vector<BenchOutcome> outcomes;
    const JsonValue *benches = manifest.find("benches");
    if (benches && benches->isArray()) {
        for (std::size_t i = 0; i < benches->size(); ++i) {
            auto outcome = benchOutcomeFromJson(benches->at(i));
            if (!outcome.isOk())
                return outcome.status();
            outcomes.push_back(outcome.take());
        }
    }
    return outcomes;
}

AttemptOutcome
Supervisor::runAttempt(const BenchSpec &bench, int attempt_no,
                       double deadline_sec)
{
    AttemptOutcome attempt;

    const std::string stdout_path =
        _options.runDir + "/" + bench.name + ".stdout.log";
    const std::string stderr_path =
        _options.runDir + "/" + bench.name + ".stderr.log";
    // Append across attempts so crash logs from earlier attempts
    // survive for post-mortems; truncate on the first attempt so a
    // resumed or re-run suite starts a fresh log.
    const int open_flags =
        O_WRONLY | O_CREAT | (attempt_no == 1 ? O_TRUNC : O_APPEND);
    const int out_fd = ::open(stdout_path.c_str(), open_flags, 0644);
    const int err_fd = ::open(stderr_path.c_str(), open_flags, 0644);
    if (out_fd < 0 || err_fd < 0) {
        if (out_fd >= 0)
            ::close(out_fd);
        if (err_fd >= 0)
            ::close(err_fd);
        attempt.code = ErrorCode::InvalidArgument;
        return attempt;
    }
    if (attempt_no > 1) {
        ::dprintf(err_fd, "[mc_suite] --- attempt %d ---\n", attempt_no);
    }

    std::vector<char *> argv;
    argv.reserve(bench.argv.size() + 1);
    for (const std::string &arg : bench.argv)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    ChildProcess child([&] {
        if (::chdir(_options.runDir.c_str()) != 0)
            ::_exit(exit_code::ExecFailed);
        ::dup2(out_fd, STDOUT_FILENO);
        ::dup2(err_fd, STDERR_FILENO);
        ::close(out_fd);
        ::close(err_fd);
        ::execvp(argv[0], argv.data());
        std::fprintf(stderr, "mc_suite: exec '%s' failed: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(exit_code::ExecFailed);
    });
    ::close(out_fd);
    ::close(err_fd);
    if (!child.started()) {
        attempt.code = ErrorCode::ResourceExhausted;
        return attempt;
    }

    const ChildExit ended =
        child.wait(deadline_sec, _options.killGraceSec,
                   [] { return g_shutdown_requested != 0; });
    const int wait_status = ended.waitStatus;
    attempt.watchdogFired = ended.watchdogFired;
    attempt.durationSec = ended.durationSec;
    if (g_shutdown_requested && !attempt.watchdogFired) {
        attempt.code = ErrorCode::Unavailable;
    } else {
        attempt.code = classifyWaitStatus(wait_status,
                                          attempt.watchdogFired);
    }
    if (WIFEXITED(wait_status))
        attempt.exitStatus = WEXITSTATUS(wait_status);
    else if (WIFSIGNALED(wait_status))
        attempt.signal = WTERMSIG(wait_status);
    return attempt;
}

BenchOutcome
Supervisor::runBench(const BenchSpec &bench)
{
    BenchOutcome outcome;
    outcome.name = bench.name;
    outcome.command = bench.argv;
    outcome.outputs = bench.outputs;
    outcome.stdoutLog = bench.name + ".stdout.log";
    outcome.stderrLog = bench.name + ".stderr.log";

    const int max_attempts = bench.maxAttempts > 0
                                 ? bench.maxAttempts
                                 : _options.restart.maxAttempts;
    const double deadline_sec = bench.deadlineSec > 0.0
                                    ? bench.deadlineSec
                                    : _options.defaultDeadlineSec;

    for (int attempt_no = 1; attempt_no <= max_attempts; ++attempt_no) {
        const AttemptOutcome attempt =
            runAttempt(bench, attempt_no, deadline_sec);
        outcome.attempts.push_back(attempt);
        outcome.code = attempt.code;
        if (_options.echoProgress) {
            std::fprintf(stderr,
                         "[mc_suite] %s: attempt %d/%d -> %s "
                         "(%.2f s%s)\n",
                         bench.name.c_str(), attempt_no, max_attempts,
                         errorCodeName(attempt.code), attempt.durationSec,
                         attempt.watchdogFired ? ", watchdog" : "");
        }
        if (attempt.code == ErrorCode::Ok || g_shutdown_requested ||
            !supervisorRetriable(attempt.code)) {
            break;
        }
        if (attempt_no < max_attempts)
            interruptibleSleep(
                _options.restart.backoffBeforeRetry(attempt_no));
    }

    if (outcome.code == ErrorCode::Ok) {
        // The completion line is the bench's own confirmation that it
        // reached its summary; its absence (exec'd the wrong binary,
        // exit 0 from a wrapper script) is recorded but not fatal.
        const std::string log =
            slurpFile(_options.runDir + "/" + outcome.stderrLog);
        outcome.completionLineSeen =
            log.find(kBenchCompletionPrefix) != std::string::npos;
    }
    return outcome;
}

Result<SuiteResult>
Supervisor::run()
{
    // Best-effort: the directory may already exist (resume) or be
    // nested (then the caller must have created the parents).
    ::mkdir(_options.runDir.c_str(), 0755);

    std::vector<BenchOutcome> previous;
    if (_options.resume) {
        auto loaded = loadManifest();
        if (!loaded.isOk() &&
            loaded.status().code() != ErrorCode::NotFound) {
            return loaded.status();
        }
        if (loaded.isOk())
            previous = loaded.take();
    }

    SuiteResult result;
    for (const BenchSpec &bench : _plan.benches) {
        if (g_shutdown_requested) {
            result.interrupted = true;
            break;
        }

        // Resume: a prior completed run of the same command satisfies
        // this bench. A changed command line re-runs — the old result
        // no longer describes the plan.
        const BenchOutcome *prior = nullptr;
        for (const BenchOutcome &candidate : previous) {
            if (candidate.name == bench.name &&
                candidate.command == bench.argv && candidate.ok()) {
                prior = &candidate;
                break;
            }
        }
        if (prior) {
            BenchOutcome outcome = *prior;
            outcome.resumedFromManifest = true;
            if (_options.echoProgress) {
                std::fprintf(stderr,
                             "[mc_suite] %s: complete in manifest, "
                             "skipping\n",
                             bench.name.c_str());
            }
            result.benches.push_back(std::move(outcome));
        } else {
            result.benches.push_back(runBench(bench));
        }

        Status wrote = writeManifest(result.benches);
        if (!wrote.isOk())
            return wrote;

        if (_options.killAfterBenches >= 0 &&
            static_cast<int>(result.benches.size()) >=
                _options.killAfterBenches) {
            // Test hook: die the hardest way possible, right after the
            // manifest write the resume path depends on.
            ::raise(SIGKILL);
        }
    }
    if (g_shutdown_requested)
        result.interrupted = true;
    return result;
}

} // namespace exec
} // namespace mc
