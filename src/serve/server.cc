#include "server.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "blas/pack_cache.hh"
#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "serve/engine.hh"

namespace mc {
namespace serve {

namespace {

/** Best-effort id of a frame that failed validation, so even error
 *  responses correlate when the envelope itself was parseable. */
std::string
bestEffortId(const std::string &frame)
{
    auto parsed = JsonValue::parse(frame);
    if (!parsed.isOk() || !parsed.value().isObject())
        return std::string();
    const JsonValue *id = parsed.value().find("id");
    if (!id || id->type() != JsonValue::Type::String)
        return std::string();
    return id->asString();
}

} // namespace

Result<Isolation>
parseIsolation(const std::string &name)
{
    if (name == "none")
        return Isolation::None;
    if (name == "faulted")
        return Isolation::Faulted;
    if (name == "all")
        return Isolation::All;
    return Status::invalidArgument("unknown isolation mode '" + name +
                                   "' (none|faulted|all)");
}

/** One accepted client connection. The fd closes when the last
 *  reference (reader thread or pending flight waiter) drops. */
struct Server::Connection
{
    explicit Connection(int fd_) : fd(fd_) {}
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Write one response frame; frames never interleave because every
     *  writer (reader-thread inline answers, pool-thread flight
     *  responses) goes through this lock. Write failures are the
     *  client's loss alone — the daemon drops the response and keeps
     *  serving. */
    void
    send(const std::string &frame)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        (void)writeFrame(fd, frame);
    }

    int fd;
    std::mutex writeMutex;
};

/** One in-flight execution, shared by every coalesced respondent. */
struct Server::Flight
{
    ServeRequest request;
    std::vector<std::pair<std::shared_ptr<Connection>, std::string>>
        waiters;
};

Server::Server(ServerOptions options)
    : _options(std::move(options)),
      _planCache(std::make_shared<blas::PlanCache>())
{
    _pool = std::make_unique<exec::ThreadPool>(
        static_cast<int>(_options.admission.slots));
    _admission = std::make_unique<AdmissionController>(
        _options.admission, [this](AdmissionController::Task task) {
            _pool->submit(std::move(task));
        });
}

Server::~Server()
{
    stop();
}

Status
Server::start()
{
    mc_assert(_listenFd < 0, "server already started");

    if (!_options.socketPath.empty()) {
        sockaddr_un addr{};
        if (_options.socketPath.size() >= sizeof(addr.sun_path)) {
            return Status::invalidArgument("socket path '" +
                                           _options.socketPath +
                                           "' is too long");
        }
        _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (_listenFd < 0)
            return Status::unavailable("cannot create a Unix socket");
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, _options.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(_options.socketPath.c_str()); // stale socket from a crash
        if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(_listenFd);
            _listenFd = -1;
            return Status::unavailable("cannot bind '" +
                                       _options.socketPath + "'");
        }
    } else {
        _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_listenFd < 0)
            return Status::unavailable("cannot create a TCP socket");
        const int one = 1;
        ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(_options.tcpPort));
        if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(_listenFd);
            _listenFd = -1;
            return Status::unavailable(
                "cannot bind 127.0.0.1:" +
                std::to_string(_options.tcpPort));
        }
        sockaddr_in bound{};
        socklen_t bound_len = sizeof(bound);
        ::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len);
        _boundPort = ntohs(bound.sin_port);
    }
    if (::listen(_listenFd, 64) != 0) {
        ::close(_listenFd);
        _listenFd = -1;
        return Status::unavailable("cannot listen on the serve socket");
    }

    _acceptor = std::thread([this]() { acceptLoop(); });

    if (!_options.readyFile.empty()) {
        const std::string line =
            (_options.socketPath.empty()
                 ? std::to_string(_boundPort)
                 : _options.socketPath) +
            "\n";
        Status wrote = writeFileAtomic(_options.readyFile, line);
        if (!wrote.isOk())
            return wrote;
    }
    return Status::ok();
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (stop()) or fatally broken
        }
        if (_stopped.load()) {
            ::close(fd);
            return;
        }
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard<std::mutex> lock(_connMutex);
        _connections.push_back(conn);
        _readers.emplace_back(
            [this, conn]() { connectionLoop(conn); });
    }
}

void
Server::connectionLoop(std::shared_ptr<Connection> conn)
{
    for (;;) {
        auto frame = readFrame(conn->fd);
        if (!frame.isOk()) {
            // Torn stream or oversized frame: answer if the transport
            // still works, then drop the connection — one misbehaving
            // client never affects another.
            conn->send(errorResponse("", frame.status()));
            break;
        }
        if (!frame.value().has_value())
            break; // clean EOF
        handleFrame(conn, *frame.value());
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(_connMutex);
    for (auto it = _connections.begin(); it != _connections.end(); ++it) {
        if (it->get() == conn.get()) {
            _connections.erase(it);
            break;
        }
    }
}

void
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const std::string &frame)
{
    auto parsed = parseRequest(frame);
    if (!parsed.isOk()) {
        conn->send(errorResponse(bestEffortId(frame), parsed.status()));
        return;
    }
    const ServeRequest &request = parsed.value();

    switch (request.kind) {
      case RequestKind::Ping: {
        JsonValue pong = JsonValue::object();
        pong.set("pong", true);
        conn->send(okResponse(request.id, pong));
        return;
      }
      case RequestKind::Stats:
        conn->send(okResponse(request.id, statsPayload()));
        return;
      case RequestKind::Shutdown: {
        // Flag first: a client that has read this reply must already
        // observe shutdownRequested().
        _shutdown.store(true);
        JsonValue stopping = JsonValue::object();
        stopping.set("stopping", true);
        conn->send(okResponse(request.id, stopping));
        return;
      }
      case RequestKind::Gemm:
      case RequestKind::Sweep:
        break;
    }

    if (request.chaos != ChaosMode::None &&
        (!_options.allowChaos ||
         _options.isolation == Isolation::None)) {
        conn->send(errorResponse(
            request.id,
            Status::failedPrecondition(
                "chaos requests need a daemon started with "
                "--allow-chaos and worker isolation")));
        return;
    }

    // Single-flight coalescing, decided before admission: a request
    // whose execution is already in flight (or queued) rides it and
    // costs no admission slot. The payload depends only on the key, so
    // the joiner's response bytes are exactly a lone run's.
    const std::string key = canonicalKey(request);
    {
        std::lock_guard<std::mutex> lock(_flightMutex);
        auto it = _flights.find(key);
        if (it != _flights.end()) {
            it->second.waiters.emplace_back(conn, request.id);
            _coalesced.fetch_add(1);
            return;
        }
        Flight flight;
        flight.request = request;
        flight.waiters.emplace_back(conn, request.id);
        _flights.emplace(key, std::move(flight));
    }

    _admission->submit(
        request.tenant, request.deadlineSec,
        [this, key, request]() { executeFlight(key, request); },
        [this, key](const Status &status) { failFlight(key, status); });
}

void
Server::executeFlight(const std::string &key, const ServeRequest &request)
{
    const bool isolated =
        _options.isolation == Isolation::All ||
        (_options.isolation == Isolation::Faulted &&
         (request.faults.any() || request.chaos != ChaosMode::None));

    Result<JsonValue> outcome = JsonValue();
    if (isolated) {
        WorkerOptions wopts;
        wopts.deadlineSec = _options.workerDeadlineSec;
        wopts.graceSec = _options.workerGraceSec;
        wopts.engine.allowChaos = _options.allowChaos;
        wopts.engine.verifyGemms = _options.verifyGemms;
        wopts.engine.verifyMaxN = _options.verifyMaxN;
        outcome = runInWorker(request, wopts);
        _workerRuns.fetch_add(1);
    } else {
        EngineOptions eopts;
        eopts.planCache = _planCache;
        // In-process chaos would kill the daemon; the policy check in
        // handleFrame already refused it, this keeps the backstop.
        eopts.allowChaos = false;
        eopts.verifyGemms = _options.verifyGemms;
        eopts.verifyMaxN = _options.verifyMaxN;
        outcome = executePayload(request, eopts);
        _inProcessRuns.fetch_add(1);
    }
    respondFlight(key, outcome);
}

void
Server::failFlight(const std::string &key, const Status &status)
{
    respondFlight(key, Result<JsonValue>(status));
}

void
Server::respondFlight(const std::string &key,
                      const Result<JsonValue> &outcome)
{
    std::vector<std::pair<std::shared_ptr<Connection>, std::string>>
        waiters;
    {
        std::lock_guard<std::mutex> lock(_flightMutex);
        auto it = _flights.find(key);
        mc_assert(it != _flights.end(), "flight resolved twice: ", key);
        waiters = std::move(it->second.waiters);
        _flights.erase(it);
    }
    for (const auto &[conn, id] : waiters) {
        conn->send(outcome.isOk()
                       ? okResponse(id, outcome.value())
                       : errorResponse(id, outcome.status()));
    }
}

JsonValue
Server::statsPayload() const
{
    JsonValue doc = JsonValue::object();
    doc.set("admission", _admission->statsJson());
    JsonValue plans = JsonValue::object();
    plans.set("hits", static_cast<std::int64_t>(_planCache->hits()));
    plans.set("misses", static_cast<std::int64_t>(_planCache->misses()));
    plans.set("evictions",
              static_cast<std::int64_t>(_planCache->evictions()));
    plans.set("size", static_cast<std::int64_t>(_planCache->size()));
    doc.set("plan_cache", plans);
    // The packed-operand cache is process-wide (blas::PackCache), so
    // these counters cover every in-daemon run; isolated workers fork
    // with a fresh (cold) cache and report nothing back here.
    const blas::PackCacheStats packs = blas::PackCache::globalStats();
    JsonValue pack = JsonValue::object();
    pack.set("hits", static_cast<std::int64_t>(packs.hits));
    pack.set("misses", static_cast<std::int64_t>(packs.misses));
    pack.set("evictions", static_cast<std::int64_t>(packs.evictions));
    pack.set("bytes", static_cast<std::int64_t>(packs.residentBytes));
    doc.set("pack_cache", pack);
    JsonValue runs = JsonValue::object();
    runs.set("in_process",
             static_cast<std::int64_t>(_inProcessRuns.load()));
    runs.set("worker", static_cast<std::int64_t>(_workerRuns.load()));
    runs.set("coalesced", static_cast<std::int64_t>(_coalesced.load()));
    doc.set("runs", runs);
    return doc;
}

void
Server::stop()
{
    if (_stopped.exchange(true))
        return;
    _shutdown.store(true);

    // 1. Stop accepting: closing the listener fails the blocking
    //    accept() and ends the acceptor thread.
    if (_listenFd >= 0) {
        ::shutdown(_listenFd, SHUT_RDWR);
        ::close(_listenFd);
    }
    if (_acceptor.joinable())
        _acceptor.join();

    // 2. Cancel every queued request (Unavailable); running ones
    //    finish and answer normally.
    if (_admission)
        _admission->close();

    // 3. Drain the execution pool: its destructor runs pending tasks
    //    to completion before the workers exit.
    _pool.reset();

    // 4. Unblock and join the connection readers.
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        for (const auto &conn : _connections)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        readers.swap(_readers);
    }
    for (std::thread &reader : readers)
        if (reader.joinable())
            reader.join();

    if (!_options.socketPath.empty())
        ::unlink(_options.socketPath.c_str());
    _listenFd = -1;
}

} // namespace serve
} // namespace mc
