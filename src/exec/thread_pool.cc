#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include <pthread.h>
#include <unistd.h>

#include "common/logging.hh"

namespace mc {
namespace exec {

ThreadPool::ThreadPool(int threads)
{
    threads = std::max(1, threads);
    _workers.reserve(threads);
    for (int i = 0; i < threads; ++i)
        _workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _workReady.notify_all();
    for (std::thread &worker : _workers)
        worker.join();
}

std::uint64_t
ThreadPool::submittedCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _submitted;
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        mc_assert(!_stopping, "submit on a stopping thread pool");
        _queue.push_back(std::move(task));
        ++_submitted;
    }
    _workReady.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _workReady.wait(lock,
                            [this]() { return _stopping || !_queue.empty(); });
            if (_queue.empty())
                return; // stopping and drained
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        // packaged_task catches the task's exception into its future;
        // nothing escapes into the worker.
        task();
    }
}

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

std::atomic<int> g_concurrency_cap{0};

/** Apply the process-wide cap to a resolved worker-count request. */
int
capThreads(int threads)
{
    const int cap = g_concurrency_cap.load(std::memory_order_relaxed);
    return cap > 0 ? std::min(threads, cap) : threads;
}

} // namespace

void
setConcurrencyCap(int cap)
{
    g_concurrency_cap.store(std::max(0, cap), std::memory_order_relaxed);
}

int
concurrencyCap()
{
    return g_concurrency_cap.load(std::memory_order_relaxed);
}

namespace {

/** The pid this process started with: any other pid is a fork()
 *  child's. */
const pid_t g_start_pid = ::getpid();

/**
 * The shared pool and the pid of the process that built it. A fork()
 * child inherits both, but none of the pool's worker threads: tasks
 * posted there would never run, and destroying the pool would join
 * threads that do not exist. The mutex is held across fork() (the
 * pthread_atfork pair below), so a child never inherits it locked by
 * a thread that is gone.
 */
struct SharedPoolState
{
    std::mutex mutex;
    std::shared_ptr<ThreadPool> pool;
    pid_t owner = 0;

    SharedPoolState()
    {
        ::pthread_atfork([] { state().mutex.lock(); },
                         [] { state().mutex.unlock(); },
                         [] { state().mutex.unlock(); });
    }

    ~SharedPoolState() { releaseInherited(); }

    /** Drop a pool inherited across fork() without destroying it:
     *  leaked on purpose, because its destructor would join threads
     *  that never ran in this process. */
    void
    releaseInherited()
    {
        if (pool && owner != ::getpid())
            new std::shared_ptr<ThreadPool>(std::move(pool));
    }

    static SharedPoolState &
    state()
    {
        static SharedPoolState shared;
        return shared;
    }
};

} // namespace

std::shared_ptr<ThreadPool>
sharedPool(int min_threads)
{
    SharedPoolState &shared = SharedPoolState::state();
    if (min_threads < 1)
        min_threads = ThreadPool::hardwareThreads();
    min_threads = capThreads(min_threads);
    std::lock_guard<std::mutex> lock(shared.mutex);
    shared.releaseInherited();
    if (!shared.pool || shared.pool->threadCount() < min_threads) {
        shared.pool = std::make_shared<ThreadPool>(min_threads);
        shared.owner = ::getpid();
    }
    return shared.pool;
}

void
parallelChunks(std::size_t count, std::size_t chunk, int threads,
               const std::function<void(std::size_t, std::size_t)> &fn)
{
    mc_assert(chunk > 0, "parallelChunks requires a positive chunk");
    if (count == 0)
        return;
    if (threads < 1)
        threads = ThreadPool::hardwareThreads();
    threads = capThreads(threads);
    const std::size_t chunks = (count + chunk - 1) / chunk;
    // A fork() child runs serially: the parent's pool has no workers
    // here, and a child of a multi-threaded process should not start
    // threads. Chunk results never depend on the thread count.
    if (threads == 1 || chunks == 1 || ::getpid() != g_start_pid) {
        for (std::size_t begin = 0; begin < count; begin += chunk)
            fn(begin, std::min(count, begin + chunk));
        return;
    }

    // The caller and threads - 1 helpers claim chunk indices from one
    // counter. Helpers hold the state by shared_ptr: one that starts
    // after every chunk was claimed (the caller may have returned by
    // then) finds the counter exhausted and never touches fn.
    struct State
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable allDone;
        std::size_t done = 0;
        std::size_t failedChunk = 0;
        std::exception_ptr failure;
    };
    const auto state = std::make_shared<State>();
    const auto work = [state, chunks, count, chunk, &fn]() {
        for (;;) {
            const std::size_t i = state->next.fetch_add(1);
            if (i >= chunks)
                return;
            std::exception_ptr error;
            try {
                fn(i * chunk, std::min(count, (i + 1) * chunk));
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(state->mutex);
            if (error && (!state->failure || i < state->failedChunk)) {
                state->failure = error;
                state->failedChunk = i;
            }
            if (++state->done == chunks)
                state->allDone.notify_all();
        }
    };

    const std::size_t helpers =
        std::min(static_cast<std::size_t>(threads), chunks) - 1;
    const std::shared_ptr<ThreadPool> pool =
        sharedPool(static_cast<int>(helpers));
    for (std::size_t h = 0; h < helpers; ++h)
        (void)pool->submit(work);
    work();
    // Full barrier before rethrowing: every chunk references caller
    // state, so no exception may escape while one is still running.
    std::unique_lock<std::mutex> lock(state->mutex);
    state->allDone.wait(lock, [&]() { return state->done == chunks; });
    if (state->failure)
        std::rethrow_exception(state->failure);
}

} // namespace exec
} // namespace mc
