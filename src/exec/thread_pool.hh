/**
 * @file
 * A fixed-size worker pool for fanning independent simulation work
 * across host cores.
 *
 * The simulator is single-threaded by design (each Mi250x owns a
 * stateful power trace and noise stream), so parallelism happens one
 * level up: independent sweep points each get their own device
 * instance and run on a pool worker. The pool is deliberately small:
 * FIFO dispatch, futures for results, exceptions propagate through
 * the future to the caller.
 */

#ifndef MC_EXEC_THREAD_POOL_HH
#define MC_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mc {
namespace exec {

/**
 * Fixed-size FIFO thread pool.
 */
class ThreadPool
{
  public:
    /** Start @p threads workers; values < 1 are clamped to 1. */
    explicit ThreadPool(int threads);

    /** Drains nothing: pending tasks still run before workers exit. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(_workers.size()); }

    /** Tasks submitted so far (diagnostics). */
    std::uint64_t submittedCount() const;

    /**
     * Enqueue @p fn; the returned future yields its result or rethrows
     * its exception. Tasks start in submission order.
     */
    template <typename F>
    auto
    submit(F fn) -> std::future<std::invoke_result_t<F &>>
    {
        using R = std::invoke_result_t<F &>;
        // std::function requires copyable callables, so the
        // packaged_task (move-only) rides in a shared_ptr.
        auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> future = task->get_future();
        post([task]() { (*task)(); });
        return future;
    }

    /** The machine's hardware concurrency, at least 1. */
    static int hardwareThreads();

  private:
    void post(std::function<void()> task);
    void workerLoop();

    mutable std::mutex _mutex;
    std::condition_variable _workReady;
    std::deque<std::function<void()>> _queue;
    std::vector<std::thread> _workers;
    std::uint64_t _submitted = 0;
    bool _stopping = false;
};

/**
 * The process-wide pool shared by library-internal parallelism (the
 * fast functional-GEMM backend, most prominently). Returns a pool with
 * at least @p min_threads workers (values < 1 request the hardware
 * concurrency), growing by *replacement* when a larger request
 * arrives: callers hold the returned shared_ptr for the duration of
 * their fan-out, so a replaced pool stays alive until its last
 * in-flight user drops it and no task is ever stranded. The pool
 * records the pid that built it: a fork() child, which inherits the
 * pool but none of its threads, gets a fresh pool of its own.
 */
std::shared_ptr<ThreadPool> sharedPool(int min_threads);

/**
 * Process-wide ceiling on library-internal fan-out: with a cap of
 * C > 0, sharedPool() requests and parallelChunks() fan-outs are
 * clamped to C workers. 0 (the default) means uncapped.
 *
 * This exists to stop multiplicative oversubscription when independent
 * concurrency knobs compose — most prominently a sweep's --jobs fanning
 * points across the pool while each point's --verify-threads fans its
 * verification GEMM, which used to create jobs x verify-threads
 * runnable threads. Benches set the cap to the hardware concurrency at
 * startup; results are unaffected (chunk contents never depend on the
 * worker count), only scheduling pressure changes.
 */
void setConcurrencyCap(int cap);

/** The current cap (0 = uncapped). */
int concurrencyCap();

/**
 * Split [0, count) into chunks of @p chunk and run
 * @p fn(begin, end) for each on at most min(@p threads, chunks)
 * threads: the caller plus that many minus one shared-pool tasks, all
 * claiming chunk indices from one counter (serial — and pool-free —
 * when @p threads is 1 or there is only one chunk; @p threads < 1
 * requests the hardware concurrency). Blocks until every chunk
 * completed; the exception of the lowest-index failing chunk is
 * rethrown after that barrier.
 *
 * Chunks must be independent. Because the caller drains the counter
 * itself, a call made from a shared-pool worker completes even when
 * no other worker is free. In a fork() child every call is serial.
 */
void parallelChunks(std::size_t count, std::size_t chunk, int threads,
                    const std::function<void(std::size_t, std::size_t)> &fn);

} // namespace exec
} // namespace mc

#endif // MC_EXEC_THREAD_POOL_HH
