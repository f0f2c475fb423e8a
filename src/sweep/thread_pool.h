/**
 * @file
 * Fixed-size worker pool with a FIFO work queue — the concurrency
 * substrate of the sweep driver. Deliberately minimal: submit
 * void() tasks, wait for quiescence, destroy. Determinism of sweep
 * output is achieved above this layer (results are written to
 * pre-assigned slots), so the pool itself needs no ordering
 * guarantees beyond running every task exactly once.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pinpoint {
namespace sweep {

/**
 * A fixed pool of worker threads draining a shared FIFO queue.
 * Tasks must not throw: an escaping exception would terminate the
 * process (std::terminate from the worker loop), so callers wrap
 * fallible work and capture errors in their result slots.
 */
class ThreadPool
{
  public:
    /**
     * Starts @p threads workers.
     * @throws Error when @p threads < 1.
     */
    explicit ThreadPool(int threads);

    /** Waits for quiescence, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueues @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Blocks until every submitted task has finished running. */
    void wait();

    /** @return number of worker threads. */
    int threads() const { return static_cast<int>(workers_.size()); }

  private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace sweep
}  // namespace pinpoint

