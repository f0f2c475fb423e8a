#include "sweep/thread_pool.h"

#include "core/check.h"

namespace pinpoint {
namespace sweep {

ThreadPool::ThreadPool(int threads)
{
    PP_CHECK(threads >= 1,
             "thread pool needs >= 1 worker, got " << threads);
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_available_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        PP_CHECK(!shutdown_, "submit() on a shut-down thread pool");
        queue_.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(
                lock, [this] { return shutdown_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // shutdown with a drained queue
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                all_done_.notify_all();
        }
    }
}

}  // namespace sweep
}  // namespace pinpoint
