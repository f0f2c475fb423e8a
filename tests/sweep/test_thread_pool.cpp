/**
 * @file
 * ThreadPool: every task runs exactly once, wait() means quiescent,
 * and misuse is rejected — the properties the sweep driver's
 * determinism proof rests on.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/check.h"
#include "sweep/thread_pool.h"

namespace pinpoint {
namespace sweep {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> runs(kTasks);
    {
        ThreadPool pool(4);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&runs, i] { runs[i].fetch_add(1); });
        pool.wait();
        for (int i = 0; i < kTasks; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, WaitBlocksUntilAllTasksFinish)
{
    std::atomic<int> done{0};
    ThreadPool pool(3);
    for (int i = 0; i < 12; ++i)
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            done.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(done.load(), 12);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();  // nothing submitted: must not deadlock
    SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&done] { done.fetch_add(1); });
        // No wait(): destruction itself must run everything.
    }
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks)
{
    std::atomic<int> done{0};
    ThreadPool pool(2);
    pool.submit([&] {
        done.fetch_add(1);
        pool.submit([&done] { done.fetch_add(1); });
    });
    // wait() covers transitively-submitted work too: the queue must
    // be empty AND no task in flight.
    while (done.load() < 2)
        std::this_thread::yield();
    pool.wait();
    EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, ReportsThreadCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3);
}

TEST(ThreadPool, RejectsNonPositiveThreadCount)
{
    EXPECT_THROW(ThreadPool(0), Error);
    EXPECT_THROW(ThreadPool(-4), Error);
}

TEST(ThreadPool, ManyWorkersFewTasks)
{
    std::atomic<int> done{0};
    ThreadPool pool(8);
    pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 1);
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
