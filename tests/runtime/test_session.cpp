/** @file Unit tests for the run_training session facade. */
#include <gtest/gtest.h>

#include "alloc/device_memory.h"
#include "core/check.h"
#include "nn/models.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace runtime {
namespace {

TEST(Session, ProducesTraceAndStats)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_FALSE(r.trace.empty());
    EXPECT_GT(r.end_time, 0u);
    EXPECT_GT(r.iteration_time, 0u);
    EXPECT_LT(r.iteration_time, r.end_time);
    EXPECT_GT(r.usage.peak_total, 0u);
    EXPECT_GT(r.peak_reserved_bytes, 0u);
    EXPECT_EQ(r.alloc_stats.alloc_count, r.alloc_stats.free_count);
}

TEST(Session, RecorderIsReservedForTheExactEventCount)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    config.engine.staging_buffer_bytes = 1024 * 1024;
    config.engine.iterations_per_epoch = 2;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_EQ(r.trace.capacity(), r.trace.size());

    InferenceConfig serving;
    serving.session.batch = 4;
    serving.requests = 5;
    const auto s = run_inference(nn::mlp(), serving);
    EXPECT_EQ(s.session.trace.capacity(),
              s.session.trace.size());
}

/** A small run whose view() has frozen its trace. */
SessionResult
frozen_run()
{
    SessionConfig config;
    config.batch = 8;
    config.iterations = 2;
    SessionResult r = run_training(nn::mlp(), config);
    EXPECT_EQ(r.view().size(), r.trace.size());
    return r;
}

TEST(Session, ViewRejectsATraceChangedAfterTheFreeze)
{
    {
        SessionResult r = frozen_run();
        trace::MemoryEvent last = r.trace.events().back();
        r.trace.record(last);
        EXPECT_THROW(r.view(), Error) << "recorded after view()";
    }
    {
        SessionResult r = frozen_run();
        r.trace.clear();
        EXPECT_THROW(r.view(), Error) << "cleared after view()";
    }
    {
        // Same size, same last timestamp, different events.
        SessionResult r = frozen_run();
        trace::TraceRecorder forged;
        for (trace::MemoryEvent e : r.trace.events()) {
            e.op = forged.intern(r.trace.op_name(e.op));
            e.size += 1;
            forged.record(e);
        }
        ASSERT_EQ(forged.size(), r.trace.size());
        ASSERT_EQ(forged.events().back().time,
                  r.trace.events().back().time);
        r.trace = forged;
        EXPECT_THROW(r.view(), Error) << "replaced after view()";
    }
    {
        // A copy shares the columns and so stays the frozen trace.
        SessionResult r = frozen_run();
        r.trace = trace::TraceRecorder(r.trace);
        EXPECT_EQ(r.view().size(), r.trace.size());
    }
}

TEST(Session, TraceCanBeDisabled)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    config.record_trace = false;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_TRUE(r.trace.empty());
    EXPECT_GT(r.usage.peak_total, 0u);
}

TEST(Session, DirectAllocatorSelectable)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    config.allocator = AllocatorKind::kDirect;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_EQ(r.alloc_stats.cache_hit_count, 0u);
    EXPECT_EQ(r.alloc_stats.alloc_count,
              r.alloc_stats.device_alloc_count);
}

TEST(Session, CachingBeatsDirectOnSimulatedTime)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 10;
    config.record_trace = false;

    config.allocator = AllocatorKind::kCaching;
    const auto caching = run_training(nn::mlp(), config);
    config.allocator = AllocatorKind::kDirect;
    const auto direct = run_training(nn::mlp(), config);

    EXPECT_LT(caching.iteration_time, direct.iteration_time)
        << "driver calls per tensor must cost simulated time";
}

TEST(Session, SingleIterationMeasuresNoSteadyState)
{
    SessionConfig config;
    config.batch = 8;
    config.iterations = 1;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_EQ(r.iteration_time, 0u)
        << "steady-state timing needs >= 2 iterations";
    EXPECT_GT(r.end_time, 0u);
}

TEST(Session, OomSurfacesForOversizedWorkloads)
{
    SessionConfig config;
    config.batch = 2048;  // ResNet-50 at batch 2048 cannot fit 12 GB
    config.iterations = 1;
    EXPECT_THROW(run_training(nn::resnet(50), config),
                 alloc::DeviceOomError);
}

TEST(Session, DeviceIsConfigurable)
{
    SessionConfig config;
    config.batch = 64;
    config.iterations = 2;
    config.device = sim::DeviceSpec::a100_40gb();
    const auto a100 = run_training(nn::resnet(18), config);
    config.device = sim::DeviceSpec::titan_x_pascal();
    const auto titan = run_training(nn::resnet(18), config);
    EXPECT_LT(a100.iteration_time, titan.iteration_time)
        << "the A100 model must be faster";
}

TEST(Session, FragmentationReportedFromDeviceHeap)
{
    SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto r = run_training(nn::mlp(), config);
    EXPECT_GE(r.device_fragmentation, 0.0);
    EXPECT_LE(r.device_fragmentation, 1.0);
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
