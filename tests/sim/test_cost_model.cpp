/** @file Unit tests for the roofline CostModel. */
#include <gtest/gtest.h>

#include "core/check.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace sim {
namespace {

DeviceSpec
simple_spec()
{
    DeviceSpec s;
    s.name = "unit";
    s.dram_bytes = 1ull << 30;
    s.dram_bw_bps = 1e9;      // 1 GB/s: 1 byte == 1 ns
    s.fp32_flops = 1e9;       // 1 GFLOP/s: 1 flop == 1 ns
    s.launch_overhead_ns = 100;
    s.h2d_bw_bps = 1e8;
    s.d2h_bw_bps = 2e8;
    s.memcpy_latency_ns = 50;
    return s;
}

TEST(CostModel, ComputeBoundKernel)
{
    CostModel m(simple_spec());
    // 10k flops vs 1k bytes of traffic: compute dominates.
    EXPECT_EQ(m.kernel_time(10000.0, 500, 500), 100u + 10000u);
}

TEST(CostModel, MemoryBoundKernel)
{
    CostModel m(simple_spec());
    // 100 flops vs 10k bytes of traffic: memory dominates.
    EXPECT_EQ(m.kernel_time(100.0, 6000, 4000), 100u + 10000u);
}

TEST(CostModel, ZeroWorkIsJustLaunchOverhead)
{
    CostModel m(simple_spec());
    EXPECT_EQ(m.kernel_time(0.0, 0, 0), 100u);
}

TEST(CostModel, NegativeFlopsRejected)
{
    CostModel m(simple_spec());
    EXPECT_THROW(m.kernel_time(-1.0, 0, 0), Error);
}

TEST(CostModel, H2dTimeIsLatencyPlusBandwidth)
{
    CostModel m(simple_spec());
    // 1e8 bytes at 1e8 B/s = 1 s.
    EXPECT_EQ(m.h2d_time(100000000), 50u + kNsPerSec);
}

TEST(CostModel, D2hUsesItsOwnBandwidth)
{
    CostModel m(simple_spec());
    EXPECT_EQ(m.d2h_time(200000000), 50u + kNsPerSec);
}

TEST(CostModel, DriverCallTimesComeFromSpec)
{
    DeviceSpec s = simple_spec();
    s.cuda_malloc_ns = 1234;
    s.cuda_free_ns = 567;
    CostModel m(s);
    EXPECT_EQ(m.cuda_malloc_time(), 1234u);
    EXPECT_EQ(m.cuda_free_time(), 567u);
}

TEST(CostModel, MonotonicInTraffic)
{
    CostModel m(simple_spec());
    TimeNs prev = 0;
    for (std::size_t bytes = 1024; bytes <= 1024 * 1024; bytes *= 2) {
        const TimeNs t = m.kernel_time(0.0, bytes, bytes);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

}  // namespace
}  // namespace sim
}  // namespace pinpoint
