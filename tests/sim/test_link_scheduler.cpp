/** @file Unit tests for the shared-link transfer scheduler. */
#include <gtest/gtest.h>

#include "analysis/swap_model.h"
#include "core/check.h"
#include "sim/device_spec.h"
#include "sim/link_scheduler.h"

namespace pinpoint {
namespace sim {
namespace {

constexpr double kBps = 1e9;  // 1 GB/s: 1 byte per nanosecond
constexpr std::size_t kGB = 1000 * 1000 * 1000;

TEST(LinkScheduler, SameDirectionTransfersSerialize)
{
    LinkScheduler link(kBps, kBps);
    const auto a =
        link.submit(CopyDir::kDeviceToHost, kGB, 0);
    EXPECT_EQ(a.start_time, 0u);
    EXPECT_EQ(a.end_time, kNsPerSec);
    EXPECT_EQ(a.queue_delay(), 0u);

    // Ready at 0 but the channel is busy until 1 s: FIFO queues it.
    const auto b = link.submit(CopyDir::kDeviceToHost, kGB, 0);
    EXPECT_EQ(b.start_time, kNsPerSec);
    EXPECT_EQ(b.end_time, 2 * kNsPerSec);
    EXPECT_EQ(b.queue_delay(), kNsPerSec);
}

TEST(LinkScheduler, OppositeDirectionsAreFullDuplex)
{
    LinkScheduler link(kBps, kBps);
    link.submit(CopyDir::kDeviceToHost, kGB, 0);
    const auto in = link.submit(CopyDir::kHostToDevice, kGB, 0);
    EXPECT_EQ(in.start_time, 0u)
        << "an H2D copy must not queue behind D2H traffic";
    EXPECT_EQ(in.queue_delay(), 0u);
}

TEST(LinkScheduler, IdleGapsAreNotBusyTime)
{
    LinkScheduler link(kBps, kBps);
    link.submit(CopyDir::kDeviceToHost, kGB, 0);
    // Ready long after the channel drained: starts on time.
    const auto late =
        link.submit(CopyDir::kDeviceToHost, kGB, 5 * kNsPerSec);
    EXPECT_EQ(late.start_time, 5 * kNsPerSec);
    EXPECT_EQ(link.busy_time(CopyDir::kDeviceToHost),
              2 * kNsPerSec)
        << "the idle gap between transfers is not busy time";
    EXPECT_EQ(link.busy_until(CopyDir::kDeviceToHost),
              6 * kNsPerSec);
}

TEST(LinkScheduler, DurationsUseTheSharedRoundingHelper)
{
    const DeviceSpec spec = DeviceSpec::titan_x_pascal();
    LinkScheduler link(spec.d2h_bw_bps, spec.h2d_bw_bps);
    const std::size_t odd = 333333333;
    const auto t = link.submit(CopyDir::kDeviceToHost, odd, 0);
    EXPECT_EQ(t.duration(),
              analysis::transfer_ns(odd, spec.d2h_bw_bps));
}

TEST(LinkScheduler, BusyFractionAveragesBothDirections)
{
    LinkScheduler link(kBps, kBps);
    EXPECT_EQ(link.busy_fraction(kNsPerSec), 0.0);
    link.submit(CopyDir::kDeviceToHost, kGB, 0);
    // One of two channels busy the full window.
    EXPECT_DOUBLE_EQ(link.busy_fraction(kNsPerSec), 0.5);
    link.submit(CopyDir::kHostToDevice, kGB, 0);
    EXPECT_DOUBLE_EQ(link.busy_fraction(kNsPerSec), 1.0);
    // A wider window dilutes the occupancy.
    EXPECT_DOUBLE_EQ(link.busy_fraction(2 * kNsPerSec), 0.5);
}

TEST(LinkScheduler, BusyFractionWindowClampsToScheduledTraffic)
{
    LinkScheduler link(kBps, kBps);
    link.submit(CopyDir::kDeviceToHost, kGB, 0);
    // A window shorter than the traffic cannot exceed saturation.
    EXPECT_DOUBLE_EQ(link.busy_fraction(0), 0.5);
    EXPECT_LE(link.busy_fraction(1), 1.0);
}

TEST(LinkScheduler, TracksTransfersPerDirection)
{
    LinkScheduler link(kBps, 2 * kBps);
    const auto first = link.submit(CopyDir::kDeviceToHost, 100, 0);
    const auto second = link.submit(CopyDir::kDeviceToHost, 200, 0);
    const auto third = link.submit(CopyDir::kHostToDevice, 50, 0);
    EXPECT_EQ(link.busy_time(CopyDir::kDeviceToHost), 300u);
    EXPECT_EQ(link.busy_time(CopyDir::kHostToDevice), third.duration());
    EXPECT_EQ(link.bandwidth_bps(CopyDir::kHostToDevice), 2 * kBps);

    // Each returned slot describes its own transfer: the second D2H
    // copy queues behind the first, the H2D copy does not.
    EXPECT_EQ(first.dir, CopyDir::kDeviceToHost);
    EXPECT_EQ(first.bytes, 100u);
    EXPECT_EQ(first.ready_time, 0u);
    EXPECT_EQ(first.start_time, 0u);
    EXPECT_EQ(first.end_time, 100u);
    EXPECT_EQ(second.dir, CopyDir::kDeviceToHost);
    EXPECT_EQ(second.bytes, 200u);
    EXPECT_EQ(second.ready_time, 0u);
    EXPECT_EQ(second.start_time, first.end_time);
    EXPECT_EQ(second.end_time, 300u);
    EXPECT_EQ(second.queue_delay(), 100u);
    EXPECT_EQ(second.duration(), 200u);
    EXPECT_EQ(third.dir, CopyDir::kHostToDevice);
    EXPECT_EQ(third.bytes, 50u);
    EXPECT_EQ(third.start_time, 0u);
    EXPECT_EQ(third.end_time, 25u);
    EXPECT_EQ(third.queue_delay(), 0u);
    EXPECT_EQ(link.busy_until(CopyDir::kDeviceToHost), second.end_time);
    EXPECT_EQ(link.busy_time(CopyDir::kDeviceToHost),
              first.duration() + second.duration());
}

TEST(LinkScheduler, RejectsNonPositiveBandwidth)
{
    EXPECT_THROW(LinkScheduler(0.0, kBps), Error);
    EXPECT_THROW(LinkScheduler(kBps, -1.0), Error);
}

}  // namespace
}  // namespace sim
}  // namespace pinpoint
