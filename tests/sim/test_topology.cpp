/**
 * @file
 * Multi-device topology: interconnect presets, ring all-reduce leg
 * arithmetic against hand-computed schedules, and the contended vs
 * dedicated ordering the stateful peer links exist to expose.
 */
#include <gtest/gtest.h>

#include "analysis/swap_model.h"
#include "core/check.h"
#include "sim/topology.h"

namespace pinpoint {
namespace sim {
namespace {

/** Round-number interconnect: 1 GB/s (decimal), 500 ns setup. */
InterconnectSpec
test_interconnect()
{
    InterconnectSpec s;
    s.name = "test link";
    s.peer_bw_bps = 1e9;
    s.latency_ns = 500;
    return s;
}

TEST(InterconnectPresets, LookupByName)
{
    const InterconnectSpec pcie = interconnect_by_name("pcie");
    EXPECT_EQ(pcie.name, InterconnectSpec::pcie_p2p().name);
    EXPECT_GT(pcie.peer_bw_bps, 0.0);

    const InterconnectSpec nvlink = interconnect_by_name("nvlink");
    EXPECT_EQ(nvlink.name, InterconnectSpec::nvlink().name);
    // The NVLink-class preset must actually be the faster one.
    EXPECT_GT(nvlink.peer_bw_bps, pcie.peer_bw_bps);
    EXPECT_LT(nvlink.latency_ns, pcie.latency_ns);

    EXPECT_EQ(interconnect_names(),
              (std::vector<std::string>{"pcie", "nvlink"}));
}

TEST(InterconnectPresets, UnknownNameIsATypedUsageError)
{
    EXPECT_THROW(interconnect_by_name("infiniband"), UsageError);
    try {
        interconnect_by_name("infiniband");
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown topology 'infiniband'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("pcie, nvlink"), std::string::npos) << msg;
    }
}

TEST(Topology, ConstructionValidates)
{
    EXPECT_THROW(
        Topology(DeviceSpec::tiny_test_device(), 0,
                 test_interconnect()),
        Error);
    // A single device needs no interconnect at all.
    EXPECT_NO_THROW(Topology(DeviceSpec::tiny_test_device(), 1,
                             InterconnectSpec{}));
    // Multiple devices do.
    EXPECT_THROW(Topology(DeviceSpec::tiny_test_device(), 2,
                          InterconnectSpec{}),
                 Error);
}

TEST(RingAllReduce, IdealMatchesHandComputation)
{
    // 4 MB over 4 devices on a 1 GB/s, 500 ns link:
    //   chunk = 1'000'000 B -> 1'000'000 ns per transfer,
    //   step  = 500 + 1'000'000,
    //   steps = 2 * (4 - 1) = 6,
    //   ideal = 6 * 1'000'500 = 6'003'000 ns.
    EXPECT_EQ(ring_all_reduce_ideal_ns(4'000'000, 4,
                                       test_interconnect()),
              6'003'000);
    // Chunks round up: 10 B over 4 devices is a 3 B chunk.
    EXPECT_EQ(ring_all_reduce_ideal_ns(10, 4, test_interconnect()),
              6 * (500 + analysis::transfer_ns(3, 1e9)));
    // Degenerate cases price to zero.
    EXPECT_EQ(ring_all_reduce_ideal_ns(4'000'000, 1,
                                       test_interconnect()),
              0);
    EXPECT_EQ(ring_all_reduce_ideal_ns(0, 4, test_interconnect()),
              0);
}

TEST(RingAllReduce, LegArithmeticOnAnIdleRing)
{
    Topology t(DeviceSpec::tiny_test_device(), 4,
               test_interconnect());
    const AllReduceResult ar = t.all_reduce(4'000'000, 1000);

    EXPECT_EQ(ar.devices, 4);
    EXPECT_EQ(ar.bytes, 4'000'000u);
    EXPECT_EQ(ar.chunk_bytes, 1'000'000u);
    EXPECT_EQ(ar.ready, 1000);
    // 6 lockstep steps x 4 ring edges.
    ASSERT_EQ(ar.legs.size(), 24u);
    // On an idle ring every step takes latency + chunk transfer and
    // the finish is exactly the dedicated-ring ideal.
    EXPECT_EQ(ar.ideal_ns, 6'003'000);
    EXPECT_EQ(ar.duration(), ar.ideal_ns);
    EXPECT_EQ(ar.finish, 1000 + 6'003'000);
    EXPECT_EQ(ar.stall_ns(), 0);

    // Legs are in (step, device) order, lockstep per step.
    for (int step = 0; step < 6; ++step) {
        const TimeNs step_start =
            1000 + static_cast<TimeNs>(step) * 1'000'500;
        for (int d = 0; d < 4; ++d) {
            const CollectiveLeg &leg =
                ar.legs[static_cast<std::size_t>(step * 4 + d)];
            EXPECT_EQ(leg.step, step);
            EXPECT_EQ(leg.device, d);
            EXPECT_EQ(leg.transfer.bytes, 1'000'000u);
            EXPECT_EQ(leg.transfer.ready_time, step_start);
            EXPECT_EQ(leg.transfer.start_time, step_start);
            EXPECT_EQ(leg.transfer.end_time,
                      step_start + 1'000'500);
        }
    }
}

TEST(RingAllReduce, SingleDeviceIsANoOp)
{
    Topology t(DeviceSpec::tiny_test_device(), 1,
               test_interconnect());
    const AllReduceResult ar = t.all_reduce(4'000'000, 777);
    EXPECT_TRUE(ar.legs.empty());
    EXPECT_EQ(ar.finish, 777);
    EXPECT_EQ(ar.duration(), 0);
    EXPECT_EQ(ar.ideal_ns, 0);
}

TEST(RingAllReduce, ContendedIsNeverFasterThanDedicated)
{
    // Two all-reduces with overlapping ready times: the second
    // queues behind the first's traffic on every edge, so its legs
    // slip and the slip is reported as stall.
    Topology t(DeviceSpec::tiny_test_device(), 4,
               test_interconnect());
    const AllReduceResult first = t.all_reduce(4'000'000, 0);
    const AllReduceResult second = t.all_reduce(4'000'000, 0);

    EXPECT_EQ(first.duration(), first.ideal_ns);
    EXPECT_GE(second.duration(), second.ideal_ns);
    EXPECT_GT(second.stall_ns(), 0);
    // FIFO per edge: the second collective's step-0 legs start only
    // after the first collective's traffic drains.
    EXPECT_GE(second.legs.front().transfer.start_time,
              first.legs.back().transfer.end_time);
}

TEST(Topology, BusyFractionAveragesTheRingEdges)
{
    Topology t(DeviceSpec::tiny_test_device(), 2,
               test_interconnect());
    EXPECT_DOUBLE_EQ(t.interconnect_busy_fraction(1'000'000), 0.0);
    const AllReduceResult ar = t.all_reduce(2'000'000, 0);
    const double busy = t.interconnect_busy_fraction(ar.finish);
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy, 1.0);

    Topology one(DeviceSpec::tiny_test_device(), 1,
                 test_interconnect());
    EXPECT_DOUBLE_EQ(one.interconnect_busy_fraction(1'000'000), 0.0);
}

}  // namespace
}  // namespace sim
}  // namespace pinpoint
