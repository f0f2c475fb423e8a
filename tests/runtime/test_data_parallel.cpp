/**
 * @file
 * Data-parallel runtime: one simulated replica standing for N
 * identical devices, one ring all-reduce per iteration priced on the
 * peer interconnect, and the scaling-efficiency accounting the sweep
 * columns are built from.
 */
#include <gtest/gtest.h>

#include <utility>

#include "core/check.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "runtime/data_parallel.h"
#include "runtime/session.h"
#include "sim/topology.h"
#include "trace/event.h"

namespace pinpoint {
namespace runtime {
namespace {

DataParallelConfig
mlp_config(int devices, sim::InterconnectSpec interconnect)
{
    DataParallelConfig config;
    config.session.batch = 16;
    config.session.iterations = 3;
    config.session.device = sim::DeviceSpec::titan_x_pascal();
    config.devices = devices;
    config.interconnect = interconnect;
    return config;
}

TEST(DataParallel, SingleDeviceIsTheDegenerateCase)
{
    const auto result = run_data_parallel(
        nn::build_model("mlp"),
        mlp_config(1, sim::InterconnectSpec::pcie_p2p()));
    EXPECT_EQ(result.devices, 1);
    EXPECT_EQ(result.allreduce_time, 0);
    EXPECT_EQ(result.allreduce_stall(), 0);
    EXPECT_EQ(result.iteration_time(), result.compute_iteration_time);
    EXPECT_DOUBLE_EQ(result.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(result.interconnect_busy_fraction, 0.0);
    EXPECT_EQ(result.allreduce_ideal_time, 0);
}

TEST(DataParallel, TheReplicaIsAnIndependentTrainingRun)
{
    // The stored session stands for every device, so it must be
    // exactly what one device computes on its own.
    const nn::Model model = nn::build_model("mlp");
    const DataParallelConfig config =
        mlp_config(4, sim::InterconnectSpec::pcie_p2p());
    const auto result = run_data_parallel(model, config);
    const SessionResult solo = run_training(model, config.session);

    const SessionResult &replica = result.session;
    ASSERT_EQ(replica.trace.size(), solo.trace.size());
    ASSERT_GT(solo.trace.size(), 0u);
    for (std::size_t i = 0; i < solo.trace.size(); ++i) {
        const trace::MemoryEvent &a = replica.trace.events()[i];
        const trace::MemoryEvent &b = solo.trace.events()[i];
        ASSERT_EQ(a.time, b.time) << "event " << i;
        ASSERT_EQ(a.kind, b.kind) << "event " << i;
        ASSERT_EQ(a.block, b.block) << "event " << i;
        ASSERT_EQ(a.ptr, b.ptr) << "event " << i;
        ASSERT_EQ(a.size, b.size) << "event " << i;
        ASSERT_EQ(a.tensor, b.tensor) << "event " << i;
        ASSERT_EQ(a.category, b.category) << "event " << i;
        ASSERT_EQ(a.iteration, b.iteration) << "event " << i;
        ASSERT_EQ(a.op_index, b.op_index) << "event " << i;
        ASSERT_EQ(replica.trace.op_name(a.op), solo.trace.op_name(b.op))
            << "event " << i;
    }
    EXPECT_EQ(replica.end_time, solo.end_time);
    EXPECT_EQ(replica.iteration_time, solo.iteration_time);
    EXPECT_GT(replica.iteration_time, 0);
    EXPECT_EQ(result.compute_iteration_time, solo.iteration_time);
    EXPECT_EQ(replica.usage.current, solo.usage.current);
    EXPECT_EQ(replica.usage.peak, solo.usage.peak);
    EXPECT_EQ(replica.usage.peak_total, solo.usage.peak_total);
    EXPECT_EQ(replica.usage.at_peak, solo.usage.at_peak);
}

TEST(DataParallel, AllReducePaysForTheGradientBytes)
{
    const sim::InterconnectSpec pcie =
        sim::InterconnectSpec::pcie_p2p();
    const auto result =
        run_data_parallel(nn::build_model("mlp"), mlp_config(4, pcie));

    EXPECT_EQ(result.gradient_bytes,
              result.session.plan.parameter_bytes());
    EXPECT_GT(result.gradient_bytes, 0u);

    // The lockstep schedule serializes collectives, so the steady
    // state matches the dedicated ring and the effective iteration
    // is compute plus the exposed collective.
    EXPECT_EQ(result.allreduce_time, result.allreduce_ideal_time);
    EXPECT_EQ(result.allreduce_ideal_time,
              sim::ring_all_reduce_ideal_ns(result.gradient_bytes, 4,
                                            pcie));
    EXPECT_EQ(result.allreduce_stall(), 0);
    EXPECT_EQ(result.iteration_time(),
              result.compute_iteration_time + result.allreduce_time);

    // Efficiency is the computing fraction of the iteration.
    EXPECT_GT(result.scaling_efficiency(), 0.0);
    EXPECT_LT(result.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(
        result.scaling_efficiency(),
        static_cast<double>(result.compute_iteration_time) /
            static_cast<double>(result.iteration_time()));
    EXPECT_GT(result.interconnect_busy_fraction, 0.0);
    EXPECT_LE(result.interconnect_busy_fraction, 1.0);
    // The busy fraction counts all three iterations' collectives:
    // each edge is busy for one dedicated ring per iteration, in one
    // direction, over three effective iterations.
    EXPECT_DOUBLE_EQ(
        result.interconnect_busy_fraction,
        static_cast<double>(3 * result.allreduce_ideal_time) /
            (2.0 * static_cast<double>(3 * result.iteration_time())));
}

TEST(DataParallel, DerivedTimesFollowTheScheduledCollectives)
{
    // The derived times against a replay of the lockstep schedule:
    // the effective iteration is compute plus the last collective,
    // the stall is that collective's, and the efficiency is the
    // computing fraction of the effective iteration.
    const nn::Model model = nn::build_model("mlp");
    for (const auto &[devices, interconnect] :
         {std::pair{2, sim::InterconnectSpec::nvlink()},
          std::pair{4, sim::InterconnectSpec::pcie_p2p()}}) {
        SCOPED_TRACE(devices);
        const DataParallelConfig config =
            mlp_config(devices, interconnect);
        const auto result = run_data_parallel(model, config);
        sim::Topology topology(config.session.device, devices,
                               interconnect);
        TimeNs now = 0;
        sim::AllReduceResult last;
        for (int i = 0; i < config.session.iterations; ++i) {
            now += result.compute_iteration_time;
            last = topology.all_reduce(result.gradient_bytes, now);
            now = last.finish;
        }
        const TimeNs iteration =
            result.compute_iteration_time + last.duration();
        EXPECT_EQ(result.allreduce_time, last.duration());
        EXPECT_EQ(result.allreduce_ideal_time, last.ideal_ns);
        EXPECT_EQ(result.allreduce_stall(), last.stall_ns());
        EXPECT_EQ(result.iteration_time(), iteration);
        EXPECT_DOUBLE_EQ(
            result.scaling_efficiency(),
            static_cast<double>(result.compute_iteration_time) /
                static_cast<double>(iteration));
    }

    // The stall saturates at 0 below the dedicated ring, and a
    // result without time is fully efficient.
    DataParallelResult slipped;
    slipped.allreduce_ideal_time = 100;
    slipped.allreduce_time = 150;
    EXPECT_EQ(slipped.allreduce_stall(), 50);
    slipped.allreduce_time = 90;
    EXPECT_EQ(slipped.allreduce_stall(), 0);
    const DataParallelResult empty;
    EXPECT_EQ(empty.iteration_time(), 0);
    EXPECT_EQ(empty.allreduce_stall(), 0);
    EXPECT_DOUBLE_EQ(empty.scaling_efficiency(), 1.0);
}

TEST(DataParallel, FasterInterconnectScalesBetter)
{
    const nn::Model model = nn::build_model("mlp");
    const auto pcie = run_data_parallel(
        model, mlp_config(4, sim::InterconnectSpec::pcie_p2p()));
    const auto nvlink = run_data_parallel(
        model, mlp_config(4, sim::InterconnectSpec::nvlink()));

    // Same compute, cheaper synchronization.
    EXPECT_EQ(pcie.compute_iteration_time,
              nvlink.compute_iteration_time);
    EXPECT_LT(nvlink.allreduce_time, pcie.allreduce_time);
    EXPECT_GT(nvlink.scaling_efficiency(), pcie.scaling_efficiency());
}

TEST(DataParallel, EfficiencyDegradesWithTheRingLength)
{
    // 2*(N-1) lockstep steps: more devices means a longer exposed
    // collective for the same gradient payload.
    const nn::Model model = nn::build_model("mlp");
    const auto two = run_data_parallel(
        model, mlp_config(2, sim::InterconnectSpec::pcie_p2p()));
    const auto eight = run_data_parallel(
        model, mlp_config(8, sim::InterconnectSpec::pcie_p2p()));
    EXPECT_GT(eight.allreduce_time, two.allreduce_time);
    EXPECT_LT(eight.scaling_efficiency(), two.scaling_efficiency());
}

TEST(DataParallel, RejectsNonPositiveDeviceCounts)
{
    DataParallelConfig config =
        mlp_config(0, sim::InterconnectSpec::pcie_p2p());
    EXPECT_THROW(run_data_parallel(nn::build_model("mlp"), config),
                 Error);
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
