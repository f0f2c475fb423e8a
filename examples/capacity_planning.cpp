/**
 * @file
 * Capacity planning: the question the paper's introduction motivates
 * ("the memory capacity constraint limits the size of DNNs that can
 * be trained"). For each model, find the largest batch size that
 * fits a device by probing the simulator, and show where the memory
 * goes at that batch.
 *
 * Build & run:  ./build/examples/capacity_planning
 */
#include <cstdio>
#include <functional>

#include "alloc/device_memory.h"
#include "api/study.h"
#include "api/workload.h"
#include "core/format.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "sim/device_spec.h"

using namespace pinpoint;

namespace {

/** @return true when the workload fits the device. */
bool
fits(const nn::Model &model, std::int64_t batch,
     const sim::DeviceSpec &device)
{
    runtime::SessionConfig config;
    config.batch = batch;
    // Probe with the same iteration count the report uses: at the
    // capacity edge, iteration-to-iteration cache fragmentation can
    // make a batch that survives one iteration OOM on the second.
    config.iterations = 2;
    config.device = device;
    config.record_trace = false;
    try {
        runtime::run_training(model, config);
        return true;
    } catch (const alloc::DeviceOomError &) {
        return false;
    }
}

/** Largest power-of-two-refined batch that fits. */
std::int64_t
max_batch(const nn::Model &model, const sim::DeviceSpec &device)
{
    if (!fits(model, 1, device))
        return 0;
    std::int64_t lo = 1;
    std::int64_t hi = 2;
    while (fits(model, hi, device) && hi < 65536) {
        lo = hi;
        hi *= 2;
    }
    while (lo + 1 < hi) {
        const std::int64_t mid = (lo + hi) / 2;
        (fits(model, mid, device) ? lo : hi) = mid;
    }
    return lo;
}

void
plan(const nn::Model &model, const sim::DeviceSpec &device)
{
    const std::int64_t batch = max_batch(model, device);
    if (batch == 0) {
        std::printf("%-14s does not fit at batch 1\n",
                    model.name.c_str());
        return;
    }
    // Characterize the found edge batch through the run artifact:
    // the breakdown is a cached Study facet, shared with any other
    // analysis a caller might add.
    api::WorkloadSpec spec;
    spec.model = model.name;
    spec.batch = batch;
    spec.iterations = 2;
    const std::string preset = sim::device_preset_name(device);
    if (!preset.empty())
        spec.device = preset;
    runtime::SessionConfig config = spec.session_config();
    // Honor the exact spec, including custom (non-preset) devices
    // a caller may pass; the spec's device string is display-only.
    config.device = device;
    runtime::SessionResult session;
    try {
        session = runtime::run_training(model, config);
    } catch (const alloc::DeviceOomError &) {
        std::printf("%-14s probe raced fragmentation at batch %lld\n",
                    model.name.c_str(), static_cast<long long>(batch));
        return;
    }
    const api::Study study(spec, std::move(session), device);
    const auto &b = study.breakdown();
    std::printf("%-14s max batch %5lld  peak %10s  "
                "(interm %s, params %s)\n",
                model.name.c_str(), static_cast<long long>(batch),
                format_bytes(b.peak_total()).c_str(),
                format_percent(b.fraction(Category::kIntermediate))
                    .c_str(),
                format_percent(b.fraction(Category::kParameter))
                    .c_str());
}

}  // namespace

int
main()
{
    const auto models = {
        std::function<nn::Model()>([] { return nn::alexnet_cifar(); }),
        std::function<nn::Model()>([] { return nn::resnet(18); }),
        std::function<nn::Model()>([] { return nn::resnet(50); }),
        std::function<nn::Model()>([] { return nn::resnet(152); }),
        std::function<nn::Model()>([] { return nn::vgg16(); }),
    };

    for (const auto &device : {sim::DeviceSpec::titan_x_pascal(),
                               sim::DeviceSpec::a100_40gb()}) {
        std::printf("=== %s (%s) ===\n", device.name.c_str(),
                    format_bytes(device.dram_bytes).c_str());
        for (const auto &build : models)
            plan(build(), device);
        std::printf("\n");
    }
    std::printf("takeaway: intermediates set the batch ceiling; the "
                "40 GB Ampere part raises every ceiling ~3-4x, "
                "exactly the capacity race the paper's intro "
                "describes.\n");
    return 0;
}
