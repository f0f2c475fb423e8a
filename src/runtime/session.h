/**
 * @file
 * One-call training-characterization API: build a plan, run the
 * simulated training, return the trace and summary statistics.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "analysis/swap_model.h"
#include "analysis/trace_view.h"
#include "core/once.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/engine.h"
#include "runtime/plan.h"
#include "runtime/plan_builder.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device_spec.h"
#include "swap/planner.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace alloc {
class DeviceMemory;
}  // namespace alloc
namespace runtime {

/** What kind of session a workload runs. */
enum class SessionMode : std::uint8_t {
    kTrain,  ///< forward + backward + optimizer iterations
    kInfer,  ///< forward-only serving requests (request_stream.h)
};

/** Number of SessionMode enumerators. */
inline constexpr int kNumSessionModes = 2;

/** @return short name ("train", "infer"). */
const char *session_mode_name(SessionMode mode);

/** @return every session mode name, in enumerator order. */
std::vector<std::string> session_mode_names();

/**
 * @return the mode named @p name.
 * @throws UsageError (mode names are user input) for unknown names.
 */
SessionMode session_mode_from_name(const std::string &name);

/** Which allocator backs the run. */
enum class AllocatorKind : std::uint8_t {
    kCaching,  ///< PyTorch-style caching allocator (the paper's setup)
    kDirect,   ///< raw cudaMalloc/cudaFree baseline
    kBuddy,    ///< binary buddy arena (kernel-style ablation point)
};

/** Number of AllocatorKind enumerators. */
inline constexpr int kNumAllocatorKinds = 3;

/** @return short name ("caching", "direct", "buddy"). */
const char *allocator_kind_name(AllocatorKind kind);

/** @return every allocator kind name, in enumerator order. */
std::vector<std::string> allocator_names();

/**
 * @return the kind named @p name.
 * @throws UsageError (allocator names are user input) for unknown
 * names.
 */
AllocatorKind allocator_kind_from_name(const std::string &name);

/** Full configuration of a characterization run. */
struct SessionConfig {
    /** Batch size. */
    std::int64_t batch = 32;
    /** Number of training iterations to simulate. */
    int iterations = 5;
    /** Simulated device (defaults to the paper's Titan X Pascal). */
    sim::DeviceSpec device = sim::DeviceSpec::titan_x_pascal();
    /** Allocator selection. */
    AllocatorKind allocator = AllocatorKind::kCaching;
    /** Plan lowering options. */
    PlanOptions plan;
    /** Engine options (staging buffer etc.). */
    EngineOptions engine;
    /** Record the memory-event trace (disable for pure timing). */
    bool record_trace = true;
};

/**
 * Once-built TraceView cache of one SessionResult. Held behind a
 * shared_ptr so moves (and copies) of the result carry the cache
 * instead of forking or resetting it.
 */
struct TraceViewSlot {
    OnceFlag once;
    std::unique_ptr<const analysis::TraceView> view;
};

/** Everything a characterization run produces. */
struct SessionResult {
    /** The recorded memory behaviors. */
    trace::TraceRecorder trace;
    /** The plan that was executed. */
    Plan plan;
    /** Allocator counters at the end of the run. */
    alloc::AllocatorStats alloc_stats;
    /** Engine per-category accounting. */
    MemoryUsage usage;
    /** Simulated time at the end of the run. */
    TimeNs end_time = 0;
    /** Simulated wall time of one steady-state iteration. */
    TimeNs iteration_time = 0;
    /** Device reservation high-water mark. */
    std::size_t peak_reserved_bytes = 0;
    /** External fragmentation of the device heap at the end. */
    double device_fragmentation = 0.0;

    /**
     * The run's shared analysis::TraceView: built from `trace` on
     * first call (one build per run, OnceFlag), then returned
     * by reference forever after. Everything downstream — every
     * api::Study facet — routes through this one snapshot. Call
     * only after the run is complete (the trace must be frozen).
     * @throws Error when `trace` no longer holds the frozen events:
     * any record, clear, reserve or replacement after the first call.
     */
    const analysis::TraceView &view() const;

  private:
    /** Shared so moved/copied results keep one cache. */
    std::shared_ptr<TraceViewSlot> view_slot_ =
        std::make_shared<TraceViewSlot>();
};

/**
 * @return a freshly constructed allocator of @p kind over @p device.
 * The one construction rule shared by run_training and
 * run_inference, so both session drivers price the same heap.
 */
std::unique_ptr<alloc::Allocator>
make_session_allocator(AllocatorKind kind, alloc::DeviceMemory &device,
                       sim::VirtualClock &clock,
                       const sim::CostModel &cost);

/**
 * The scaffold run_training and run_inference share: executes
 * @p result.plan on a fresh simulated device of @p config (clock,
 * cost model, allocator, and a trace reserved for @p runs plan
 * runs), lets @p drive run the engine (the part training and serving
 * differ in), then fills @p result's usage, end time,
 * fragmentation, allocator stats (after teardown) and peak reserved
 * bytes.
 */
void run_session(
    SessionResult &result, const SessionConfig &config, int runs,
    const std::function<void(Engine &, sim::VirtualClock &)> &drive);

/**
 * Runs the full pipeline: plan @p model at @p config.batch, execute
 * @p config.iterations iterations on a fresh simulated device, and
 * collect the trace plus summary statistics.
 *
 * @throws Error (or DeviceOomError) when the workload cannot run.
 */
SessionResult run_training(const nn::Model &model,
                           const SessionConfig &config = {});

/**
 * @return @p link with unset (<= 0) bandwidths filled from
 * @p device's measured PCIe rates, keeping any caller override.
 * The one fill rule behind both fill_swap_link and the relief
 * planners, so no two pipeline stages can price different host
 * links for the same device.
 */
analysis::LinkBandwidth
fill_link_bandwidth(analysis::LinkBandwidth link,
                    const sim::DeviceSpec &device);

/**
 * @return @p options with unset (<= 0) link bandwidths filled from
 * @p device: fill_link_bandwidth applied to a swap planner's link.
 */
swap::PlannerOptions
fill_swap_link(swap::PlannerOptions options,
               const sim::DeviceSpec &device);

}  // namespace runtime
}  // namespace pinpoint

