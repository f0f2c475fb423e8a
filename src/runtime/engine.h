/**
 * @file
 * Discrete-event training engine: executes a Plan against the
 * simulated clock, an allocator, and the trace recorder. This is the
 * component that stands in for "PyTorch running on the GPU" — every
 * malloc/free/read/write it performs is recorded exactly the way the
 * paper's instrumented runtime records them.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/allocator.h"
#include "core/tensor_meta.h"
#include "core/types.h"
#include "runtime/plan.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace runtime {

/** Iteration tag used for one-time setup events in the trace. */
inline constexpr std::uint32_t kSetupIteration = trace::kSetupIteration;

/** Engine configuration. */
struct EngineOptions {
    /**
     * Size of a device-resident dataset staging buffer (0 = none).
     * Models keeping (part of) the training set on the GPU; the
     * buffer is re-staged/shuffled every @ref iterations_per_epoch
     * iterations, producing the huge-ATI/huge-size outlier behaviors
     * of the paper's Fig. 4.
     */
    std::size_t staging_buffer_bytes = 0;
    /** Iterations per epoch (staging shuffle period). */
    int iterations_per_epoch = 0;
    /**
     * Pin every post-setup event's iteration label to 0. Serving
     * sessions replay a continuous request stream with no iteration
     * boundary, so the trace must not carry one either — analyses
     * (detect_iteration_pattern) see one steady-state span.
     */
    bool continuous_trace = false;
};

/** Live per-category memory accounting maintained by the engine. */
struct MemoryUsage {
    /** Currently allocated bytes per Category. */
    std::array<std::size_t, kNumCategories> current{};
    /** Per-category high-water marks (independent peaks). */
    std::array<std::size_t, kNumCategories> peak{};
    /** High-water mark of the category sum. */
    std::size_t peak_total = 0;
    /** Per-category bytes at the moment peak_total was reached. */
    std::array<std::size_t, kNumCategories> at_peak{};

    /** @return current total bytes. */
    std::size_t total() const;
};

/**
 * Executes training iterations of a Plan. The engine is reusable:
 * run() may be called repeatedly and continues from the current
 * iteration count, so "train 5 iterations, inspect, train more"
 * workflows work.
 */
class Engine
{
  public:
    /**
     * @param plan the training plan (must outlive the engine).
     * @param allocator device allocator (must outlive the engine).
     * @param clock simulated clock shared with the allocator.
     * @param cost kernel/copy cost model.
     * @param recorder trace sink; nullptr disables event recording.
     * @throws Error when an op's cost cannot be modeled (negative
     * flops) or a tensor's size does not fit in a size_t.
     */
    Engine(const Plan &plan, alloc::Allocator &allocator,
           sim::VirtualClock &clock, const sim::CostModel &cost,
           trace::TraceRecorder *recorder,
           EngineOptions options = {});

    ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Runs @p iterations additional training iterations. Setup
     * (parameter allocation and initialization, staging upload)
     * happens once, before the first iteration.
     */
    void run(int iterations);

    /**
     * @return the number of events a fresh engine records over
     * run(@p iterations) and teardown(), so a caller can reserve
     * its recorder once.
     */
    std::size_t trace_events(int iterations) const;

    /** @return live per-category usage accounting. */
    const MemoryUsage &usage() const { return usage_; }

    /**
     * Releases every transient and persistent block the engine still
     * holds (also called by the destructor).
     */
    void teardown();

  private:
    /** Interned names of one tensor's allocator events. */
    struct TensorOpIds {
        trace::OpId alloc = 0;
        trace::OpId free = 0;
        trace::OpId init = 0;
    };

    void intern_names();
    /** @return the bound_ index of @p id (staging: the last one). */
    std::size_t slot_of(TensorId id) const;
    const TensorMeta &meta_of(TensorId id) const;
    /** @return the summed bytes of plan tensors @p ids. */
    std::size_t plan_bytes(const std::vector<TensorId> &ids) const;
    const TensorOpIds &op_ids(TensorId id) const;

    void setup();
    void stage_dataset(bool initial);
    void run_iteration();
    void execute_op(const Op &op, std::int32_t op_index);

    alloc::Block &bind(TensorId id);
    void release(TensorId id);

    void note_alloc(const TensorMeta &meta, const alloc::Block &b);
    void note_free(const TensorMeta &meta, const alloc::Block &b);
    void record_access(trace::EventKind kind, TensorId id,
                       std::int32_t op_index, trace::OpId op);

    const Plan &plan_;
    alloc::Allocator &allocator_;
    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    trace::TraceRecorder *recorder_;
    EngineOptions options_;

    bool setup_done_ = false;
    int iterations_done_ = 0;
    std::uint32_t current_iteration_ = kSetupIteration;
    MemoryUsage usage_;
    /**
     * Live block of each plan tensor, by TensorId, plus the staging
     * buffer in the last slot; id kInvalidBlock while unbound.
     */
    std::vector<alloc::Block> bound_;
    /** Payload bytes of each tensor, by the same slots as bound_. */
    std::vector<std::size_t> bytes_;
    /**
     * Duration of each iteration op, by op index: its kernel's
     * roofline time, or its host-to-device copy for a data load.
     */
    std::vector<TimeNs> op_time_;
    /** Synthetic tensor id for the staging buffer (the exported id). */
    TensorId staging_tensor_ = kInvalidTensor;
    TensorMeta staging_meta_;

    // Every name the engine records, interned once in the recorder
    // (all 0 without one), so recording an event copies no string.
    /** Per iteration op, by op index. */
    std::vector<trace::OpId> op_ids_;
    /** Per plan tensor, by TensorId. */
    std::vector<TensorOpIds> tensor_op_ids_;
    TensorOpIds staging_op_ids_;
    trace::OpId stage_op_ = 0;
    trace::OpId shuffle_op_ = 0;
};

}  // namespace runtime
}  // namespace pinpoint

