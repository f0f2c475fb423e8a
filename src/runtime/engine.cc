#include "runtime/engine.h"

#include <algorithm>
#include <string>

#include "alloc/allocator.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/shape.h"
#include "core/tensor_meta.h"
#include "core/types.h"
#include "runtime/plan.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace runtime {

std::size_t
MemoryUsage::total() const
{
    std::size_t n = 0;
    for (std::size_t c : current)
        n += c;
    return n;
}

Engine::Engine(const Plan &plan, alloc::Allocator &allocator,
               sim::VirtualClock &clock, const sim::CostModel &cost,
               trace::TraceRecorder *recorder, EngineOptions options)
    : plan_(plan), allocator_(allocator), clock_(clock), cost_(cost),
      recorder_(recorder), options_(options)
{
    PP_CHECK(options_.staging_buffer_bytes == 0 ||
                 options_.iterations_per_epoch > 0,
             "a staging buffer requires iterations_per_epoch > 0");
    if (options_.staging_buffer_bytes > 0) {
        staging_tensor_ = plan_.tensors.size() + 1000;
        staging_meta_.id = staging_tensor_;
        staging_meta_.name = "dataset.staging";
        staging_meta_.shape = Shape{static_cast<std::int64_t>(
            options_.staging_buffer_bytes / 4)};
        staging_meta_.dtype = DType::kF32;
        staging_meta_.category = Category::kInput;
    }
    bound_.resize(plan_.tensors.size() +
                  (staging_tensor_ != kInvalidTensor ? 1 : 0));
    // Sizes and op durations never change while the engine runs, so
    // each is derived once here rather than once per event.
    bytes_.reserve(bound_.size());
    for (const TensorMeta &t : plan_.tensors)
        bytes_.push_back(t.bytes());
    if (staging_tensor_ != kInvalidTensor)
        bytes_.push_back(staging_meta_.bytes());
    op_time_.reserve(plan_.iteration_ops.size());
    for (const Op &op : plan_.iteration_ops) {
        if (op.phase == OpPhase::kDataLoad) {
            op_time_.push_back(cost_.h2d_time(op.h2d_bytes));
            continue;
        }
        op_time_.push_back(cost_.kernel_time(
            op.flops, plan_bytes(op.reads), plan_bytes(op.writes)));
    }
    // Without a recorder every id stays 0: nothing is recorded.
    op_ids_.resize(plan_.iteration_ops.size());
    tensor_op_ids_.resize(plan_.tensors.size());
    if (recorder_)
        intern_names();
}

void
Engine::intern_names()
{
    for (std::size_t i = 0; i < plan_.iteration_ops.size(); ++i)
        op_ids_[i] = recorder_->intern(plan_.iteration_ops[i].name);
    for (std::size_t id = 0; id < plan_.tensors.size(); ++id) {
        const std::string &name = plan_.tensors[id].name;
        tensor_op_ids_[id].alloc = recorder_->intern("alloc." + name);
        tensor_op_ids_[id].free = recorder_->intern("free." + name);
    }
    for (TensorId id : plan_.persistent)
        tensor_op_ids_[id].init =
            recorder_->intern("init." + plan_.tensor(id).name);
    if (staging_tensor_ != kInvalidTensor) {
        staging_op_ids_.alloc =
            recorder_->intern("alloc." + staging_meta_.name);
        staging_op_ids_.free =
            recorder_->intern("free." + staging_meta_.name);
        stage_op_ = recorder_->intern("dataset.stage");
        shuffle_op_ = recorder_->intern("dataset.shuffle");
    }
}

std::size_t
Engine::slot_of(TensorId id) const
{
    if (id == staging_tensor_)
        return plan_.tensors.size();
    PP_ASSERT(id < plan_.tensors.size(), "tensor id " << id
                                         << " out of range");
    return static_cast<std::size_t>(id);
}

std::size_t
Engine::plan_bytes(const std::vector<TensorId> &ids) const
{
    std::size_t sum = 0;
    for (TensorId id : ids) {
        PP_CHECK(id < plan_.tensors.size(),
                 "tensor id " << id << " out of range");
        sum += bytes_[static_cast<std::size_t>(id)];
    }
    return sum;
}

std::size_t
Engine::trace_events(int iterations) const
{
    const std::size_t n = iterations > 0
                              ? static_cast<std::size_t>(iterations)
                              : 0;
    std::size_t per_iteration = 0;
    for (const Op &op : plan_.iteration_ops)
        per_iteration += op.allocs.size() + op.reads.size() +
                         op.writes.size() + op.frees.size();
    // Setup allocates and writes each persistent tensor; teardown
    // frees it.
    std::size_t events = 3 * plan_.persistent.size() + n * per_iteration;
    if (staging_tensor_ != kInvalidTensor && n > 0) {
        // Alloc, upload and free, plus a read and a write per epoch
        // boundary after the first iteration.
        const auto per_epoch =
            static_cast<std::size_t>(options_.iterations_per_epoch);
        events += 3 + 2 * ((n - 1) / per_epoch);
    }
    return events;
}

const TensorMeta &
Engine::meta_of(TensorId id) const
{
    return id == staging_tensor_ ? staging_meta_ : plan_.tensor(id);
}

const Engine::TensorOpIds &
Engine::op_ids(TensorId id) const
{
    return id == staging_tensor_ ? staging_op_ids_ : tensor_op_ids_[id];
}

Engine::~Engine()
{
    try {
        teardown();
    } catch (...) {
        // Destructors must not throw; teardown errors indicate an
        // already-broken allocator state that tests will catch.
    }
}

alloc::Block &
Engine::bind(TensorId id)
{
    const TensorMeta &m = meta_of(id);
    const std::size_t slot = slot_of(id);
    alloc::Block &bound = bound_[slot];
    PP_ASSERT(bound.id == kInvalidBlock,
              "tensor " << m.name << " is already bound");
    const alloc::Block b = allocator_.allocate(bytes_[slot]);
    bound = b;
    note_alloc(m, b);
    if (recorder_) {
        trace::MemoryEvent e;
        e.time = clock_.now();
        e.kind = trace::EventKind::kMalloc;
        e.block = b.id;
        e.ptr = b.ptr;
        e.size = b.size;
        e.tensor = id;
        e.category = m.category;
        e.iteration = current_iteration_;
        e.op_index = -1;
        e.op = op_ids(id).alloc;
        recorder_->record(e);
    }
    return bound;
}

void
Engine::release(TensorId id)
{
    const TensorMeta &m = meta_of(id);
    alloc::Block &bound = bound_[slot_of(id)];
    PP_ASSERT(bound.id != kInvalidBlock,
              "tensor " << m.name << " is not bound");
    const alloc::Block b = bound;
    bound = alloc::Block{};
    allocator_.deallocate(b.id);
    note_free(m, b);
    if (recorder_) {
        trace::MemoryEvent e;
        e.time = clock_.now();
        e.kind = trace::EventKind::kFree;
        e.block = b.id;
        e.ptr = b.ptr;
        e.size = b.size;
        e.tensor = id;
        e.category = m.category;
        e.iteration = current_iteration_;
        e.op_index = -1;
        e.op = op_ids(id).free;
        recorder_->record(e);
    }
}

void
Engine::note_alloc(const TensorMeta &meta, const alloc::Block &b)
{
    auto &cur = usage_.current[static_cast<int>(meta.category)];
    cur += b.size;
    auto &peak = usage_.peak[static_cast<int>(meta.category)];
    peak = std::max(peak, cur);
    const std::size_t total = usage_.total();
    if (total > usage_.peak_total) {
        usage_.peak_total = total;
        usage_.at_peak = usage_.current;
    }
}

void
Engine::note_free(const TensorMeta &meta, const alloc::Block &b)
{
    auto &cur = usage_.current[static_cast<int>(meta.category)];
    PP_ASSERT(cur >= b.size, "per-category accounting underflow on "
              << meta.name);
    cur -= b.size;
}

void
Engine::record_access(trace::EventKind kind, TensorId id,
                      std::int32_t op_index, trace::OpId op)
{
    if (!recorder_)
        return;
    const TensorMeta &m = meta_of(id);
    const alloc::Block &bound = bound_[slot_of(id)];
    PP_ASSERT(bound.id != kInvalidBlock,
              "access to unbound tensor " << m.name);
    trace::MemoryEvent e;
    e.time = clock_.now();
    e.kind = kind;
    e.block = bound.id;
    e.ptr = bound.ptr;
    e.size = bound.size;
    e.tensor = id;
    e.category = m.category;
    e.iteration = current_iteration_;
    e.op_index = op_index;
    e.op = op;
    recorder_->record(e);
}

void
Engine::setup()
{
    current_iteration_ = kSetupIteration;
    // Parameters and buffers: allocate and initialize on device.
    for (TensorId id : plan_.persistent) {
        bind(id);
        const TensorMeta &meta = plan_.tensor(id);
        // Initialization kernel (e.g. kaiming_uniform_) writes the
        // parameter once.
        clock_.advance(cost_.kernel_time(
            static_cast<double>(meta.shape.numel()), 0, bytes_[id]));
        record_access(trace::EventKind::kWrite, id, -1,
                      op_ids(id).init);
    }
    if (staging_tensor_ != kInvalidTensor) {
        bind(staging_tensor_);
        stage_dataset(true);
    }
    setup_done_ = true;
}

void
Engine::stage_dataset(bool initial)
{
    const std::size_t bytes = options_.staging_buffer_bytes;
    if (initial) {
        // Initial upload of the on-device dataset shard.
        clock_.advance(cost_.h2d_time(bytes));
        record_access(trace::EventKind::kWrite, staging_tensor_, -1,
                      stage_op_);
        return;
    }
    // Epoch boundary: on-device shuffle touches the whole buffer.
    record_access(trace::EventKind::kRead, staging_tensor_, -1,
                  shuffle_op_);
    clock_.advance(cost_.kernel_time(0.0, bytes, bytes));
    record_access(trace::EventKind::kWrite, staging_tensor_, -1,
                  shuffle_op_);
}

void
Engine::execute_op(const Op &op, std::int32_t op_index)
{
    const trace::OpId name = op_ids_[op_index];
    for (TensorId id : op.allocs)
        bind(id);
    for (TensorId id : op.reads)
        record_access(trace::EventKind::kRead, id, op_index, name);
    clock_.advance(op_time_[static_cast<std::size_t>(op_index)]);
    for (TensorId id : op.writes)
        record_access(trace::EventKind::kWrite, id, op_index, name);
    for (TensorId id : op.frees)
        release(id);
}

void
Engine::run_iteration()
{
    current_iteration_ =
        options_.continuous_trace
            ? 0
            : static_cast<std::uint32_t>(iterations_done_);
    if (staging_tensor_ != kInvalidTensor && iterations_done_ > 0 &&
        iterations_done_ % options_.iterations_per_epoch == 0) {
        stage_dataset(false);
    }
    for (std::size_t i = 0; i < plan_.iteration_ops.size(); ++i)
        execute_op(plan_.iteration_ops[i],
                   static_cast<std::int32_t>(i));
    ++iterations_done_;
}

void
Engine::run(int iterations)
{
    PP_CHECK(iterations > 0, "iterations must be positive");
    if (!setup_done_)
        setup();
    for (int i = 0; i < iterations; ++i)
        run_iteration();
}

void
Engine::teardown()
{
    // Free any remaining bindings (persistent tensors and, if an
    // exception unwound mid-iteration, stray transients) in tensor
    // id order; the staging buffer's id sorts last, as its slot does.
    for (std::size_t slot = 0; slot < bound_.size(); ++slot) {
        if (bound_[slot].id == kInvalidBlock)
            continue;
        release(slot == plan_.tensors.size()
                    ? staging_tensor_
                    : static_cast<TensorId>(slot));
    }
}

}  // namespace runtime
}  // namespace pinpoint
