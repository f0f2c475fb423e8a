/**
 * @file
 * Training plan: the per-iteration op sequence with tensor liveness.
 *
 * A Plan is the simulator's equivalent of PyTorch's autograd tape: a
 * fixed sequence of forward, backward, gradient-accumulation, and
 * optimizer ops, each annotated with the tensors it allocates, reads,
 * writes, and frees. Memory behavior during training is fully
 * determined by this sequence plus the allocator, which is exactly
 * the state the paper instruments.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/tensor_meta.h"
#include "core/types.h"

namespace pinpoint {
namespace runtime {

/** Which training phase an op belongs to. */
enum class OpPhase : std::uint8_t {
    kDataLoad,
    kForward,
    kBackward,
    kOptimizer,
};

/** One executable step of a training iteration. */
struct Op {
    /** Qualified name, e.g. "layer1.0.conv2.backward". */
    std::string name;
    OpPhase phase = OpPhase::kForward;
    /** Floating point work of the kernel (0 for pure copies). */
    double flops = 0.0;
    /** Tensors whose blocks are allocated immediately before the op. */
    std::vector<TensorId> allocs;
    /** Tensors read by the kernel (access at op start). */
    std::vector<TensorId> reads;
    /** Tensors written by the kernel (access at op end). */
    std::vector<TensorId> writes;
    /** Tensors whose blocks are freed immediately after the op. */
    std::vector<TensorId> frees;
    /** Host-to-device copy volume; only kDataLoad ops set this. */
    std::size_t h2d_bytes = 0;
};

/** When activation/gradient blocks are returned to the allocator. */
enum class FreePolicy : std::uint8_t {
    /** Free each tensor right after its last use (PyTorch refcount). */
    kEager,
    /** Keep everything until the end of the iteration (ablation). */
    kIterationEnd,
};

/** A complete training plan for one model + batch size. */
struct Plan {
    /** Model display name. */
    std::string model_name;
    /** Batch size the plan was built for. */
    std::int64_t batch = 0;
    /** Every logical tensor, indexed by TensorId; names are unique. */
    std::vector<TensorMeta> tensors;
    /** Tensors that live across iterations (params, buffers, state). */
    std::vector<TensorId> persistent;
    /** The per-iteration op sequence. */
    std::vector<Op> iteration_ops;

    /** @return metadata of tensor @p id. @throws Error if unknown. */
    const TensorMeta &tensor(TensorId id) const;

    /** @return total bytes of all parameter-category tensors. */
    std::size_t parameter_bytes() const;
};

}  // namespace runtime
}  // namespace pinpoint

