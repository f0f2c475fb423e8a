/**
 * @file
 * Lowers a model graph into a Plan: forward ops, a reverse autograd
 * pass with gradient accumulation, and SGD optimizer steps, followed
 * by liveness analysis that places the frees. Training and serving
 * plans come from one walk; a serving plan stops after the forward
 * pass and skips the loss.
 *
 * The lowering makes PyTorch's choices, not settable ones: ReLU runs
 * in place (torchvision's inplace=True), every convolution kernel
 * takes a cuDNN-style workspace block for its duration, Linear runs
 * as the two kernels of the paper's Fig. 1 (mat_mul, then add_bias),
 * and SGD keeps no momentum state.
 */
#pragma once

#include <cstdint>

#include "core/dtype.h"
#include "nn/models.h"
#include "runtime/plan.h"

namespace pinpoint {
namespace runtime {

/** Knobs of the lowering; defaults mirror PyTorch/torchvision. */
struct PlanOptions {
    /** Free blocks at last use (true PyTorch behavior) or iteration end. */
    FreePolicy free_policy = FreePolicy::kEager;
    /**
     * Gradient accumulation: split the batch into this many
     * micro-batches, run forward+backward per micro-batch, and
     * accumulate parameter gradients before one optimizer step.
     * Shrinks peak intermediate memory roughly k-fold at the cost of
     * extra kernel launches (classic memory-pressure relief).
     */
    int micro_batches = 1;
    /**
     * Activation checkpointing for chain models: keep only every
     * N-th activation through the forward pass and recompute the
     * rest segment-by-segment during backward (0 = off). Trades
     * extra forward kernels for peak-memory reduction — the
     * recomputation counterpart of the paper's swapping direction.
     */
    int checkpoint_every = 0;
    /** Tensor dtype for data/params/activations. */
    DType dtype = DType::kF32;
};

/**
 * Builds the training plan for @p model at batch size @p batch.
 *
 * @throws Error when shape inference fails for the given batch.
 */
Plan build_plan(const nn::Model &model, std::int64_t batch,
                const PlanOptions &options = {});

/**
 * Builds the forward-only serving plan for @p model at batch size
 * @p batch: one inference request per "iteration". The plan contains
 * no backward or optimizer ops and no gradient/label tensors —
 * parameters stay resident across requests, activations are freed at
 * last use, eval-mode dropout is an identity view, and eval-mode
 * norms read their running stats without saving batch statistics.
 *
 * @throws Error when shape inference fails, or when @p options asks
 * for training-only lowering (micro-batches, checkpoints).
 */
Plan build_inference_plan(const nn::Model &model, std::int64_t batch,
                          const PlanOptions &options = {});

/**
 * Validates plan well-formedness: tensor names are unique, every
 * transient tensor is allocated exactly once, never used before its
 * alloc or after its free, and freed exactly once; persistent tensors
 * are never allocated or freed by iteration ops. Aborts (PP_ASSERT)
 * on violation. build_plan and build_inference_plan run it on every
 * plan they return.
 */
void validate_plan(const Plan &plan);

}  // namespace runtime
}  // namespace pinpoint

