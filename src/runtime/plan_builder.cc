#include "runtime/plan_builder.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"
#include "core/dtype.h"
#include "core/shape.h"
#include "core/tensor_meta.h"
#include "core/types.h"
#include "nn/graph.h"
#include "nn/layer.h"
#include "nn/models.h"
#include "nn/shape_infer.h"
#include "runtime/plan.h"

namespace pinpoint {
namespace runtime {
namespace {

using nn::LayerKind;
using nn::NodeId;

/**
 * cuDNN-style workspace size heuristic for one conv call. These
 * per-kernel scratch blocks are the short-lived, immediately-freed
 * behaviors that dominate the paper's ATI mass.
 */
std::size_t
workspace_bytes(std::size_t out_bytes)
{
    constexpr std::size_t kMin = 512 * 1024;
    constexpr std::size_t kMax = 64ull * 1024 * 1024;
    return std::clamp(out_bytes / 4, kMin, kMax);
}

/** Builds one Plan; single-use. */
class Builder
{
  public:
    Builder(const nn::Model &model, std::int64_t batch,
            const PlanOptions &opt)
        : model_(model), graph_(model.graph), batch_(batch), opt_(opt)
    {
    }

    Plan
    build()
    {
        const int k = opt_.micro_batches;
        PP_CHECK(k >= 1, "micro_batches must be >= 1, got " << k);
        PP_CHECK(batch_ % k == 0, "batch " << batch_
                 << " is not divisible into " << k << " micro-batches");
        micro_batch_ = batch_ / k;
        infos_ = nn::infer(graph_, model_.input_shape(micro_batch_));
        plan_.model_name = model_.name;
        plan_.batch = batch_;

        const std::size_t n = graph_.size();
        param_ids_.assign(n, {});
        create_parameters();
        if (opt_.checkpoint_every > 0)
            select_checkpoints();
        for (mb_ = 0; mb_ < k; ++mb_) {
            act_.assign(n, kInvalidTensor);
            mask_.assign(n, kInvalidTensor);
            save_stats_.assign(n, {});
            contrib_.assign(n, {});
            emit_data_load();
            for (const nn::Node &node : graph_.nodes())
                emit_forward(node);
            emit_loss_fetch();
            if (opt_.checkpoint_every > 0)
                available_ = is_checkpoint_;
            for (std::size_t i = graph_.size(); i-- > 0;) {
                const nn::Node &node = graph_.nodes()[i];
                if (opt_.checkpoint_every > 0)
                    ensure_saved_activations(node);
                emit_backward(node);
            }
        }
        emit_optimizer();
        place_frees();
        return std::move(plan_);
    }

    /**
     * Forward-only serving lowering: one inference request per
     * "iteration", no labels, no loss, no backward, no optimizer.
     */
    Plan
    build_inference()
    {
        inference_ = true;
        PP_CHECK(opt_.micro_batches == 1,
                 "inference plans are per-request; micro_batches "
                 "must be 1, got " << opt_.micro_batches);
        PP_CHECK(opt_.checkpoint_every == 0,
                 "activation checkpointing is a backward-pass "
                 "technique; inference plans do not support it");
        micro_batch_ = batch_;
        infos_ = nn::infer(graph_, model_.input_shape(micro_batch_));
        plan_.model_name = model_.name;
        plan_.batch = batch_;

        const std::size_t n = graph_.size();
        param_ids_.assign(n, {});
        create_parameters();
        act_.assign(n, kInvalidTensor);
        mask_.assign(n, kInvalidTensor);
        save_stats_.assign(n, {});
        contrib_.assign(n, {});
        emit_data_load();
        for (const nn::Node &node : graph_.nodes()) {
            // Serving emits logits; the loss layer never runs.
            if (node.kind == LayerKind::kSoftmaxCrossEntropy)
                continue;
            emit_forward(node);
        }
        emit_logits_fetch();
        place_frees();
        return std::move(plan_);
    }

    /** Name suffix distinguishing per-micro-batch transients. */
    std::string
    sfx() const
    {
        std::string out;
        if (recompute_pass_)
            out += ".rc";
        if (opt_.micro_batches > 1)
            out += "@mb" + std::to_string(mb_);
        return out;
    }

  private:
    TensorId
    new_tensor(const std::string &name, Shape shape, DType dtype,
               Category cat)
    {
        TensorMeta t;
        t.id = static_cast<TensorId>(plan_.tensors.size());
        t.name = name;
        t.shape = std::move(shape);
        t.dtype = dtype;
        t.category = cat;
        auto [it, inserted] = plan_.by_name.emplace(name, t.id);
        PP_CHECK(inserted, "duplicate tensor name '" << name << "'");
        plan_.tensors.push_back(std::move(t));
        return plan_.tensors.back().id;
    }

    Op &
    push_op(const std::string &name, OpPhase phase, double flops)
    {
        Op op;
        op.name = name;
        op.phase = phase;
        op.flops = flops;
        plan_.iteration_ops.push_back(std::move(op));
        return plan_.iteration_ops.back();
    }

    bool
    is_graph_input(NodeId id) const
    {
        return graph_.node(id).kind == LayerKind::kInput;
    }

    const nn::NodeInfo &
    info(NodeId id) const
    {
        return infos_[static_cast<std::size_t>(id)];
    }

    /** Creates persistent tensors for params/buffers. */
    void
    create_parameters()
    {
        for (const nn::Node &node : graph_.nodes()) {
            for (const nn::ParamSpec &p : info(node.id).params) {
                TensorId id = new_tensor(p.name, p.shape, opt_.dtype,
                                         Category::kParameter);
                plan_.persistent.push_back(id);
                param_ids_[static_cast<std::size_t>(node.id)].push_back(
                    {p, id});
            }
        }
    }

    /**
     * True when @p id's forward output is a fresh block (no alias).
     * Flatten is a view and ReLU runs in place, so both alias their
     * input.
     */
    bool
    materializes(NodeId id) const
    {
        const LayerKind kind = graph_.node(id).kind;
        return kind != LayerKind::kInput && kind != LayerKind::kFlatten &&
               kind != LayerKind::kReLU;
    }

    /** Node whose tensor act_[id] actually belongs to. */
    NodeId
    owner_of(NodeId id) const
    {
        while (!materializes(id) &&
               graph_.node(id).kind != LayerKind::kInput)
            id = graph_.node(id).inputs[0];
        return id;
    }

    /**
     * Picks checkpoint nodes for activation recomputation: the graph
     * input plus every checkpoint_every-th materializing node.
     * @throws Error for non-chain graphs (fan-out is unsupported).
     */
    void
    select_checkpoints()
    {
        is_checkpoint_.assign(graph_.size(), false);
        for (const nn::Node &node : graph_.nodes()) {
            if (node.kind == LayerKind::kInput ||
                node.kind == LayerKind::kSoftmaxCrossEntropy)
                continue;
            PP_CHECK(graph_.consumers(node.id).size() <= 1,
                     "activation checkpointing supports chain models "
                     "only; '" << node.name << "' has fan-out");
        }
        is_checkpoint_[static_cast<std::size_t>(graph_.input())] =
            true;
        int count = 0;
        for (const nn::Node &node : graph_.nodes()) {
            if (!materializes(node.id) ||
                node.kind == LayerKind::kSoftmaxCrossEntropy)
                continue;
            if (count % opt_.checkpoint_every == 0)
                is_checkpoint_[static_cast<std::size_t>(node.id)] =
                    true;
            ++count;
        }
    }

    /** Recomputes forward from the checkpoint preceding @p id. */
    void
    recompute_for(NodeId id)
    {
        const std::size_t idx = static_cast<std::size_t>(id);
        if (available_[idx])
            return;
        // Find the covering checkpoint.
        NodeId cp = id;
        while (!is_checkpoint_[static_cast<std::size_t>(cp)])
            cp = graph_.node(cp).inputs[0];
        // Re-run forward from just after the checkpoint up to id.
        recompute_pass_ = true;
        for (NodeId n = cp + 1; n <= id; ++n) {
            const nn::Node &node = graph_.node(n);
            if (node.kind == LayerKind::kSoftmaxCrossEntropy)
                break;
            emit_forward(node);
            available_[static_cast<std::size_t>(n)] = true;
        }
        recompute_pass_ = false;
    }

    /** Per-kind: does the backward read this node's own aux/out? */
    static bool
    backward_reads_own(LayerKind kind)
    {
        switch (kind) {
          case LayerKind::kReLU:
          case LayerKind::kMaxPool2d:
          case LayerKind::kAvgPool2d:
          case LayerKind::kAdaptiveAvgPool2d:
          case LayerKind::kLRN:
          case LayerKind::kGELU:
          case LayerKind::kDropout:
          case LayerKind::kBatchNorm2d:
          case LayerKind::kLayerNorm:
          case LayerKind::kSelfAttention:
            return true;
          default:
            return false;
        }
    }

    /** Makes every activation @p node's backward reads available. */
    void
    ensure_saved_activations(const nn::Node &node)
    {
        if (node.kind == LayerKind::kInput ||
            contrib_[static_cast<std::size_t>(node.id)].empty()) {
            if (node.kind != LayerKind::kSoftmaxCrossEntropy)
                return;  // dead branch; loss always proceeds
        }
        for (NodeId in : node.inputs) {
            const NodeId owner = owner_of(in);
            if (graph_.node(owner).kind != LayerKind::kInput)
                recompute_for(owner);
        }
        if (backward_reads_own(node.kind))
            recompute_for(owner_of(node.id));
    }

    void
    emit_data_load()
    {
        const Shape in_shape = model_.input_shape(micro_batch_);
        x_ = new_tensor("input.x" + sfx(), in_shape, opt_.dtype,
                        Category::kInput);
        if (inference_) {
            // Serving requests carry no labels: the host uploads the
            // request batch alone.
            act_[static_cast<std::size_t>(graph_.input())] = x_;
            Op &op = push_op("data.h2d", OpPhase::kDataLoad, 0.0);
            op.allocs = {x_};
            op.writes = {x_};
            op.h2d_bytes = plan_.tensor(x_).bytes();
            return;
        }
        // Labels: one per classification row of the loss input —
        // (N) for classifiers, (N, S) for per-token LM losses.
        const nn::Node &loss = graph_.nodes().back();
        PP_CHECK(loss.kind == LayerKind::kSoftmaxCrossEntropy,
                 "model must end in a softmax_ce loss");
        const Shape &logits = info(loss.inputs[0]).out_shape;
        std::vector<std::int64_t> label_dims = logits.dims();
        label_dims.pop_back();
        labels_ = new_tensor("input.labels" + sfx(),
                             Shape(std::move(label_dims)), DType::kI64,
                             Category::kInput);
        act_[static_cast<std::size_t>(graph_.input())] = x_;

        Op &op = push_op("data.h2d", OpPhase::kDataLoad, 0.0);
        op.allocs = {x_, labels_};
        op.writes = {x_, labels_};
        op.h2d_bytes = plan_.tensor(x_).bytes() +
                       plan_.tensor(labels_).bytes();
    }

    /** @return tensor ids of trainable params of @p node, in order. */
    std::vector<TensorId>
    trainable_params(NodeId id) const
    {
        std::vector<TensorId> out;
        for (const auto &[spec, tid] :
             param_ids_[static_cast<std::size_t>(id)])
            if (spec.trainable)
                out.push_back(tid);
        return out;
    }

    /** @return tensor ids of all params/buffers of @p node. */
    std::vector<TensorId>
    all_params(NodeId id) const
    {
        std::vector<TensorId> out;
        for (const auto &[spec, tid] :
             param_ids_[static_cast<std::size_t>(id)])
            out.push_back(tid);
        return out;
    }

    TensorId
    in_act(const nn::Node &node, int i = 0) const
    {
        return act_[static_cast<std::size_t>(
            node.inputs[static_cast<std::size_t>(i)])];
    }

    void
    emit_forward(const nn::Node &node)
    {
        const std::size_t idx = static_cast<std::size_t>(node.id);
        const nn::NodeInfo &ni = info(node.id);
        switch (node.kind) {
          case LayerKind::kInput:
            return;  // handled by data load
          case LayerKind::kFlatten:
            // Pure view: shares the input block, so no op and no
            // memory behavior, exactly as in PyTorch.
            act_[idx] = in_act(node);
            return;
          case LayerKind::kReLU: {
            // In place, as torchvision's inplace=True: the output
            // aliases the input block.
            act_[idx] = in_act(node);
            Op &op = push_op(node.name + ".forward", OpPhase::kForward,
                             ni.fwd_flops);
            op.reads = {act_[idx]};
            op.writes = {act_[idx]};
            return;
          }
          case LayerKind::kDropout:
            if (inference_) {
                // Eval-mode dropout is an identity: no kernel, no
                // mask block, exactly as in PyTorch model.eval().
                act_[idx] = in_act(node);
                return;
            }
            break;
          default:
            break;
        }

        // Common path: the node materializes a fresh output block.
        TensorId out = new_tensor(node.name + ".out" + sfx(),
                                  ni.out_shape,
                                  opt_.dtype, Category::kIntermediate);
        act_[idx] = out;

        if (node.kind == LayerKind::kLinear) {
            // Fig. 1 of the paper: star (mat_mul) then plus (add_bias)
            // as two separate kernels on the same output block.
            // Convolutions keep the fused-bias kernel cuDNN uses.
            auto params = all_params(node.id);
            Op &mm = push_op(node.name + ".mat_mul", OpPhase::kForward,
                             ni.fwd_flops);
            mm.allocs = {out};
            mm.reads = {in_act(node), params[0]};
            mm.writes = {out};
            if (params.size() > 1) {
                Op &ab = push_op(node.name + ".add_bias",
                                 OpPhase::kForward,
                                 static_cast<double>(
                                     ni.out_shape.numel()));
                ab.reads = {params[1]};
                ab.writes = {out};
            }
            return;
        }

        Op &op =
            push_op(node.name + ".forward", OpPhase::kForward,
                    ni.fwd_flops);
        op.allocs = {out};
        for (NodeId in : node.inputs)
            op.reads.push_back(act_[static_cast<std::size_t>(in)]);
        op.writes = {out};

        switch (node.kind) {
          case LayerKind::kConv2d: {
            for (TensorId p : all_params(node.id))
                op.reads.push_back(p);
            attach_workspace(op, node.name + ".workspace.fwd",
                             plan_.tensor(out).bytes());
            break;
          }
          case LayerKind::kBatchNorm2d: {
            for (TensorId p : all_params(node.id))
                op.reads.push_back(p);
            if (inference_)
                break;  // eval mode: read running stats, save nothing
            // Training-mode BN updates running stats in place and
            // saves per-channel mean/invstd for backward.
            const auto &params = param_ids_[idx];
            for (const auto &[spec, tid] : params) {
                if (!spec.trainable)
                    op.writes.push_back(tid);
            }
            const std::int64_t c = ni.out_shape.dim(1);
            TensorId sm =
                new_tensor(node.name + ".save_mean" + sfx(), Shape{c},
                           DType::kF32, Category::kIntermediate);
            TensorId sv =
                new_tensor(node.name + ".save_invstd" + sfx(),
                           Shape{c},
                           DType::kF32, Category::kIntermediate);
            save_stats_[idx] = {sm, sv};
            op.allocs.push_back(sm);
            op.allocs.push_back(sv);
            op.writes.push_back(sm);
            op.writes.push_back(sv);
            break;
          }
          case LayerKind::kDropout: {
            TensorId m =
                new_tensor(node.name + ".mask" + sfx(), ni.out_shape,
                           DType::kU8, Category::kIntermediate);
            mask_[idx] = m;
            op.allocs.push_back(m);
            op.writes.push_back(m);
            break;
          }
          case LayerKind::kSoftmaxCrossEntropy:
            op.reads.push_back(labels_);
            loss_ = out;
            break;
          case LayerKind::kEmbedding:
            for (TensorId p : all_params(node.id))
                op.reads.push_back(p);
            break;
          case LayerKind::kLayerNorm: {
            for (TensorId p : all_params(node.id))
                op.reads.push_back(p);
            if (inference_)
                break;  // eval mode: no saved stats without backward
            // Saved per-row mean/invstd for backward.
            std::vector<std::int64_t> rows = ni.out_shape.dims();
            rows.pop_back();
            TensorId sm = new_tensor(node.name + ".save_mean" + sfx(),
                                     Shape(rows), DType::kF32,
                                     Category::kIntermediate);
            TensorId sv =
                new_tensor(node.name + ".save_invstd" + sfx(),
                           Shape(rows), DType::kF32,
                           Category::kIntermediate);
            save_stats_[idx] = {sm, sv};
            op.allocs.push_back(sm);
            op.allocs.push_back(sv);
            op.writes.push_back(sm);
            op.writes.push_back(sv);
            break;
          }
          case LayerKind::kSelfAttention: {
            // The (N, heads, S, S) attention probabilities are
            // materialized and saved for backward — the seq^2 term
            // that dominates transformer training memory.
            const auto &a =
                std::get<nn::SelfAttentionAttrs>(node.attrs);
            const Shape &q = info(node.inputs[0]).out_shape;
            TensorId probs = new_tensor(
                node.name + ".probs" + sfx(),
                Shape{q.dim(0), a.heads, q.dim(1), q.dim(1)},
                opt_.dtype, Category::kIntermediate);
            mask_[idx] = probs;  // reuse the per-node aux-tensor slot
            op.allocs.push_back(probs);
            op.writes.push_back(probs);
            break;
          }
          default:
            break;
        }
    }

    /** Serving counterpart of emit_loss_fetch: the host reads the
     * logits of the layer feeding the (skipped) loss. */
    void
    emit_logits_fetch()
    {
        const nn::Node &loss = graph_.nodes().back();
        PP_CHECK(loss.kind == LayerKind::kSoftmaxCrossEntropy,
                 "model must end in a softmax_ce loss");
        const TensorId logits =
            act_[static_cast<std::size_t>(loss.inputs[0])];
        PP_CHECK(logits != kInvalidTensor,
                 "model produced no logits activation");
        Op &op = push_op("logits.item", OpPhase::kForward, 0.0);
        op.reads = {logits};
    }

    void
    emit_loss_fetch()
    {
        PP_CHECK(loss_ != kInvalidTensor,
                 "model has no softmax_ce loss node");
        Op &op = push_op("loss.item", OpPhase::kForward, 0.0);
        op.reads = {loss_};
    }

    /** Resolves the fully-accumulated output gradient of @p node. */
    TensorId
    resolve_grad(const nn::Node &node)
    {
        auto &c = contrib_[static_cast<std::size_t>(node.id)];
        PP_ASSERT(!c.empty(), "no gradient reaches '" << node.name
                  << "' — dead branch in the graph?");
        if (c.size() == 1)
            return c[0];
        // Multiple consumers: accumulate, as PyTorch's AccumulateGrad
        // does for fan-out tensors (ResNet shortcuts).
        const Shape &shape = info(node.id).out_shape;
        TensorId g = new_tensor(node.name + ".out.grad" + sfx(),
                                shape, opt_.dtype,
                                Category::kIntermediate);
        Op &op = push_op(node.name + ".grad_accum", OpPhase::kBackward,
                         static_cast<double>(shape.numel()) *
                             static_cast<double>(c.size() - 1));
        op.allocs = {g};
        op.reads = c;
        op.writes = {g};
        return g;
    }

    void
    add_contribution(NodeId target, TensorId grad)
    {
        if (is_graph_input(target))
            return;  // the input data needs no gradient
        contrib_[static_cast<std::size_t>(target)].push_back(grad);
    }

    /**
     * Returns the grads of node params, creating them on the first
     * micro-batch; (id, fresh) — fresh grads are allocated by the
     * backward op, existing ones are accumulated into (read+write),
     * as PyTorch's AccumulateGrad does under gradient accumulation.
     */
    std::vector<std::pair<TensorId, bool>>
    make_param_grads(const nn::Node &node)
    {
        std::vector<std::pair<TensorId, bool>> out;
        for (const auto &[spec, tid] :
             param_ids_[static_cast<std::size_t>(node.id)]) {
            if (!spec.trainable)
                continue;
            auto it = param_grad_.find(tid);
            if (it != param_grad_.end()) {
                out.push_back({it->second, false});
                continue;
            }
            TensorId g = new_tensor(spec.name + ".grad", spec.shape,
                                    opt_.dtype, Category::kIntermediate);
            param_grad_.emplace(tid, g);
            opt_pairs_.push_back({tid, g});
            out.push_back({g, true});
        }
        return out;
    }

    /** Attaches a fresh conv workspace block to @p op. */
    void
    attach_workspace(Op &op, const std::string &name,
                     std::size_t basis_bytes)
    {
        const std::size_t ws = workspace_bytes(basis_bytes);
        TensorId w =
            new_tensor(name + sfx(),
                       Shape{static_cast<std::int64_t>(ws / 4)},
                       DType::kF32, Category::kIntermediate);
        op.allocs.push_back(w);
        op.writes.push_back(w);
    }

    /**
     * Backward of conv/linear as the three kernels cuDNN/cuBLAS
     * launch: bias gradient (reduction over g), weight gradient
     * (g x saved input), and data gradient (g x weight).
     */
    void
    emit_matmul_like_backward(const nn::Node &node, TensorId g,
                              bool needs_dx)
    {
        const nn::NodeInfo &ni = info(node.id);
        const bool is_conv = node.kind == LayerKind::kConv2d;
        auto params = trainable_params(node.id);
        auto grads = make_param_grads(node);
        PP_ASSERT(!grads.empty(), "conv/linear without weight");

        if (grads.size() > 1) {
            Op &op = push_op(node.name + ".backward.bgrad",
                             OpPhase::kBackward,
                             static_cast<double>(
                                 ni.out_shape.numel()));
            op.reads = {g};
            const auto [bg, fresh] = grads[1];
            if (fresh)
                op.allocs.push_back(bg);
            else
                op.reads.push_back(bg);
            op.writes = {bg};
        }
        {
            Op &op = push_op(node.name + ".backward.wgrad",
                             OpPhase::kBackward, ni.bwd_flops / 2.0);
            op.reads = {g, in_act(node)};
            const auto [wg, fresh] = grads[0];
            if (fresh)
                op.allocs.push_back(wg);
            else
                op.reads.push_back(wg);
            op.writes = {wg};
            if (is_conv)
                attach_workspace(op, node.name + ".workspace.wgrad",
                                 plan_.tensor(in_act(node)).bytes());
        }
        if (needs_dx) {
            Op &op = push_op(node.name + ".backward.dgrad",
                             OpPhase::kBackward, ni.bwd_flops / 2.0);
            TensorId dx = make_dx(node, 0, ".dx");
            op.reads = {g, params[0]};
            op.allocs = {dx};
            op.writes = {dx};
            if (is_conv)
                attach_workspace(op, node.name + ".workspace.dgrad",
                                 plan_.tensor(in_act(node)).bytes());
            add_contribution(node.inputs[0], dx);
        }
    }

    /** Allocates the grad-contribution tensor toward @p node's input. */
    TensorId
    make_dx(const nn::Node &node, int input_idx, const char *tag)
    {
        const NodeId in =
            node.inputs[static_cast<std::size_t>(input_idx)];
        const Shape &shape = info(in).out_shape;
        return new_tensor(node.name + tag + sfx(), shape, opt_.dtype,
                          Category::kIntermediate);
    }

    void
    emit_backward(const nn::Node &node)
    {
        const std::size_t idx = static_cast<std::size_t>(node.id);
        const nn::NodeInfo &ni = info(node.id);
        switch (node.kind) {
          case LayerKind::kInput:
            return;
          case LayerKind::kSoftmaxCrossEntropy: {
            // Gradient seed: d(loss)/d(logits).
            const NodeId logits = node.inputs[0];
            TensorId gl = make_dx(node, 0, ".dx");
            Op &op = push_op(node.name + ".backward",
                             OpPhase::kBackward, ni.bwd_flops);
            op.reads = {in_act(node), labels_};
            op.allocs = {gl};
            op.writes = {gl};
            add_contribution(logits, gl);
            return;
          }
          case LayerKind::kFlatten: {
            if (contrib_[idx].empty())
                return;
            // View: the gradient flows through without a kernel.
            add_contribution(node.inputs[0], resolve_grad(node));
            return;
          }
          case LayerKind::kAdd: {
            if (contrib_[idx].empty())
                return;
            // Elementwise add distributes the same gradient block to
            // both branches (no copy in PyTorch either).
            TensorId g = resolve_grad(node);
            add_contribution(node.inputs[0], g);
            add_contribution(node.inputs[1], g);
            return;
          }
          default:
            break;
        }

        if (contrib_[idx].empty())
            return;  // nothing consumed this node's output
        TensorId g = resolve_grad(node);
        const bool needs_dx = !is_graph_input(node.inputs[0]);

        if (node.kind == LayerKind::kConv2d ||
            node.kind == LayerKind::kLinear) {
            emit_matmul_like_backward(node, g, needs_dx);
            return;
        }

        Op &op = push_op(node.name + ".backward", OpPhase::kBackward,
                         ni.bwd_flops);
        op.reads = {g};

        switch (node.kind) {
          case LayerKind::kBatchNorm2d: {
            op.reads.push_back(in_act(node));
            auto params = trainable_params(node.id);
            if (!params.empty())
                op.reads.push_back(params[0]);
            const auto &[sm, sv] = save_stats_[idx];
            op.reads.push_back(sm);
            op.reads.push_back(sv);
            auto grads = make_param_grads(node);
            for (const auto &[pg, fresh] : grads) {
                if (fresh)
                    op.allocs.push_back(pg);
                else
                    op.reads.push_back(pg);
                op.writes.push_back(pg);
            }
            if (needs_dx) {
                TensorId dx = make_dx(node, 0, ".dx");
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(node.inputs[0], dx);
            }
            break;
          }
          case LayerKind::kReLU:
            // In-place backward: the gradient block is reused.
            op.reads.push_back(act_[idx]);
            op.writes.push_back(g);
            add_contribution(node.inputs[0], g);
            return;
          case LayerKind::kDropout: {
            op.reads.push_back(mask_[idx]);
            if (needs_dx) {
                TensorId dx = make_dx(node, 0, ".dx");
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(node.inputs[0], dx);
            }
            break;
          }
          case LayerKind::kEmbedding: {
            // Indices get no gradient; only the table does (dense
            // grad, as torch.nn.Embedding without sparse=True).
            auto grads = make_param_grads(node);
            for (const auto &[pg, fresh] : grads) {
                if (fresh)
                    op.allocs.push_back(pg);
                else
                    op.reads.push_back(pg);
                op.writes.push_back(pg);
            }
            break;
          }
          case LayerKind::kLayerNorm: {
            op.reads.push_back(in_act(node));
            auto params = trainable_params(node.id);
            if (!params.empty())
                op.reads.push_back(params[0]);
            const auto &[sm, sv] = save_stats_[idx];
            op.reads.push_back(sm);
            op.reads.push_back(sv);
            auto grads = make_param_grads(node);
            for (const auto &[pg, fresh] : grads) {
                if (fresh)
                    op.allocs.push_back(pg);
                else
                    op.reads.push_back(pg);
                op.writes.push_back(pg);
            }
            if (needs_dx) {
                TensorId dx = make_dx(node, 0, ".dx");
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(node.inputs[0], dx);
            }
            break;
          }
          case LayerKind::kSelfAttention: {
            // Reads Q, K, V and the saved probabilities; produces a
            // gradient per projection input.
            for (int i = 0; i < 3; ++i)
                op.reads.push_back(in_act(node, i));
            op.reads.push_back(mask_[idx]);
            const char *tags[3] = {".dq", ".dk", ".dv"};
            for (int i = 0; i < 3; ++i) {
                if (is_graph_input(node.inputs[
                        static_cast<std::size_t>(i)]))
                    continue;
                TensorId dx = make_dx(node, i, tags[i]);
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(
                    node.inputs[static_cast<std::size_t>(i)], dx);
            }
            break;
          }
          case LayerKind::kMaxPool2d:
          case LayerKind::kAvgPool2d:
          case LayerKind::kAdaptiveAvgPool2d:
          case LayerKind::kGELU:
          case LayerKind::kLRN: {
            op.reads.push_back(in_act(node));
            op.reads.push_back(act_[idx]);
            if (needs_dx) {
                TensorId dx = make_dx(node, 0, ".dx");
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(node.inputs[0], dx);
            }
            break;
          }
          case LayerKind::kConcat: {
            // Split: one materialized slice gradient per branch.
            for (std::size_t i = 0; i < node.inputs.size(); ++i) {
                const NodeId in = node.inputs[i];
                if (is_graph_input(in))
                    continue;
                TensorId dx = make_dx(
                    node, static_cast<int>(i),
                    (".dx" + std::to_string(i)).c_str());
                op.allocs.push_back(dx);
                op.writes.push_back(dx);
                add_contribution(in, dx);
            }
            break;
          }
          default:
            PP_ASSERT(false, "unhandled backward for kind "
                      << nn::layer_kind_name(node.kind));
        }
    }

    void
    emit_optimizer()
    {
        for (const auto &[param, grad] : opt_pairs_) {
            const TensorMeta &p = plan_.tensor(param);
            Op &op = push_op("sgd." + p.name, OpPhase::kOptimizer,
                             3.0 * static_cast<double>(p.shape.numel()));
            op.reads = {param, grad};
            op.writes = {param};
        }
    }

    void
    place_frees()
    {
        std::unordered_set<TensorId> persistent(
            plan_.persistent.begin(), plan_.persistent.end());

        // Last op index that references each transient tensor.
        std::unordered_map<TensorId, std::size_t> last_use;
        for (std::size_t i = 0; i < plan_.iteration_ops.size(); ++i) {
            const Op &op = plan_.iteration_ops[i];
            auto touch = [&](TensorId id) {
                if (!persistent.count(id))
                    last_use[id] = i;
            };
            for (TensorId id : op.allocs)
                touch(id);
            for (TensorId id : op.reads)
                touch(id);
            for (TensorId id : op.writes)
                touch(id);
        }

        const std::size_t final_op = plan_.iteration_ops.size() - 1;
        for (const auto &[id, last] : last_use) {
            const std::size_t at =
                opt_.free_policy == FreePolicy::kEager ? last : final_op;
            plan_.iteration_ops[at].frees.push_back(id);
        }
        // Deterministic order within an op (map iteration is not).
        for (Op &op : plan_.iteration_ops)
            std::sort(op.frees.begin(), op.frees.end());
    }

    const nn::Model &model_;
    const nn::Graph &graph_;
    std::int64_t batch_;
    PlanOptions opt_;
    std::vector<nn::NodeInfo> infos_;
    Plan plan_;
    std::int64_t micro_batch_ = 0;
    int mb_ = 0;
    bool recompute_pass_ = false;
    /** Forward-only serving lowering (build_inference). */
    bool inference_ = false;
    /** Checkpointed (kept) activations, per node. */
    std::vector<bool> is_checkpoint_;
    /** Activations currently valid during the backward sweep. */
    std::vector<bool> available_;
    /** Parameter tensor → shared gradient accumulation buffer. */
    std::unordered_map<TensorId, TensorId> param_grad_;

    std::vector<TensorId> act_;
    std::vector<TensorId> mask_;
    /** Per-BN-node (save_mean, save_invstd) ids, set during forward. */
    std::vector<std::pair<TensorId, TensorId>> save_stats_;
    std::vector<std::vector<TensorId>> contrib_;
    std::vector<std::vector<std::pair<nn::ParamSpec, TensorId>>>
        param_ids_;
    std::vector<std::pair<TensorId, TensorId>> opt_pairs_;
    TensorId x_ = kInvalidTensor;
    TensorId labels_ = kInvalidTensor;
    TensorId loss_ = kInvalidTensor;
};

}  // namespace

Plan
build_plan(const nn::Model &model, std::int64_t batch,
           const PlanOptions &options)
{
    PP_CHECK(batch > 0, "batch must be positive, got " << batch);
    Plan plan = Builder(model, batch, options).build();
    validate_plan(plan);
    return plan;
}

Plan
build_inference_plan(const nn::Model &model, std::int64_t batch,
                     const PlanOptions &options)
{
    PP_CHECK(batch > 0, "batch must be positive, got " << batch);
    Plan plan = Builder(model, batch, options).build_inference();
    validate_plan(plan);
    // The serving invariant the analyses and relief lean on: an
    // inference plan is forward-only, with parameters resident.
    for (const Op &op : plan.iteration_ops)
        PP_ASSERT(op.phase != OpPhase::kBackward &&
                      op.phase != OpPhase::kOptimizer,
                  "inference plan contains training op '" << op.name
                                                          << "'");
    return plan;
}

void
validate_plan(const Plan &plan)
{
    std::unordered_set<TensorId> persistent(plan.persistent.begin(),
                                            plan.persistent.end());
    std::unordered_set<TensorId> live(persistent.begin(),
                                      persistent.end());
    std::unordered_set<TensorId> ever_allocated;

    for (const Op &op : plan.iteration_ops) {
        for (TensorId id : op.allocs) {
            PP_ASSERT(!persistent.count(id),
                      "op '" << op.name << "' allocates persistent "
                             << plan.tensor(id).name);
            PP_ASSERT(!live.count(id), "op '" << op.name
                      << "' allocates live tensor "
                      << plan.tensor(id).name);
            PP_ASSERT(!ever_allocated.count(id),
                      "tensor " << plan.tensor(id).name
                                << " allocated twice per iteration");
            live.insert(id);
            ever_allocated.insert(id);
        }
        for (TensorId id : op.reads)
            PP_ASSERT(live.count(id), "op '" << op.name
                      << "' reads dead tensor " << plan.tensor(id).name);
        for (TensorId id : op.writes)
            PP_ASSERT(live.count(id), "op '" << op.name
                      << "' writes dead tensor "
                      << plan.tensor(id).name);
        for (TensorId id : op.frees) {
            PP_ASSERT(!persistent.count(id),
                      "op '" << op.name << "' frees persistent "
                             << plan.tensor(id).name);
            PP_ASSERT(live.count(id), "op '" << op.name
                      << "' frees dead tensor " << plan.tensor(id).name);
            live.erase(id);
        }
    }
    for (TensorId id : live)
        PP_ASSERT(persistent.count(id),
                  "transient tensor " << plan.tensor(id).name
                                      << " leaks past iteration end");
}

}  // namespace runtime
}  // namespace pinpoint
