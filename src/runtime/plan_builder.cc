#include "runtime/plan_builder.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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

/**
 * Builds one Plan; single-use. Training and serving share one walk:
 * a serving plan is the training walk of one micro-batch without the
 * loss, the backward pass and the optimizer.
 */
class Builder
{
  public:
    Builder(const nn::Model &model, std::int64_t batch,
            const PlanOptions &opt, bool inference)
        : model_(model), graph_(model.graph), batch_(batch), opt_(opt),
          inference_(inference)
    {
    }

    Plan
    build()
    {
        const int k = opt_.micro_batches;
        if (inference_) {
            PP_CHECK(k == 1, "inference plans are per-request; "
                     "micro_batches must be 1, got " << k);
            PP_CHECK(opt_.checkpoint_every == 0,
                     "activation checkpointing is a backward-pass "
                     "technique; inference plans do not support it");
        }
        PP_CHECK(k >= 1, "micro_batches must be >= 1, got " << k);
        PP_CHECK(batch_ % k == 0, "batch " << batch_
                 << " is not divisible into " << k << " micro-batches");
        const nn::Node &loss = graph_.nodes().back();
        PP_CHECK(loss.kind == LayerKind::kSoftmaxCrossEntropy,
                 "model must end in a softmax_ce loss");
        micro_batch_ = batch_ / k;
        infos_ = nn::infer(graph_, model_.input_shape(micro_batch_));
        plan_.model_name = model_.name;
        plan_.batch = batch_;

        const std::size_t n = graph_.size();
        param_ids_.assign(n, {});
        create_parameters();
        const bool checkpointing = opt_.checkpoint_every > 0;
        if (checkpointing)
            select_checkpoints();
        for (mb_ = 0; mb_ < k; ++mb_) {
            act_.assign(n, kInvalidTensor);
            aux_.assign(n, kInvalidTensor);
            save_stats_.assign(n, {});
            contrib_.assign(n, {});
            emit_data_load();
            for (const nn::Node &node : graph_.nodes())
                emit_forward(node);
            emit_fetch(loss);
            if (inference_)
                break;  // serving runs no backward pass
            if (checkpointing)
                available_ = is_checkpoint_;
            for (std::size_t i = n; i-- > 0;) {
                const nn::Node &node = graph_.nodes()[i];
                if (checkpointing)
                    ensure_saved_activations(node);
                emit_backward(node);
            }
        }
        // Serving made no parameter gradients, so this emits nothing.
        emit_optimizer();
        place_frees();
        return std::move(plan_);
    }

  private:
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
        plan_.tensors.push_back(std::move(t));
        return plan_.tensors.back().id;
    }

    /** Makes @p op allocate and write the fresh tensor @p id. */
    static TensorId
    attach(Op &op, TensorId id)
    {
        op.allocs.push_back(id);
        op.writes.push_back(id);
        return id;
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

    /** The host uploads the batch (and, in training, its labels). */
    void
    emit_data_load()
    {
        std::vector<TensorId> loaded = {
            new_tensor("input.x" + sfx(), model_.input_shape(micro_batch_),
                       opt_.dtype, Category::kInput)};
        act_[static_cast<std::size_t>(graph_.input())] = loaded[0];
        // Serving requests carry no labels. In training there is one
        // label per classification row of the loss input: (N) for
        // classifiers, (N, S) for per-token LM losses.
        if (!inference_) {
            std::vector<std::int64_t> label_dims =
                info(graph_.nodes().back().inputs[0]).out_shape.dims();
            label_dims.pop_back();
            labels_ = new_tensor("input.labels" + sfx(),
                                 Shape(std::move(label_dims)),
                                 DType::kI64, Category::kInput);
            loaded.push_back(labels_);
        }
        Op &op = push_op("data.h2d", OpPhase::kDataLoad, 0.0);
        for (TensorId id : loaded)
            op.h2d_bytes += plan_.tensor(attach(op, id)).bytes();
    }

    /** @return the weight: the first parameter of @p node. */
    TensorId
    weight(const nn::Node &node) const
    {
        return param_ids_[static_cast<std::size_t>(node.id)]
            .front()
            .second;
    }

    TensorId
    in_act(const nn::Node &node, std::size_t i = 0) const
    {
        return act_[static_cast<std::size_t>(node.inputs[i])];
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
          case LayerKind::kSoftmaxCrossEntropy:
            if (inference_)
                return;  // serving fetches the logits instead
            break;
          default:
            break;
        }

        // Common path: the node materializes a fresh output block.
        TensorId out = new_tensor(node.name + ".out" + sfx(),
                                  ni.out_shape,
                                  opt_.dtype, Category::kIntermediate);
        act_[idx] = out;
        const auto &params = param_ids_[idx];

        if (node.kind == LayerKind::kLinear) {
            // Fig. 1 of the paper: star (mat_mul) then plus (add_bias)
            // as two separate kernels on the same output block.
            // Convolutions keep the fused-bias kernel cuDNN uses.
            Op &mm = push_op(node.name + ".mat_mul", OpPhase::kForward,
                             ni.fwd_flops);
            mm.allocs = {out};
            mm.reads = {in_act(node), params[0].second};
            mm.writes = {out};
            if (params.size() > 1) {
                Op &ab = push_op(node.name + ".add_bias",
                                 OpPhase::kForward,
                                 static_cast<double>(
                                     ni.out_shape.numel()));
                ab.reads = {params[1].second};
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
        // The kernel reads the node's parameters and buffers;
        // training-mode BN also updates its running stats (the
        // buffers) in place, while eval mode only reads them.
        for (const auto &[spec, tid] : params) {
            op.reads.push_back(tid);
            if (!spec.trainable && !inference_)
                op.writes.push_back(tid);
        }

        switch (node.kind) {
          case LayerKind::kConv2d:
            attach_workspace(op, node.name + ".workspace.fwd",
                             plan_.tensor(out).bytes());
            break;
          case LayerKind::kBatchNorm2d:
          case LayerKind::kLayerNorm:
            // Eval mode saves no statistics: there is no backward.
            if (!inference_)
                save_stats(op, node);
            break;
          case LayerKind::kDropout:
            aux_[idx] = attach(
                op, new_tensor(node.name + ".mask" + sfx(), ni.out_shape,
                               DType::kU8, Category::kIntermediate));
            break;
          case LayerKind::kSoftmaxCrossEntropy:
            op.reads.push_back(labels_);
            break;
          case LayerKind::kSelfAttention: {
            // The (N, heads, S, S) attention probabilities are
            // materialized and saved for backward — the seq^2 term
            // that dominates transformer training memory.
            const auto &a =
                std::get<nn::SelfAttentionAttrs>(node.attrs);
            const Shape &q = info(node.inputs[0]).out_shape;
            aux_[idx] = attach(
                op, new_tensor(node.name + ".probs" + sfx(),
                               Shape{q.dim(0), a.heads, q.dim(1),
                                     q.dim(1)},
                               opt_.dtype, Category::kIntermediate));
            break;
          }
          default:
            break;
        }
    }

    /**
     * Saves @p node's batch mean/invstd for backward: per channel
     * for BatchNorm, per row for LayerNorm.
     */
    void
    save_stats(Op &op, const nn::Node &node)
    {
        const Shape &out = info(node.id).out_shape;
        std::vector<std::int64_t> dims = out.dims();
        if (node.kind == LayerKind::kBatchNorm2d)
            dims = {out.dim(1)};
        else
            dims.pop_back();
        const Shape shape(std::move(dims));
        auto &[mean, invstd] =
            save_stats_[static_cast<std::size_t>(node.id)];
        mean = attach(op, new_tensor(node.name + ".save_mean" + sfx(),
                                     shape, DType::kF32,
                                     Category::kIntermediate));
        invstd = attach(op,
                        new_tensor(node.name + ".save_invstd" + sfx(),
                                   shape, DType::kF32,
                                   Category::kIntermediate));
    }

    /**
     * The host reads one result per step: the loss in training, the
     * logits feeding the (skipped) loss when serving.
     */
    void
    emit_fetch(const nn::Node &loss)
    {
        const NodeId fetched = inference_ ? loss.inputs[0] : loss.id;
        Op &op = push_op(inference_ ? "logits.item" : "loss.item",
                         OpPhase::kForward, 0.0);
        op.reads = {act_[static_cast<std::size_t>(fetched)]};
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
        op.reads = c;
        return attach(op, g);
    }

    void
    add_contribution(NodeId target, TensorId grad)
    {
        if (is_graph_input(target))
            return;  // the input data needs no gradient
        contrib_[static_cast<std::size_t>(target)].push_back(grad);
    }

    /**
     * Makes @p op produce @p node's gradient toward input @p i and
     * hands it to that input; the input data needs none.
     */
    void
    emit_dx(Op &op, const nn::Node &node, std::size_t i = 0,
            const std::string &tag = ".dx")
    {
        const NodeId in = node.inputs[i];
        if (is_graph_input(in))
            return;
        add_contribution(
            in, attach(op, new_tensor(node.name + tag + sfx(),
                                      info(in).out_shape, opt_.dtype,
                                      Category::kIntermediate)));
    }

    /**
     * Returns the grads of node params, creating them on the first
     * micro-batch; (id, fresh) — see write_grad.
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

    /**
     * Makes @p op write a param gradient of make_param_grads: a
     * fresh one is allocated, an existing one is accumulated into
     * (read + write), as PyTorch's AccumulateGrad does under
     * gradient accumulation.
     */
    static void
    write_grad(Op &op, std::pair<TensorId, bool> grad)
    {
        (grad.second ? op.allocs : op.reads).push_back(grad.first);
        op.writes.push_back(grad.first);
    }

    /** Attaches a fresh conv workspace block to @p op. */
    void
    attach_workspace(Op &op, const std::string &name,
                     std::size_t basis_bytes)
    {
        const std::size_t ws = workspace_bytes(basis_bytes);
        attach(op, new_tensor(name + sfx(),
                              Shape{static_cast<std::int64_t>(ws / 4)},
                              DType::kF32, Category::kIntermediate));
    }

    /**
     * Backward of conv/linear as the three kernels cuDNN/cuBLAS
     * launch: bias gradient (reduction over g), weight gradient
     * (g x saved input), and data gradient (g x weight).
     */
    void
    emit_matmul_like_backward(const nn::Node &node, TensorId g)
    {
        const nn::NodeInfo &ni = info(node.id);
        const bool is_conv = node.kind == LayerKind::kConv2d;
        const std::size_t in_bytes = plan_.tensor(in_act(node)).bytes();
        const auto grads = make_param_grads(node);
        PP_ASSERT(!grads.empty(), "conv/linear without weight");

        if (grads.size() > 1) {
            Op &op = push_op(node.name + ".backward.bgrad",
                             OpPhase::kBackward,
                             static_cast<double>(
                                 ni.out_shape.numel()));
            op.reads = {g};
            write_grad(op, grads[1]);
        }
        {
            Op &op = push_op(node.name + ".backward.wgrad",
                             OpPhase::kBackward, ni.bwd_flops / 2.0);
            op.reads = {g, in_act(node)};
            write_grad(op, grads[0]);
            if (is_conv)
                attach_workspace(op, node.name + ".workspace.wgrad",
                                 in_bytes);
        }
        if (!is_graph_input(node.inputs[0])) {
            Op &op = push_op(node.name + ".backward.dgrad",
                             OpPhase::kBackward, ni.bwd_flops / 2.0);
            op.reads = {g, weight(node)};
            emit_dx(op, node);
            if (is_conv)
                attach_workspace(op, node.name + ".workspace.dgrad",
                                 in_bytes);
        }
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
            Op &op = push_op(node.name + ".backward",
                             OpPhase::kBackward, ni.bwd_flops);
            op.reads = {in_act(node), labels_};
            emit_dx(op, node);
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

        if (node.kind == LayerKind::kConv2d ||
            node.kind == LayerKind::kLinear) {
            emit_matmul_like_backward(node, g);
            return;
        }

        Op &op = push_op(node.name + ".backward", OpPhase::kBackward,
                         ni.bwd_flops);
        op.reads = {g};

        switch (node.kind) {
          case LayerKind::kBatchNorm2d:
          case LayerKind::kLayerNorm: {
            const auto &[mean, invstd] = save_stats_[idx];
            op.reads.insert(op.reads.end(),
                            {in_act(node), weight(node), mean, invstd});
            for (const auto &grad : make_param_grads(node))
                write_grad(op, grad);
            emit_dx(op, node);
            break;
          }
          case LayerKind::kReLU:
            // In-place backward: the gradient block is reused.
            op.reads.push_back(act_[idx]);
            op.writes.push_back(g);
            add_contribution(node.inputs[0], g);
            return;
          case LayerKind::kDropout:
            op.reads.push_back(aux_[idx]);
            emit_dx(op, node);
            break;
          case LayerKind::kEmbedding:
            // Indices get no gradient; only the table does (dense
            // grad, as torch.nn.Embedding without sparse=True).
            for (const auto &grad : make_param_grads(node))
                write_grad(op, grad);
            break;
          case LayerKind::kSelfAttention: {
            // Reads Q, K, V and the saved probabilities; produces a
            // gradient per projection input.
            const char *tags[3] = {".dq", ".dk", ".dv"};
            for (std::size_t i = 0; i < 3; ++i)
                op.reads.push_back(in_act(node, i));
            op.reads.push_back(aux_[idx]);
            for (std::size_t i = 0; i < 3; ++i)
                emit_dx(op, node, i, tags[i]);
            break;
          }
          case LayerKind::kMaxPool2d:
          case LayerKind::kAvgPool2d:
          case LayerKind::kAdaptiveAvgPool2d:
          case LayerKind::kGELU:
          case LayerKind::kLRN:
            op.reads.push_back(in_act(node));
            op.reads.push_back(act_[idx]);
            emit_dx(op, node);
            break;
          case LayerKind::kConcat:
            // Split: one materialized slice gradient per branch.
            for (std::size_t i = 0; i < node.inputs.size(); ++i)
                emit_dx(op, node, i, ".dx" + std::to_string(i));
            break;
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
    /** Forward-only serving lowering: no loss, backward or optimizer. */
    bool inference_;
    std::vector<nn::NodeInfo> infos_;
    Plan plan_;
    std::int64_t micro_batch_ = 0;
    int mb_ = 0;
    bool recompute_pass_ = false;
    /** Checkpointed (kept) activations, per node. */
    std::vector<bool> is_checkpoint_;
    /** Activations currently valid during the backward sweep. */
    std::vector<bool> available_;
    /** Parameter tensor → shared gradient accumulation buffer. */
    std::unordered_map<TensorId, TensorId> param_grad_;

    std::vector<TensorId> act_;
    /** Per-node saved aux tensor: dropout mask, attention probs. */
    std::vector<TensorId> aux_;
    /** Per-norm-node (save_mean, save_invstd) ids, set in forward. */
    std::vector<std::pair<TensorId, TensorId>> save_stats_;
    std::vector<std::vector<TensorId>> contrib_;
    std::vector<std::vector<std::pair<nn::ParamSpec, TensorId>>>
        param_ids_;
    std::vector<std::pair<TensorId, TensorId>> opt_pairs_;
    TensorId labels_ = kInvalidTensor;
};

Plan
lower(const nn::Model &model, std::int64_t batch,
      const PlanOptions &options, bool inference)
{
    PP_CHECK(batch > 0, "batch must be positive, got " << batch);
    Plan plan = Builder(model, batch, options, inference).build();
    validate_plan(plan);
    return plan;
}

}  // namespace

Plan
build_plan(const nn::Model &model, std::int64_t batch,
           const PlanOptions &options)
{
    return lower(model, batch, options, /*inference=*/false);
}

Plan
build_inference_plan(const nn::Model &model, std::int64_t batch,
                     const PlanOptions &options)
{
    Plan plan = lower(model, batch, options, /*inference=*/true);
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
    std::unordered_set<std::string_view> names;
    for (const TensorMeta &t : plan.tensors)
        PP_ASSERT(names.insert(t.name).second,
                  "duplicate tensor name '" << t.name << "'");

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
