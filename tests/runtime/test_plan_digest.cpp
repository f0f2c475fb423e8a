/**
 * @file
 * Plan-digest golden: a content hash of every lowered plan over the
 * model zoo, pinned in tests/runtime/golden/plan_digests.tsv. The
 * digest covers every tensor (name, dims, dtype, category) and every
 * op (name, phase, flops bits, alloc/read/write/free names,
 * h2d_bytes), so any change to what the builder lowers — a renamed
 * tensor, a moved free, a different flop count — fails this test,
 * while a refactor of how it lowers passes untouched.
 *
 * On a mismatch the test prints the whole actual table; paste it
 * over the golden file only when the lowering is meant to change.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/check.h"
#include "core/dtype.h"
#include "core/hash.h"
#include "nn/model_registry.h"
#include "runtime/plan_builder.h"

namespace pinpoint {
namespace runtime {
namespace {

constexpr std::int64_t kBatch = 4;

std::uint64_t
hash_names(const Plan &plan, const std::vector<TensorId> &ids,
           std::uint64_t h)
{
    h = fnv1a64("[", h);
    for (TensorId id : ids)
        h = fnv1a64(plan.tensor(id).name + ",", h);
    return fnv1a64("]", h);
}

/** @return the FNV-1a digest of @p plan's tensors and ops. */
std::uint64_t
plan_digest(const Plan &plan)
{
    std::uint64_t h = fnv1a64(plan.model_name + "\t" +
                              std::to_string(plan.batch));
    for (const TensorMeta &t : plan.tensors) {
        std::string dims;
        for (std::int64_t d : t.shape.dims())
            dims += std::to_string(d) + "x";
        h = fnv1a64(t.name + "\t" + dims + "\t" + dtype_name(t.dtype) +
                        "\t" + category_name(t.category) + "\n",
                    h);
    }
    h = hash_names(plan, plan.persistent, h);
    for (const Op &op : plan.iteration_ops) {
        std::uint64_t flops_bits = 0;
        static_assert(sizeof(flops_bits) == sizeof(op.flops), "f64");
        std::memcpy(&flops_bits, &op.flops, sizeof(flops_bits));
        h = fnv1a64(op.name + "\t" +
                        std::to_string(static_cast<int>(op.phase)) +
                        "\t" + to_hex16(flops_bits) + "\t" +
                        std::to_string(op.h2d_bytes),
                    h);
        h = hash_names(plan, op.allocs, h);
        h = hash_names(plan, op.reads, h);
        h = hash_names(plan, op.writes, h);
        h = hash_names(plan, op.frees, h);
    }
    return h;
}

std::string
row(const std::string &model, const std::string &config,
    const Plan &plan)
{
    return model + "\t" + config + "\t" +
           std::to_string(plan.tensors.size()) + "\t" +
           std::to_string(plan.iteration_ops.size()) + "\t" +
           to_hex16(plan_digest(plan)) + "\n";
}

/**
 * @return the digest table over the zoo. Configurations a model
 * cannot lower (checkpointing on fan-out graphs) have no row, so a
 * lowering that starts or stops throwing changes the table too.
 */
std::string
digest_table()
{
    std::string out = "model\tconfig\ttensors\tops\tdigest\n";
    for (const nn::ModelEntry &entry : nn::model_registry()) {
        const nn::Model model = entry.build();
        PlanOptions micro;
        micro.micro_batches = 2;
        PlanOptions f16;
        f16.dtype = DType::kF16;
        PlanOptions ckpt;
        ckpt.checkpoint_every = 2;

        out += row(entry.name, "train", build_plan(model, kBatch));
        out += row(entry.name, "infer",
                   build_inference_plan(model, kBatch));
        out += row(entry.name, "micro2",
                   build_plan(model, kBatch, micro));
        out += row(entry.name, "f16", build_plan(model, kBatch, f16));
        try {
            out += row(entry.name, "ckpt2",
                       build_plan(model, kBatch, ckpt));
        } catch (const Error &) {
            // Fan-out graph: checkpointing supports chains only.
        }
    }
    PlanOptions at_end;
    at_end.free_policy = FreePolicy::kIterationEnd;
    out += row("resnet18", "iteration-end",
               build_plan(nn::build_model("resnet18"), kBatch, at_end));
    return out;
}

std::string
read_golden()
{
    const std::string path = std::string(PINPOINT_SOURCE_DIR) +
                             "/tests/runtime/golden/plan_digests.tsv";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(PlanDigest, EveryZooPlanMatchesTheGolden)
{
    const std::string actual = digest_table();
    EXPECT_EQ(actual, read_golden()) << "actual table:\n" << actual;
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
