/**
 * @file
 * Session-digest golden: training, serving and data-parallel
 * sessions over part of the zoo and all three allocators, each
 * hashed into one FNV-1a digest pinned in
 * tests/runtime/golden/session_digests.tsv. The digest covers all
 * ten trace columns, the op names, every allocator stat, the
 * per-category usage, the end time, the steady-state iteration time,
 * the peak reservation and the device fragmentation, so any change
 * to what a session produces fails this test, while a change to how
 * the engine produces it passes untouched.
 *
 * The sessions are long enough that the engine tiles most of their
 * iterations and requests (runtime/engine.h), which the short CLI
 * goldens are not.
 *
 * On a mismatch the test prints the whole actual table; paste it
 * over the golden file only when session output is meant to change.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "alloc/allocator.h"
#include "core/hash.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "runtime/data_parallel.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace runtime {
namespace {

constexpr std::int64_t kBatch = 8;
constexpr int kIterations = 6;
constexpr int kRequests = 48;

/** @return @p h with the 8 bytes of @p v folded in, low byte first. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnv1aPrime;
    }
    return h;
}

template <typename T>
std::uint64_t
fold_column(std::uint64_t h, const trace::Column<T> &column)
{
    for (const T &v : column)
        h = fold(h, static_cast<std::uint64_t>(v));
    return h;
}

/** @return the FNV-1a digest of everything @p s reports. */
std::uint64_t
session_digest(const SessionResult &s)
{
    const trace::EventColumns &c = s.trace.columns();
    std::uint64_t h = fold(kFnv1aOffset, c.time.size());
    h = fold_column(h, c.time);
    h = fold_column(h, c.kind);
    h = fold_column(h, c.block);
    h = fold_column(h, c.ptr);
    h = fold_column(h, c.size);
    h = fold_column(h, c.tensor);
    h = fold_column(h, c.category);
    h = fold_column(h, c.iteration);
    h = fold_column(h, c.op_index);
    h = fold_column(h, c.op);
    for (const std::string &name : s.trace.op_names())
        h = fnv1a64(name + "\n", h);

    const alloc::AllocatorStats &a = s.alloc_stats;
    for (std::uint64_t v :
         {std::uint64_t{a.allocated_bytes}, std::uint64_t{a.reserved_bytes},
          std::uint64_t{a.peak_allocated_bytes},
          std::uint64_t{a.peak_reserved_bytes}, a.alloc_count,
          a.free_count, a.device_alloc_count, a.device_free_count,
          a.cache_hit_count, a.split_count, a.merge_count})
        h = fold(h, v);
    for (int k = 0; k < kNumCategories; ++k) {
        h = fold(h, s.usage.current[k]);
        h = fold(h, s.usage.peak[k]);
        h = fold(h, s.usage.at_peak[k]);
    }
    h = fold(h, s.usage.peak_total);
    h = fold(h, s.end_time);
    h = fold(h, s.iteration_time);
    h = fold(h, s.peak_reserved_bytes);
    std::uint64_t fragmentation_bits = 0;
    static_assert(sizeof(fragmentation_bits) ==
                  sizeof(s.device_fragmentation));
    std::memcpy(&fragmentation_bits, &s.device_fragmentation,
                sizeof(fragmentation_bits));
    return fold(h, fragmentation_bits);
}

std::string
row(const std::string &model, const std::string &allocator,
    const std::string &config, const SessionResult &s)
{
    return model + "\t" + allocator + "\t" + config + "\t" +
           std::to_string(s.trace.size()) + "\t" +
           to_hex16(session_digest(s)) + "\n";
}

SessionConfig
train_config(AllocatorKind allocator)
{
    SessionConfig config;
    config.batch = kBatch;
    config.iterations = kIterations;
    config.allocator = allocator;
    return config;
}

std::string
digest_table()
{
    std::string out = "model\tallocator\tconfig\tevents\tdigest\n";
    for (const char *name :
         {"mlp", "resnet18", "transformer", "inception", "mobilenet"}) {
        const nn::Model model = nn::build_model(name);
        for (const std::string &allocator : allocator_names()) {
            const AllocatorKind kind =
                allocator_kind_from_name(allocator);
            out += row(name, allocator, "train-i6",
                       run_training(model, train_config(kind)));
            InferenceConfig infer;
            infer.session = train_config(kind);
            infer.requests = kRequests;
            infer.arrival = ArrivalKind::kBursty;
            infer.seed = arrival_seed(name);
            out += row(name, allocator, "infer-r48",
                       run_inference(model, infer).session);
        }
    }

    const nn::Model resnet18 = nn::build_model("resnet18");
    DataParallelConfig dp;
    dp.session = train_config(AllocatorKind::kCaching);
    dp.devices = 2;
    out += row("resnet18", "caching", "train-i6-dp2",
               run_data_parallel(resnet18, dp).session);

    SessionConfig micro = train_config(AllocatorKind::kCaching);
    micro.plan.micro_batches = 2;
    out += row("resnet18", "caching", "train-i6-micro2",
               run_training(resnet18, micro));

    const nn::Model mlp = nn::build_model("mlp");
    for (const std::string &allocator : allocator_names()) {
        SessionConfig ckpt =
            train_config(allocator_kind_from_name(allocator));
        ckpt.plan.checkpoint_every = 2;
        out += row("mlp", allocator, "train-i6-ckpt2",
                   run_training(mlp, ckpt));
    }

    // Epoch boundaries after iterations 2 and 4 re-stage the buffer.
    for (const std::string &allocator : allocator_names()) {
        SessionConfig staged =
            train_config(allocator_kind_from_name(allocator));
        staged.engine.staging_buffer_bytes = 64ull * 1024 * 1024;
        staged.engine.iterations_per_epoch = 2;
        out += row("mlp", allocator, "train-i6-staging",
                   run_training(mlp, staged));
    }
    return out;
}

std::string
read_golden()
{
    const std::string path = std::string(PINPOINT_SOURCE_DIR) +
                             "/tests/runtime/golden/session_digests.tsv";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(SessionDigest, EverySessionMatchesTheGolden)
{
    const std::string actual = digest_table();
    EXPECT_EQ(actual, read_golden()) << "actual table:\n" << actual;
}

}  // namespace
}  // namespace runtime
}  // namespace pinpoint
