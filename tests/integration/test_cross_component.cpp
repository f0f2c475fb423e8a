/**
 * @file
 * Cross-component integration: full runs through every allocator,
 * the transformer workload end-to-end, and export paths exercised
 * on real traces.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/trace_view.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "trace/chrome_trace.h"
#include "trace/csv.h"

namespace pinpoint {
namespace {

TEST(CrossComponent, EveryAllocatorRunsTheSameWorkload)
{
    for (auto kind : {runtime::AllocatorKind::kCaching,
                      runtime::AllocatorKind::kDirect,
                      runtime::AllocatorKind::kBuddy}) {
        runtime::SessionConfig config;
        config.batch = 32;
        config.iterations = 4;
        config.allocator = kind;
        const auto r = runtime::run_training(nn::alexnet_cifar(),
                                             config);
        EXPECT_EQ(r.alloc_stats.alloc_count, r.alloc_stats.free_count)
            << static_cast<int>(kind);
        const auto pattern =
            analysis::detect_iteration_pattern(r.view());
        EXPECT_DOUBLE_EQ(pattern.signature_stability, 1.0)
            << "iterativity is allocator-independent";
    }
}

TEST(CrossComponent, TransformerTrainsAndBreaksDownSanely)
{
    nn::TransformerConfig cfg;
    cfg.layers = 2;
    cfg.d_model = 128;
    cfg.heads = 4;
    cfg.d_ff = 512;
    cfg.seq_len = 64;
    cfg.vocab = 5000;

    runtime::SessionConfig config;
    config.batch = 4;
    config.iterations = 3;
    const auto r =
        runtime::run_training(nn::transformer_encoder(cfg), config);
    const auto b = analysis::occupation_breakdown(r.view());
    EXPECT_GT(b.peak_total(), 0u);
    EXPECT_GT(b.fraction(Category::kIntermediate), 0.3);
    // The attention probs tensor exists with the right size.
    bool found_probs = false;
    for (const auto &e : r.trace.events()) {
        if (e.kind == trace::EventKind::kMalloc &&
            r.trace.op_name(e.op) == "alloc.layer0.attn.sdpa.probs") {
            found_probs = true;
            EXPECT_EQ(e.size,
                      static_cast<std::size_t>(4 * 4 * 64 * 64) * 4);
        }
    }
    EXPECT_TRUE(found_probs);
}

TEST(CrossComponent, ChromeExportOfARealRunIsWellFormed)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    const auto r = runtime::run_training(nn::mlp(), config);
    std::stringstream ss;
    trace::write_chrome_trace(r.trace, ss);
    const std::string out = ss.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    // Begin/end pairs balance because the engine frees everything.
    const auto count_of = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = out.find(needle);
             pos != std::string::npos;
             pos = out.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count_of("\"ph\":\"b\""), count_of("\"ph\":\"e\""));
}

TEST(CrossComponent, CsvRoundTripPreservesAnalyses)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    const auto r = runtime::run_training(nn::resnet(18), config);

    std::stringstream ss;
    trace::write_csv(r.trace, ss);
    const auto reloaded = trace::read_csv(ss);
    const auto a = analysis::occupation_breakdown(r.view());
    const auto b = analysis::occupation_breakdown(analysis::TraceView(reloaded));
    EXPECT_EQ(a.peak_total(), b.peak_total());
    EXPECT_EQ(a.at_peak, b.at_peak);
    EXPECT_EQ(a.peak_time, b.peak_time);
}

TEST(CrossComponent, MicroBatchingPreservesIterativity)
{
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 6;
    config.plan.micro_batches = 4;
    const auto r = runtime::run_training(nn::mlp(), config);
    const auto pattern = analysis::detect_iteration_pattern(r.view());
    EXPECT_DOUBLE_EQ(pattern.signature_stability, 1.0);
    EXPECT_GT(pattern.period_allocs, 0u);
}

}  // namespace
}  // namespace pinpoint
