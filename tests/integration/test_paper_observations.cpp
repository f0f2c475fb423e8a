/**
 * @file
 * Integration tests: each of the paper's headline observations,
 * verified end-to-end against full simulated training runs. These
 * are the acceptance tests of the reproduction.
 */
#include <gtest/gtest.h>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/outliers.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "alloc/device_memory.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "support/trace_counts.h"

namespace pinpoint {
namespace {

/** One shared MLP run (paper Sec. II setup), reused across tests. */
class MlpRun : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        runtime::SessionConfig config;
        config.batch = 64;
        config.iterations = 20;
        result_ = new runtime::SessionResult(
            runtime::run_training(nn::mlp(), config));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        result_ = nullptr;
    }

    static runtime::SessionResult *result_;
};

runtime::SessionResult *MlpRun::result_ = nullptr;

TEST_F(MlpRun, Fig2IterativeMemoryAccessPatterns)
{
    // "There are obvious iterative memory access patterns."
    const auto p = analysis::detect_iteration_pattern(result_->view());
    EXPECT_GT(p.period_allocs, 0u) << "label-free period must exist";
    EXPECT_DOUBLE_EQ(p.signature_stability, 1.0)
        << "every iteration must allocate the identical block "
           "size sequence";
    EXPECT_EQ(p.iterations, 20u);
}

TEST_F(MlpRun, Fig2FewMemoryFragments)
{
    // "There are fewer memory fragments during MLP training."
    const analysis::Timeline &timeline = result_->view().timeline();
    const auto gaps = timeline.gaps_at(timeline.peak_time());
    EXPECT_LT(gaps.gap_fraction(), 0.5)
        << "live blocks must be densely packed at peak";
}

TEST_F(MlpRun, Fig3AtisAreConcentrated)
{
    // "The ATIs of most memory behaviors range from 10us to 25us,
    //  and their distributions are relatively concentrated."
    const auto atis = analysis::compute_atis(result_->view());
    ASSERT_GT(atis.size(), 100u);
    const auto s =
        analysis::summarize(analysis::ati_microseconds(atis));
    EXPECT_GE(s.median, 5.0);
    EXPECT_LE(s.median, 30.0) << "median in/near the 10-25us band";
    // Concentration: the IQR is narrow relative to the full range.
    EXPECT_LT(s.p75 - s.p25, (s.max - s.min) * 0.5);
}

TEST_F(MlpRun, Fig3MostBehaviorsAreNegligibleForSwapping)
{
    // Eq. 1 with the measured link: behaviors in the concentrated
    // band can hide only ~tens of KB — negligible.
    const analysis::LinkBandwidth link{6.4e9, 6.3e9};
    const auto atis = analysis::compute_atis(result_->view());
    analysis::Cdf cdf(analysis::ati_microseconds(atis));
    const double typical_gap_us = cdf.percentile(0.5);
    const double hideable = analysis::max_swap_bytes(
        static_cast<TimeNs>(typical_gap_us * kNsPerUs), link);
    EXPECT_LT(hideable, 256.0 * 1024)
        << "typical gaps must hide well under 256 KB";
}

TEST_F(MlpRun, Fig5ParametersAreASmallFraction)
{
    // "For most DNNs, parameters only account for a small fraction."
    const auto b = analysis::occupation_breakdown(result_->view());
    EXPECT_LT(b.fraction(Category::kParameter), 0.25);
    EXPECT_GT(b.fraction(Category::kIntermediate), 0.5)
        << "intermediate results are the primary contributor";
}

TEST(PaperObservations, Fig4OutlierExistsWithStagedDataset)
{
    runtime::SessionConfig config;
    config.batch = 64;
    config.engine.staging_buffer_bytes = 1200ull * 1024 * 1024;
    config.engine.iterations_per_epoch = 50;
    config.iterations = 101;
    const auto result = runtime::run_training(nn::mlp(), config);

    const auto atis = analysis::compute_atis(result.view());
    analysis::OutlierCriteria criteria;
    criteria.min_interval = 5 * kNsPerMs;  // epoch ~= 50 iterations
    criteria.min_size = 600ull * 1024 * 1024;
    const auto outliers = analysis::sift_outliers(atis, criteria);
    ASSERT_FALSE(outliers.empty())
        << "the staged dataset must show up as a huge-ATI, "
           "huge-size behavior";
    EXPECT_EQ(outliers.front().size, 1200ull * 1024 * 1024);
    EXPECT_EQ(outliers.front().category, Category::kInput);
}

TEST(PaperObservations, Fig6IntermediatesGrowWithBatch)
{
    // AlexNet/CIFAR-100: growing batch shifts the breakdown toward
    // intermediates, shrinks the parameter share, and slightly
    // raises the input share.
    const nn::Model model = nn::alexnet_cifar();
    double prev_param = 1.0;
    double prev_input = 0.0;
    std::size_t prev_interm_bytes = 0;
    for (std::int64_t batch : {16, 64, 256}) {
        runtime::SessionConfig config;
        config.batch = batch;
        config.iterations = 2;
        const auto r = runtime::run_training(model, config);
        const auto b = analysis::occupation_breakdown(r.view());
        const double param = b.fraction(Category::kParameter);
        const double input = b.fraction(Category::kInput);
        const std::size_t interm =
            b.at_peak[static_cast<int>(Category::kIntermediate)];
        EXPECT_LT(param, prev_param)
            << "parameter share must fall with batch " << batch;
        EXPECT_GT(input, prev_input)
            << "input share must rise with batch " << batch;
        EXPECT_GT(interm, prev_interm_bytes);
        prev_param = param;
        prev_input = input;
        prev_interm_bytes = interm;
    }
}

TEST(PaperObservations, Fig7DeeperResNetsStayIntermediateDominated)
{
    double share18 = 0.0;
    double share101 = 0.0;
    for (int depth : {18, 101}) {
        runtime::SessionConfig config;
        config.batch = 16;
        config.iterations = 2;
        const auto r =
            runtime::run_training(nn::resnet(depth), config);
        const auto b = analysis::occupation_breakdown(r.view());
        const double share = b.fraction(Category::kIntermediate);
        EXPECT_GT(share, 0.7) << "resnet" << depth;
        if (depth == 18)
            share18 = share;
        else
            share101 = share;
    }
    EXPECT_GT(share101, 0.8);
    EXPECT_GT(share18, 0.8);
}

TEST(PaperObservations, IntroInceptionStyleOomBeyondCapacity)
{
    // The intro's motivation: models can demand more memory than
    // the device has. A 12 GB Titan X cannot train ResNet-152 at
    // batch 128 — while the 40 GB A100 preset can plan it.
    runtime::SessionConfig config;
    config.batch = 128;
    config.iterations = 1;
    config.record_trace = false;
    EXPECT_THROW(runtime::run_training(nn::resnet(152), config),
                 alloc::DeviceOomError);
}

TEST(PaperObservations, TraceIsSelfConsistentAcrossAllocators)
{
    // The characterization must not depend on the allocator: block
    // count and per-category peaks match between caching and direct.
    runtime::SessionConfig config;
    config.batch = 32;
    config.iterations = 3;
    config.allocator = runtime::AllocatorKind::kCaching;
    const auto caching = runtime::run_training(nn::mlp(), config);
    config.allocator = runtime::AllocatorKind::kDirect;
    const auto direct = runtime::run_training(nn::mlp(), config);

    EXPECT_EQ(
        test_support::count_kind(caching.trace, trace::EventKind::kMalloc),
        test_support::count_kind(direct.trace, trace::EventKind::kMalloc));
    EXPECT_EQ(
        test_support::count_kind(caching.trace, trace::EventKind::kRead),
        test_support::count_kind(direct.trace, trace::EventKind::kRead));
    // Caching rounds block sizes up, so peaks may differ slightly
    // but within the rounding slack.
    const auto bc = analysis::occupation_breakdown(caching.view());
    const auto bd = analysis::occupation_breakdown(direct.view());
    EXPECT_NEAR(static_cast<double>(bc.peak_total()),
                static_cast<double>(bd.peak_total()),
                0.05 * static_cast<double>(bd.peak_total()));
}

}  // namespace
}  // namespace pinpoint
