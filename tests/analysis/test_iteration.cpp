/** @file Unit tests for iterative-pattern detection. */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/iteration.h"
#include "analysis/trace_view.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
malloc_ev(TimeNs t, BlockId block, std::size_t size,
          std::uint32_t iteration)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = trace::EventKind::kMalloc;
    e.block = block;
    e.size = size;
    e.iteration = iteration;
    return e;
}

TEST(IterationPattern, PerfectlyPeriodicTrace)
{
    trace::TraceRecorder r;
    TimeNs t = 0;
    BlockId id = 0;
    for (std::uint32_t iter = 0; iter < 6; ++iter) {
        for (std::size_t size : {512, 1024, 4096}) {
            r.record(malloc_ev(t, id, size, iter));
            t += 10;
            ++id;
        }
    }
    const auto p = detect_iteration_pattern(TraceView(r));
    EXPECT_EQ(p.period_allocs, 3u);
    EXPECT_DOUBLE_EQ(p.period_confidence, 1.0);
    EXPECT_EQ(p.iterations, 6u);
    EXPECT_DOUBLE_EQ(p.signature_stability, 1.0);
    // All signatures identical.
    for (const auto sig : p.signatures)
        EXPECT_EQ(sig, p.signatures.front());
}

TEST(IterationPattern, SetupEventsAreExcluded)
{
    trace::TraceRecorder r;
    // Setup noise would break the period if counted.
    r.record(malloc_ev(0, 1000, 999, trace::kSetupIteration));
    r.record(malloc_ev(1, 1001, 777, trace::kSetupIteration));
    TimeNs t = 10;
    BlockId id = 0;
    for (std::uint32_t iter = 0; iter < 4; ++iter) {
        for (std::size_t size : {512, 2048}) {
            r.record(malloc_ev(t, id, size, iter));
            t += 10;
            ++id;
        }
    }
    const auto p = detect_iteration_pattern(TraceView(r));
    EXPECT_EQ(p.period_allocs, 2u);
    EXPECT_EQ(p.iterations, 4u);
}

TEST(IterationPattern, AperiodicTraceFindsNoPeriod)
{
    trace::TraceRecorder r;
    TimeNs t = 0;
    for (std::size_t i = 0; i < 32; ++i)
        r.record(malloc_ev(t += 10, i, 512 * (i + 1), 0));
    const auto p = detect_iteration_pattern(TraceView(r));
    EXPECT_EQ(p.period_allocs, 0u);
    EXPECT_EQ(p.iterations, 1u);
}

TEST(IterationPattern, OneDivergentIterationLowersStability)
{
    trace::TraceRecorder r;
    TimeNs t = 0;
    BlockId id = 0;
    for (std::uint32_t iter = 0; iter < 5; ++iter) {
        const std::size_t second = iter == 2 ? 8192 : 1024;
        r.record(malloc_ev(t += 10, id++, 512, iter));
        r.record(malloc_ev(t += 10, id++, second, iter));
    }
    const auto p = detect_iteration_pattern(TraceView(r));
    EXPECT_EQ(p.iterations, 5u);
    EXPECT_DOUBLE_EQ(p.signature_stability, 0.8);
}

/**
 * The label-free period search without pruning: every candidate
 * period scans all its comparisons. The reference the pruned search
 * in detect_iteration_pattern must agree with exactly.
 */
std::pair<std::size_t, double>
brute_force_period(const std::vector<std::size_t> &sizes)
{
    const std::size_t n = sizes.size();
    for (std::size_t period = 1; period * 2 <= n; ++period) {
        std::size_t match = 0;
        const std::size_t comparisons = n - period;
        for (std::size_t i = 0; i + period < n; ++i)
            if (sizes[i] == sizes[i + period])
                ++match;
        const double conf = static_cast<double>(match) /
                            static_cast<double>(comparisons);
        if (conf >= 0.95)
            return {period, conf};
    }
    return {0, 0.0};
}

/** Runs detect_iteration_pattern on one malloc per size. */
IterationPattern
detect_sizes(const std::vector<std::size_t> &sizes)
{
    trace::TraceRecorder r;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        r.record(malloc_ev(10 * i, i, sizes[i], 0));
    return detect_iteration_pattern(TraceView(r));
}

void
expect_brute_force_verdict(const std::vector<std::size_t> &sizes,
                           const std::string &label)
{
    const auto want = brute_force_period(sizes);
    const IterationPattern got = detect_sizes(sizes);
    EXPECT_EQ(got.period_allocs, want.first) << label;
    // Bit-equal, not approximately: same expression, same double.
    EXPECT_EQ(got.period_confidence, want.second) << label;
}

/** @p repeats copies of 0..@p period-1 scaled to block sizes. */
std::vector<std::size_t>
periodic(std::size_t period, std::size_t repeats)
{
    std::vector<std::size_t> sizes;
    for (std::size_t r = 0; r < repeats; ++r)
        for (std::size_t k = 0; k < period; ++k)
            sizes.push_back(512 * (k + 1));
    return sizes;
}

TEST(IterationPattern, PrunedSearchMatchesBruteForceOnPeriodicSizes)
{
    for (std::size_t period : {1, 2, 7, 31, 64})
        for (std::size_t repeats : {2, 3, 10})
            expect_brute_force_verdict(
                periodic(period, repeats),
                "period " + std::to_string(period) + " x" +
                    std::to_string(repeats));
}

TEST(IterationPattern, PrunedSearchMatchesBruteForceOnNoisySizes)
{
    // Corrupt a periodic sequence at rates around the 5% threshold.
    std::mt19937 rng(7);
    for (std::size_t per_mille : {0, 10, 30, 45, 50, 55, 80, 200}) {
        for (std::size_t period : {5, 13, 40}) {
            std::vector<std::size_t> sizes = periodic(period, 30);
            for (std::size_t &s : sizes)
                if (rng() % 1000 < per_mille)
                    s = 512 * (1 + rng() % (2 * period));
            expect_brute_force_verdict(
                sizes, "noise " + std::to_string(per_mille) +
                           "/1000, period " + std::to_string(period));
        }
    }
}

TEST(IterationPattern, PrunedSearchMatchesBruteForceOnAperiodicSizes)
{
    std::mt19937 rng(11);
    for (std::size_t alphabet : {2, 3, 16, 1000}) {
        std::vector<std::size_t> sizes;
        for (int i = 0; i < 400; ++i)
            sizes.push_back(512 * (1 + rng() % alphabet));
        expect_brute_force_verdict(
            sizes, "alphabet " + std::to_string(alphabet));
    }
    std::vector<std::size_t> rising;
    for (std::size_t i = 0; i < 100; ++i)
        rising.push_back(512 * (i + 1));
    expect_brute_force_verdict(rising, "rising");
    expect_brute_force_verdict({}, "empty");
    expect_brute_force_verdict({512}, "single");
}

TEST(IterationPattern, PrunedSearchMatchesBruteForceAtTheThreshold)
{
    // Period 20 with distinct sizes, then k sizes of the last period
    // replaced: each costs exactly one comparison at period 20. With
    // n - 20 comparisons this sweeps agreement across exactly 95%
    // (c = 20, 40, 60, 80, 100 with k = c / 20 land on it).
    for (std::size_t n = 40; n <= 140; ++n) {
        for (std::size_t k = 0; k <= 8; ++k) {
            std::vector<std::size_t> sizes;
            for (std::size_t i = 0; i < n; ++i)
                sizes.push_back(512 * (i % 20 + 1));
            for (std::size_t j = 0; j < k; ++j)
                sizes[n - 1 - j] = 1000000 + j;
            expect_brute_force_verdict(
                sizes, "n " + std::to_string(n) + ", k " +
                           std::to_string(k));
        }
    }
    // The boundary itself is accepted, one more mismatch is not.
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < 120; ++i)
        sizes.push_back(512 * (i % 20 + 1));
    for (std::size_t j = 0; j < 5; ++j)
        sizes[119 - j] = 1000000 + j;
    IterationPattern p = detect_sizes(sizes);
    EXPECT_EQ(p.period_allocs, 20u);
    EXPECT_EQ(p.period_confidence, 0.95);
    sizes[114] = 2000000;
    p = detect_sizes(sizes);
    EXPECT_EQ(p.period_allocs, 0u);
}

TEST(IterationPattern, EmptyTrace)
{
    const auto p = detect_iteration_pattern(TraceView(trace::TraceRecorder{}));
    EXPECT_EQ(p.period_allocs, 0u);
    EXPECT_EQ(p.iterations, 0u);
    EXPECT_DOUBLE_EQ(p.signature_stability, 0.0);
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
