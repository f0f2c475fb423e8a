#include "analysis/iteration.h"

#include <algorithm>
#include <map>

#include "analysis/trace_view.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {
namespace {

/** FNV-1a over a size sequence. */
std::uint64_t
hash_sizes(const std::vector<std::size_t> &sizes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t s : sizes) {
        h ^= static_cast<std::uint64_t>(s);
        h *= 1099511628211ull;
    }
    return h;
}

/** @return the fraction of @p comparisons that matched. */
double
agreement(std::size_t matches, std::size_t comparisons)
{
    return static_cast<double>(matches) /
           static_cast<double>(comparisons);
}

/** Agreement a candidate period needs to be accepted. */
constexpr double kMinAgreement = 0.95;

/**
 * @return the fewest matches out of @p comparisons (>= 1) that reach
 * kMinAgreement, by the same agreement() expression the verdict
 * uses, so pruning on it never changes the verdict.
 */
std::size_t
min_matches(std::size_t comparisons)
{
    const auto enough = [&](std::size_t m) {
        return agreement(m, comparisons) >= kMinAgreement;
    };
    // agreement() is monotone in m: step from the estimate to the
    // exact boundary.
    auto m = static_cast<std::size_t>(kMinAgreement *
                                      static_cast<double>(comparisons));
    while (m > 0 && enough(m - 1))
        --m;
    while (!enough(m))
        ++m;
    return m;
}

}  // namespace

IterationPattern
detect_iteration_pattern(const TraceView &view)
{
    IterationPattern p;

    // Malloc-size sequence of non-setup events, plus the iteration
    // label of each allocation.
    std::vector<std::size_t> sizes;
    std::map<std::uint32_t, std::vector<std::size_t>> per_iteration;
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.kind(i) != trace::EventKind::kMalloc ||
            view.iteration(i) == trace::kSetupIteration)
            continue;
        sizes.push_back(view.event_size(i));
        per_iteration[view.iteration(i)].push_back(
            view.event_size(i));
    }

    // Label-free periodicity: smallest period with >= 95% agreement.
    // A candidate is dropped as soon as its mismatches exceed what
    // 95% agreement allows, so rejected periods cost a prefix scan.
    const std::size_t n = sizes.size();
    for (std::size_t period = 1; period * 2 <= n; ++period) {
        const std::size_t comparisons = n - period;
        const std::size_t allowed = comparisons - min_matches(comparisons);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i + period < n; ++i)
            if (sizes[i] != sizes[i + period] && ++mismatches > allowed)
                break;
        if (mismatches <= allowed) {
            p.period_allocs = period;
            p.period_confidence =
                agreement(comparisons - mismatches, comparisons);
            break;
        }
    }

    // Labeled signature stability.
    p.iterations = per_iteration.size();
    std::map<std::uint64_t, std::size_t> votes;
    for (const auto &[iter, seq] : per_iteration) {
        const std::uint64_t sig = hash_sizes(seq);
        p.signatures.push_back(sig);
        ++votes[sig];
    }
    if (!votes.empty()) {
        std::size_t modal = 0;
        for (const auto &[sig, count] : votes)
            modal = std::max(modal, count);
        p.signature_stability = static_cast<double>(modal) /
                                static_cast<double>(p.iterations);
    }
    return p;
}

}  // namespace analysis
}  // namespace pinpoint
