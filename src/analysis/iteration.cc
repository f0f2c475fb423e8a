#include "analysis/iteration.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/trace_view.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {
namespace {

/** FNV-1a offset basis: the hash of an empty size sequence. */
constexpr std::uint64_t kEmptyHash = 1469598103934665603ull;

/** @return FNV-1a hash @p h of a size sequence, extended by @p size. */
std::uint64_t
hash_size(std::uint64_t h, std::size_t size)
{
    return (h ^ static_cast<std::uint64_t>(size)) * 1099511628211ull;
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

/** Marks a Piece of sizes collected from walked events. */
constexpr std::size_t kWalked = ~std::size_t{0};

/**
 * Sizes [begin, begin + length) of the malloc-size sequence: a tile's
 * copy of its source's sizes (`source`), or walked ones (kWalked).
 */
struct Piece {
    std::size_t begin = 0;
    std::size_t length = 0;
    std::size_t source = kWalked;
};

/**
 * A source's size mismatches at one period p <= its length L: inside
 * a copy (size j against j + p) and from a copy into the next copy
 * (size j >= L - p against j + p - L).
 */
struct SourceMismatches {
    std::size_t period = 0;
    std::size_t inner = 0;
    std::size_t across = 0;

    /** Counts them for @p period unless they are counted. */
    void
    count(const std::vector<std::size_t> &sizes, std::size_t p)
    {
        if (period == p)
            return;
        period = p;
        const std::size_t length = sizes.size();
        inner = 0;
        for (std::size_t j = 0; j + p < length; ++j)
            inner += sizes[j] != sizes[j + p];
        across = 0;
        for (std::size_t j = length - p; j < length; ++j)
            across += sizes[j] != sizes[j + p - length];
    }
};

}  // namespace

IterationPattern
detect_iteration_pattern(const TraceView &view)
{
    IterationPattern p;

    // Malloc-size sequence of non-setup events, plus the running
    // signature of each iteration label's allocations. A tile's
    // allocations are its source's, all under the tile's label.
    std::vector<std::size_t> sizes;
    std::map<std::uint32_t, std::uint64_t> signature;
    // Labels come in runs: look each run's entry up once.
    std::uint64_t *label_hash = nullptr;
    std::uint32_t label = 0;
    const auto add = [&](std::uint32_t iteration, std::size_t size) {
        sizes.push_back(size);
        if (label_hash == nullptr || iteration != label) {
            label_hash =
                &signature.try_emplace(iteration, kEmptyHash).first->second;
            label = iteration;
        }
        *label_hash = hash_size(*label_hash, size);
    };
    std::vector<std::vector<std::size_t>> source_sizes(
        view.tile_sources().size());
    // The sequence as pieces: a tile's copy of its source's sizes, or
    // sizes collected from walked events.
    std::vector<Piece> pieces;
    view.for_each_run(
        [&](std::size_t from, std::size_t to, std::size_t source) {
            const std::size_t begin = sizes.size();
            for (std::size_t i = from; i < to; ++i) {
                if (view.kind(i) != trace::EventKind::kMalloc)
                    continue;
                if (source != TraceView::kNoSource)
                    source_sizes[source].push_back(view.event_size(i));
                if (view.iteration(i) != trace::kSetupIteration)
                    add(view.iteration(i), view.event_size(i));
            }
            if (sizes.size() == begin)
                return;
            if (!pieces.empty() && pieces.back().source == kWalked)
                pieces.back().length = sizes.size() - pieces.back().begin;
            else
                pieces.push_back({begin, sizes.size() - begin, kWalked});
        },
        [&](const ViewTile &tile) {
            const std::vector<std::size_t> &own = source_sizes[tile.source];
            if (tile.shift.iteration == trace::kSetupIteration ||
                own.empty())
                return;
            pieces.push_back({sizes.size(), own.size(), tile.source});
            for (std::size_t size : own)
                add(tile.shift.iteration, size);
        });

    // Label-free periodicity: smallest period with >= 95% agreement.
    // A candidate is dropped as soon as its mismatches exceed what
    // 95% agreement allows, so rejected periods cost a prefix scan.
    // Inside a tile, and from a tile into the next copy of its
    // source, the comparisons are its source's: they are counted once
    // per source and period (SourceMismatches) and added per tile.
    const std::size_t n = sizes.size();
    std::vector<SourceMismatches> counted(source_sizes.size());
    for (std::size_t period = 1; period * 2 <= n; ++period) {
        const std::size_t comparisons = n - period;
        const std::size_t allowed = comparisons - min_matches(comparisons);
        std::size_t mismatches = 0;
        for (std::size_t k = 0; k < pieces.size() && mismatches <= allowed;
             ++k) {
            const Piece &piece = pieces[k];
            const std::size_t end =
                std::min(piece.begin + piece.length, comparisons);
            std::size_t i = piece.begin;
            if (piece.source != kWalked && period <= piece.length) {
                SourceMismatches &c = counted[piece.source];
                c.count(source_sizes[piece.source], period);
                mismatches += c.inner;
                i += piece.length - period;
                if (k + 1 < pieces.size() &&
                    pieces[k + 1].source == piece.source) {
                    mismatches += c.across;
                    i = piece.begin + piece.length;
                }
            }
            for (; i < end; ++i)
                if (sizes[i] != sizes[i + period] && ++mismatches > allowed)
                    break;
        }
        if (mismatches <= allowed) {
            p.period_allocs = period;
            p.period_confidence =
                agreement(comparisons - mismatches, comparisons);
            break;
        }
    }

    // Labeled signature stability.
    p.iterations = signature.size();
    std::map<std::uint64_t, std::size_t> votes;
    for (const auto &[iter, sig] : signature) {
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
