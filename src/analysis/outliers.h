/**
 * @file
 * Outlier sifting: finds the memory behaviors with both a large ATI
 * and a large block size — the paper's Fig. 4 red-marked class, "the
 * major contributors in terms of reducing the memory pressure".
 */
#pragma once

#include <vector>

#include "analysis/ati.h"
#include "analysis/swap_model.h"
#include "core/types.h"

namespace pinpoint {
namespace analysis {

/** Thresholds defining an outlier behavior. */
struct OutlierCriteria {
    /** Minimum ATI; the paper highlights > 0.8 s. */
    TimeNs min_interval = 800 * kNsPerMs;
    /** Minimum block size; the paper highlights > 600 MB. */
    std::size_t min_size = 600ull * 1024 * 1024;
};

/** @return the samples exceeding both thresholds, in trace order. */
std::vector<AtiSample> sift_outliers(const std::vector<AtiSample> &atis,
                                     const OutlierCriteria &criteria);

class TraceView;

/**
 * @return sift_outliers(compute_atis(@p view), @p criteria), from
 * one walk over @p view that builds only the samples it returns.
 */
std::vector<AtiSample> sift_outliers(const TraceView &view,
                                     const OutlierCriteria &criteria);

/** An outlier annotated with its Eq. 1 swap headroom. */
struct SwapCandidate {
    AtiSample sample;
    /** Largest hideable swap size for the sample's ATI (Eq. 1). */
    double max_hideable_bytes = 0.0;
    /** True when the block itself fits in that bound. */
    bool swappable = false;
};

/**
 * Annotates @p outliers with Eq. 1 headroom under @p link,
 * descending by block size.
 */
std::vector<SwapCandidate>
rank_swap_candidates(const std::vector<AtiSample> &outliers,
                     const LinkBandwidth &link);

}  // namespace analysis
}  // namespace pinpoint

