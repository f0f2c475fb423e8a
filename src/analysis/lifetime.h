/**
 * @file
 * Block lifetime statistics: distributions of the Gantt rectangle
 * widths of Fig. 2, split by storage category. Short-lived blocks
 * (workspaces, transient grads) vs iteration-lived (activations) vs
 * run-lived (parameters, staged data) is exactly the structure the
 * paper's Gantt chart shows qualitatively.
 */
#pragma once

#include <array>
#include <cstddef>

#include "analysis/timeline.h"
#include "core/types.h"

namespace pinpoint {
namespace analysis {

/** Lifetime statistics of one block category. */
struct CategoryLifetime {
    /** Number of block lifetimes observed (freed blocks only). */
    std::size_t blocks = 0;
    /** Blocks never freed inside the trace (persistent). */
    std::size_t unfreed = 0;
    /** Median lifetime of the freed blocks in microseconds (0 when
     * none was freed). */
    double median_lifetime_us = 0.0;
};

/** Per-category lifetime statistics of a trace. */
struct LifetimeReport {
    std::array<CategoryLifetime, kNumCategories> by_category;

    /** @return statistics of category @p c. */
    const CategoryLifetime &
    of(Category c) const
    {
        return by_category[static_cast<int>(c)];
    }
};

/** Computes lifetime statistics from @p timeline. */
LifetimeReport lifetime_report(const Timeline &timeline);

}  // namespace analysis
}  // namespace pinpoint

