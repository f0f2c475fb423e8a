/**
 * @file
 * Tensor shape: an ordered list of non-negative dimension extents.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pinpoint {

/**
 * Immutable-ish tensor shape. Dimensions are signed 64-bit to keep
 * arithmetic on products and strides overflow-visible, but every
 * extent must be >= 0 (0 denotes an empty tensor, as in PyTorch).
 */
class Shape
{
  public:
    /** Constructs a scalar (rank-0) shape. */
    Shape() = default;

    /** Constructs from an explicit dimension list, e.g. {n, c, h, w}. */
    Shape(std::initializer_list<std::int64_t> dims);

    /** Constructs from a vector of dimensions. */
    explicit Shape(std::vector<std::int64_t> dims);

    /** @return number of dimensions. */
    int rank() const { return static_cast<int>(dims_.size()); }

    /**
     * @return extent of dimension @p i; negative @p i counts from the
     * back, as in Python (dim(-1) is the innermost dimension).
     */
    std::int64_t dim(int i) const;

    /**
     * @return total element count (1 for scalars, 0 if any dim is 0).
     * @throws Error when the count does not fit in an int64.
     */
    std::int64_t numel() const;

    /** @return the dimensions in order. */
    const std::vector<std::int64_t> &dims() const { return dims_; }

    /** @return a copy with @p extra appended as the innermost dim. */
    Shape appended(std::int64_t extra) const;

    /**
     * @return a rank-2 shape {dim(0), numel()/dim(0)}; used by
     * flatten layers. Requires rank >= 1.
     */
    Shape flattened_2d() const;

    /** @return "(2, 12288)"-style rendering used in logs and tests. */
    std::string to_string() const;

    bool operator==(const Shape &other) const
    {
        return dims_ == other.dims_;
    }

    bool operator!=(const Shape &other) const { return !(*this == other); }

  private:
    std::vector<std::int64_t> dims_;
};

}  // namespace pinpoint

