#include "core/shape.h"

#include <algorithm>
#include <sstream>

#include "core/check.h"

namespace pinpoint {

Shape::Shape(std::initializer_list<std::int64_t> dims)
    : dims_(dims)
{
    for (auto d : dims_)
        PP_CHECK(d >= 0, "negative dimension " << d << " in shape");
}

Shape::Shape(std::vector<std::int64_t> dims)
    : dims_(std::move(dims))
{
    for (auto d : dims_)
        PP_CHECK(d >= 0, "negative dimension " << d << " in shape");
}

std::int64_t
Shape::dim(int i) const
{
    int r = rank();
    if (i < 0)
        i += r;
    PP_CHECK(i >= 0 && i < r,
             "dimension index " << i << " out of range for rank " << r);
    return dims_[static_cast<std::size_t>(i)];
}

std::int64_t
Shape::numel() const
{
    // A zero extent empties the shape however large the others are.
    if (std::find(dims_.begin(), dims_.end(), 0) != dims_.end())
        return 0;
    std::int64_t n = 1;
    for (auto d : dims_)
        if (__builtin_mul_overflow(n, d, &n))
            throw Error("element count of shape " + to_string() +
                        " overflows a 64-bit integer");
    return n;
}

Shape
Shape::appended(std::int64_t extra) const
{
    PP_CHECK(extra >= 0, "negative appended dimension " << extra);
    std::vector<std::int64_t> dims = dims_;
    dims.push_back(extra);
    return Shape(std::move(dims));
}

Shape
Shape::flattened_2d() const
{
    PP_CHECK(rank() >= 1, "cannot flatten a scalar shape");
    std::int64_t lead = dims_[0];
    std::int64_t rest = 1;
    for (std::size_t i = 1; i < dims_.size(); ++i)
        rest *= dims_[i];
    return Shape{lead, rest};
}

std::string
Shape::to_string() const
{
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            os << ", ";
        os << dims_[i];
    }
    os << ")";
    return os.str();
}

}  // namespace pinpoint
