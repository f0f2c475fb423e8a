#include "core/tensor_meta.h"

#include "core/check.h"
#include "core/dtype.h"

namespace pinpoint {

std::size_t
TensorMeta::bytes() const
{
    std::size_t n = 0;
    if (__builtin_mul_overflow(static_cast<std::size_t>(shape.numel()),
                               dtype_size(dtype), &n))
        throw Error("byte count of shape " + shape.to_string() +
                    " overflows a 64-bit size");
    return n;
}

}  // namespace pinpoint
