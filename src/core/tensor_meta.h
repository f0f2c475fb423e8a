/**
 * @file
 * Logical tensor metadata: everything the memory characterization
 * needs to know about a tensor without materializing its values.
 */
#pragma once

#include <cstddef>
#include <string>

#include "core/dtype.h"
#include "core/shape.h"
#include "core/types.h"

namespace pinpoint {

/**
 * Descriptor of one logical tensor in a training plan. Tensors are
 * value-free in this library: memory behavior is fully determined by
 * shape, dtype, category, and lifetime, which is exactly the
 * information the paper's instrumentation records.
 */
struct TensorMeta {
    /** Plan-unique identifier. */
    TensorId id = kInvalidTensor;
    /** Debug name, e.g. "fc1.weight" or "conv3.out". */
    std::string name;
    /** Logical shape. */
    Shape shape;
    /** Element type. */
    DType dtype = DType::kF32;
    /** Storage-content category (input / parameter / intermediate). */
    Category category = Category::kIntermediate;

    /**
     * @return payload size in bytes (numel * element size).
     * @throws Error when the size does not fit in a size_t.
     */
    std::size_t bytes() const;
};

}  // namespace pinpoint

