#include "runtime/plan.h"

#include "core/check.h"
#include "core/tensor_meta.h"
#include "core/types.h"

namespace pinpoint {
namespace runtime {

const TensorMeta &
Plan::tensor(TensorId id) const
{
    PP_CHECK(id < tensors.size(), "tensor id " << id << " out of range");
    return tensors[static_cast<std::size_t>(id)];
}

std::size_t
Plan::parameter_bytes() const
{
    std::size_t n = 0;
    for (const auto &t : tensors)
        if (t.category == Category::kParameter)
            n += t.bytes();
    return n;
}

}  // namespace runtime
}  // namespace pinpoint
