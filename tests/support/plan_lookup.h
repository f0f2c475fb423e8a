/**
 * @file
 * Test-only plan lookups. Library code addresses plan tensors by
 * TensorId; tests that name a tensor ("fc0.weight", "input.x@mb0")
 * scan the plan's tensor list here instead.
 */
#pragma once

#include <string>

#include "core/check.h"
#include "core/types.h"
#include "runtime/plan.h"

namespace pinpoint {
namespace test_support {

/** @return true when @p plan has a tensor named @p name. */
inline bool
has_tensor(const runtime::Plan &plan, const std::string &name)
{
    for (const TensorMeta &t : plan.tensors)
        if (t.name == name)
            return true;
    return false;
}

/** @return the id of @p plan's tensor @p name. @throws Error. */
inline TensorId
tensor_named(const runtime::Plan &plan, const std::string &name)
{
    for (const TensorMeta &t : plan.tensors)
        if (t.name == name)
            return t.id;
    throw Error("no tensor named '" + name + "'");
}

}  // namespace test_support
}  // namespace pinpoint
