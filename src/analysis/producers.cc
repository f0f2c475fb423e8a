#include "analysis/producers.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/trace_view.h"
#include "core/flat_table.h"
#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace analysis {
namespace {

/** Op-instance key: one op execution in one iteration. */
std::uint64_t
instance_key(std::uint32_t iteration, std::int32_t op_index)
{
    return (static_cast<std::uint64_t>(iteration) << 32) |
           static_cast<std::uint32_t>(op_index);
}

}  // namespace

bool
is_forward_op(const std::string &op)
{
    // Forward-phase ops are everything the plan builder emits during
    // the forward pass ("*.forward", "*.mat_mul", "*.add_bias",
    // "loss.item"); recognize them by excluding the other phases'
    // naming patterns rather than enumerating layer kinds.
    if (op.empty())
        return false;
    if (op.find(".backward") != std::string::npos)
        return false;
    if (op.find(".grad_accum") != std::string::npos)
        return false;
    if (op.compare(0, 4, "sgd.") == 0)
        return false;
    if (op == "data.h2d")
        return false;
    return true;
}

ProducerIndex
index_producers(const TraceView &view)
{
    // Pass 1 — measured op durations. The engine records an op's
    // reads at kernel launch and its writes at completion, so the
    // spread of one (iteration, op_index) instance's event times is
    // the kernel's simulated duration.
    struct Span {
        TimeNs first = 0;
        TimeNs last = 0;
    };
    FlatTable<std::uint64_t, Span> span;
    const std::size_t n = view.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (view.op_index(i) < 0)
            continue;
        const auto entry = span.try_emplace(
            instance_key(view.iteration(i), view.op_index(i)));
        Span &s = entry.first;
        const TimeNs time = view.time(i);
        if (entry.second) {
            s = {time, time};
        } else {
            s.first = std::min(s.first, time);
            s.last = std::max(s.last, time);
        }
    }

    // Pass 2 — each block's first qualifying write. Only
    // intermediate-category blocks materialized by a forward op can
    // be re-derived by a re-run: parameters and host inputs have no
    // in-iteration producer to replay.
    ProducerIndex producers(view.slot_count());
    // Per op name: -1 not yet classified, else is_forward_op.
    std::vector<std::int8_t> forward(view.op_count(), -1);
    for (std::size_t i = 0; i < n; ++i) {
        if (view.kind(i) != trace::EventKind::kWrite ||
            view.op_index(i) < 0)
            continue;
        Producer &p = producers[view.slot(i)];
        if (p.forward_ns != 0)
            continue;
        if (view.category(i) != Category::kIntermediate)
            continue;
        const trace::OpId op = view.op_id(i);
        if (forward[op] < 0)
            forward[op] = is_forward_op(view.op_name(op)) ? 1 : 0;
        if (forward[op] == 0)
            continue;
        const Span *s =
            span.find(instance_key(view.iteration(i), view.op_index(i)));
        const TimeNs cost = s ? s->last - s->first : 0;
        if (cost == 0)
            continue;  // no measurable forward time: not priceable
        p = {op, cost};
    }
    return producers;
}

}  // namespace analysis
}  // namespace pinpoint
