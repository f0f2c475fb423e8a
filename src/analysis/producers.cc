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
    const std::vector<TileSource> &sources = view.tile_sources();
    // Pass 1 — measured op durations. The engine records an op's
    // reads at kernel launch and its writes at completion, so the
    // spread of one (iteration, op_index) instance's event times is
    // the kernel's simulated duration.
    struct Span {
        TimeNs first = 0;
        TimeNs last = 0;
    };
    FlatTable<std::uint64_t, Span> span;
    const auto widen = [&](std::uint64_t key, TimeNs first, TimeNs last) {
        const auto entry = span.try_emplace(key);
        Span &s = entry.first;
        if (entry.second) {
            s = {first, last};
        } else {
            s.first = std::min(s.first, first);
            s.last = std::max(s.last, last);
        }
    };
    // Per tile source, the spans of its own op instances by
    // op_index: a tile's instances are those, moved and relabelled.
    struct OpSpan {
        std::int32_t op_index = 0;
        Span span;
    };
    std::vector<std::vector<OpSpan>> source_spans(sources.size());
    view.for_each_run(
        [&](std::size_t from, std::size_t to, std::size_t source) {
            FlatTable<std::uint64_t, Span> own;
            for (std::size_t i = from; i < to; ++i) {
                const std::int32_t op_index = view.op_index(i);
                if (op_index < 0)
                    continue;
                const TimeNs time = view.time(i);
                widen(instance_key(view.iteration(i), op_index), time, time);
                if (source == TraceView::kNoSource)
                    continue;
                const auto entry =
                    own.try_emplace(static_cast<std::uint32_t>(op_index));
                if (entry.second) {
                    source_spans[source].push_back({op_index, {}});
                    entry.first = {time, time};
                }
                entry.first.last = time;
            }
            if (source == TraceView::kNoSource)
                return;
            for (OpSpan &s : source_spans[source])
                s.span = *own.find(static_cast<std::uint32_t>(s.op_index));
        },
        [&](const ViewTile &tile) {
            for (const OpSpan &s : source_spans[tile.source])
                widen(instance_key(tile.shift.iteration, s.op_index),
                      s.span.first + tile.shift.time,
                      s.span.last + tile.shift.time);
        });

    // Pass 2 — each block's first qualifying write. Only
    // intermediate-category blocks materialized by a forward op can
    // be re-derived by a re-run: parameters and host inputs have no
    // in-iteration producer to replay.
    ProducerIndex producers(view.slot_count());
    // Per op name: -1 not yet classified, else is_forward_op.
    std::vector<std::int8_t> forward(view.op_count(), -1);
    // Whether write @p i of an op is a forward op's intermediate.
    const auto qualifies = [&](std::size_t i) {
        if (view.category(i) != Category::kIntermediate)
            return false;
        const trace::OpId op = view.op_id(i);
        if (forward[op] < 0)
            forward[op] = is_forward_op(view.op_name(op)) ? 1 : 0;
        return forward[op] == 1;
    };
    // Qualifying write @p i, in iteration @p iteration, prices the
    // producer of slot @p slot unless an earlier write did.
    const auto price = [&](std::size_t slot, std::size_t i,
                           std::uint32_t iteration) {
        Producer &p = producers[slot];
        if (p.forward_ns != 0)
            return;
        const Span *s = span.find(instance_key(iteration, view.op_index(i)));
        const TimeNs cost = s ? s->last - s->first : 0;
        if (cost == 0)
            return;  // no measurable forward time: not priceable
        p = {view.op_id(i), cost};
    };
    // Per tile source, its qualifying writes by event index.
    std::vector<std::vector<std::size_t>> source_writes(sources.size());
    view.for_each_run(
        [&](std::size_t from, std::size_t to, std::size_t source) {
            for (std::size_t i = from; i < to; ++i) {
                if (view.kind(i) != trace::EventKind::kWrite ||
                    view.op_index(i) < 0)
                    continue;
                if (source == TraceView::kNoSource &&
                    producers[view.slot(i)].forward_ns != 0)
                    continue;
                if (!qualifies(i))
                    continue;
                if (source != TraceView::kNoSource)
                    source_writes[source].push_back(i);
                price(view.slot(i), i, view.iteration(i));
            }
        },
        [&](const ViewTile &tile) {
            for (std::size_t i : source_writes[tile.source])
                price(view.tile_slot(tile, static_cast<std::uint32_t>(
                                               view.slot(i))),
                      i, tile.shift.iteration);
        });
    return producers;
}

}  // namespace analysis
}  // namespace pinpoint
