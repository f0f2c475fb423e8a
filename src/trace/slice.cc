#include "trace/slice.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/check.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {

TraceRecorder
slice_iterations(const TraceRecorder &recorder, std::uint32_t first,
                 std::uint32_t last, const SliceOptions &options)
{
    PP_CHECK(first <= last,
             "invalid iteration window [" << first << ", " << last
                                          << "]");
    // The slice keeps the source's op ids: interning its names in id
    // order reproduces them.
    TraceRecorder out;
    for (const std::string &name : recorder.op_names())
        out.intern(name);
    const OpId close_op = out.intern("slice.close");
    // Blocks born inside the window (or during setup, if kept).
    std::unordered_set<BlockId> tracked;
    // Last event seen for each tracked live block, to synthesize
    // closing frees.
    std::unordered_map<BlockId, MemoryEvent> live;
    TimeNs end_time = 0;

    for (const auto &e : recorder.events()) {
        const bool is_setup = e.iteration == kSetupIteration;
        const bool in_window =
            (is_setup && options.keep_setup) ||
            (!is_setup && e.iteration >= first && e.iteration <= last);
        if (!in_window)
            continue;  // pre-window blocks are untracked; blocks
                       // still live past the window get synthetic
                       // closes below regardless of later frees.
        end_time = e.time;
        switch (e.kind) {
          case EventKind::kMalloc:
            tracked.insert(e.block);
            live.emplace(e.block, e);
            break;
          case EventKind::kFree:
            if (!tracked.count(e.block))
                continue;  // born before the window
            tracked.erase(e.block);
            live.erase(e.block);
            break;
          case EventKind::kRead:
          case EventKind::kWrite:
            if (!tracked.count(e.block))
                continue;
            break;
        }
        out.record(e);
    }

    if (options.close_open_blocks) {
        // Deterministic order: ascending block id.
        std::vector<BlockId> open;
        open.reserve(live.size());
        for (const auto &[id, e] : live)
            open.push_back(id);
        std::sort(open.begin(), open.end());
        for (BlockId id : open) {
            MemoryEvent f = live.at(id);
            f.kind = EventKind::kFree;
            f.time = end_time;
            f.op = close_op;
            out.record(f);
        }
    }
    return out;
}

}  // namespace trace
}  // namespace pinpoint
