/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include "core/check.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {
namespace {

MemoryEvent
event_at(TimeNs t, EventKind kind = EventKind::kRead,
         BlockId block = 1)
{
    MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = 512;
    return e;
}

TEST(TraceRecorder, RecordsInOrder)
{
    TraceRecorder r;
    r.record(event_at(10));
    r.record(event_at(10));  // ties are fine
    r.record(event_at(20));
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.events()[2].time, 20u);
}

TEST(TraceRecorder, RejectsTimeTravel)
{
    TraceRecorder r;
    r.record(event_at(10));
    EXPECT_THROW(r.record(event_at(9)), Error);
}

TEST(TraceRecorder, ClearEmptiesAndAllowsReuse)
{
    TraceRecorder r;
    r.record(event_at(100));
    r.clear();
    EXPECT_TRUE(r.empty());
    r.record(event_at(1));  // earlier time is fine after clear
    EXPECT_EQ(r.size(), 1u);
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
