/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/check.h"
#include "trace/event.h"
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

TEST(TraceRecorder, InternedIdsAreDenseAndStable)
{
    TraceRecorder r;
    ASSERT_EQ(r.op_names().size(), 1u);
    EXPECT_EQ(r.op_name(0), "");
    EXPECT_EQ(r.intern(""), 0u);
    const OpId fwd = r.intern("fc0.forward");
    const OpId bwd = r.intern("fc0.backward");
    EXPECT_EQ(fwd, 1u);
    EXPECT_EQ(bwd, 2u);
    EXPECT_EQ(r.intern("fc0.forward"), fwd);
    EXPECT_EQ(r.op_name(bwd), "fc0.backward");
    EXPECT_EQ(r.op_names(),
              (std::vector<std::string>{"", "fc0.forward",
                                        "fc0.backward"}));
    EXPECT_THROW(r.op_name(3), Error);
}

TEST(TraceRecorder, RejectsOpIdsItDidNotIntern)
{
    TraceRecorder r;
    MemoryEvent e = event_at(1);
    e.op = 1;
    EXPECT_THROW(r.record(e), Error);
    e.op = r.intern("alloc.x");
    r.record(e);
    EXPECT_EQ(r.op_name(r.events()[0].op), "alloc.x");
}

TEST(TraceRecorder, ClearKeepsInternedNames)
{
    TraceRecorder r;
    MemoryEvent e = event_at(1);
    e.op = r.intern("alloc.x");
    r.record(e);
    r.clear();
    r.record(e);  // an id handed out before clear stays valid
    EXPECT_EQ(r.op_name(r.events()[0].op), "alloc.x");
}

TEST(TraceRecorder, CopiesOwnTheirNameTables)
{
    TraceRecorder a;
    const OpId x = a.intern("x");
    TraceRecorder b = a;
    const OpId y = b.intern("y");
    EXPECT_EQ(b.op_name(x), "x");
    EXPECT_EQ(a.op_names().size(), 2u);
    EXPECT_THROW(a.op_name(y), Error);
    EXPECT_EQ(a.intern("y"), y);  // same first-intern order
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
