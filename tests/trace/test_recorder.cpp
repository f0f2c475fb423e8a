/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/types.h"
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

TEST(TraceRecorder, EventsAreAReadOnlyRangeOfValues)
{
    TraceRecorder r;
    r.record(event_at(10, EventKind::kMalloc, 7));
    r.record(event_at(20, EventKind::kWrite, 7));
    r.record(event_at(30, EventKind::kFree, 7));
    const EventRange events = r.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, EventKind::kMalloc);
    EXPECT_EQ(events.back().time, 30u);
    std::vector<TimeNs> times;
    for (const MemoryEvent &e : events) {
        EXPECT_EQ(e.block, 7u);
        EXPECT_EQ(e.size, 512u);
        times.push_back(e.time);
    }
    EXPECT_EQ(times, (std::vector<TimeNs>{10, 20, 30}));
    EXPECT_TRUE(TraceRecorder().events().empty());
}

TEST(TraceRecorder, CapacityIsTheSmallestColumnCapacity)
{
    TraceRecorder r;
    EXPECT_EQ(r.capacity(), 0u);
    r.reserve(5);
    EXPECT_GE(r.capacity(), 5u);
    for (TimeNs t = 0; t < 5; ++t)
        r.record(event_at(t));
    EXPECT_EQ(r.capacity(), r.size()) << "the reserve held";
}

TEST(TraceRecorder, CopyThatRecordsLeavesTheOriginalUnchanged)
{
    TraceRecorder a;
    a.record(event_at(10));
    TraceRecorder b = a;
    EXPECT_EQ(&a.columns(), &b.columns()) << "a copy shares the store";
    b.record(event_at(20));
    EXPECT_NE(&a.columns(), &b.columns());
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(b.size(), 2u);
    a.record(event_at(15));
    EXPECT_EQ(a.events().back().time, 15u);
    EXPECT_EQ(b.events().back().time, 20u);
}

TEST(TraceRecorder, SharedColumnsNeverChange)
{
    TraceRecorder r;
    r.record(event_at(10));
    const std::shared_ptr<const EventColumns> shared = r.share();
    EXPECT_EQ(shared.get(), &r.columns()) << "sharing copies nothing";

    r.record(event_at(20));
    EXPECT_NE(&r.columns(), shared.get()) << "the write copied first";
    EXPECT_EQ(shared->time, (std::vector<TimeNs>{10}));
    const EventColumns *recorded = &r.columns();
    r.record(event_at(30));
    EXPECT_EQ(&r.columns(), recorded)
        << "an unshared store is written in place";

    const std::shared_ptr<const EventColumns> again = r.share();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(again->time, (std::vector<TimeNs>{10, 20, 30}));
    r.reserve(8);
    EXPECT_EQ(shared->time.size(), 1u);
    EXPECT_EQ(again->time.size(), 3u);
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
