/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/types.h"
#include "support/random_trace.h"
#include "trace/csv.h"
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

/** @return the values of @p column, for comparing with a vector. */
template <typename T>
std::vector<T>
values(const Column<T> &column)
{
    return std::vector<T>(column.begin(), column.end());
}

/** Expects @p events to hold exactly @p oracle, field by field. */
template <typename Events>
void
expect_events(const Events &events, const std::vector<MemoryEvent> &oracle)
{
    ASSERT_EQ(events.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        SCOPED_TRACE(i);
        const MemoryEvent e = events[i];
        const MemoryEvent &o = oracle[i];
        ASSERT_EQ(e.time, o.time);
        ASSERT_EQ(e.kind, o.kind);
        ASSERT_EQ(e.block, o.block);
        ASSERT_EQ(e.ptr, o.ptr);
        ASSERT_EQ(e.size, o.size);
        ASSERT_EQ(e.tensor, o.tensor);
        ASSERT_EQ(e.category, o.category);
        ASSERT_EQ(e.iteration, o.iteration);
        ASSERT_EQ(e.op_index, o.op_index);
        ASSERT_EQ(e.op, o.op);
    }
}

/** @return event @p i of a trace whose every field differs by @p i. */
MemoryEvent
distinct_event(std::size_t i)
{
    MemoryEvent e;
    e.time = 10 * i;
    e.kind = static_cast<EventKind>(i % kNumEventKinds);
    e.block = i + 1;
    e.ptr = 0x1000 + 256 * i;
    e.size = 512 + i;
    e.tensor = i % 7 == 0 ? kInvalidTensor : 3 * i;
    e.category = static_cast<Category>(i % kNumCategories);
    e.iteration = static_cast<std::uint32_t>(i / 5);
    e.op_index = static_cast<std::int32_t>(i % 11) - 1;
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

TEST(TraceRecorder, ReserveHoldsExactlyItsEvents)
{
    TraceRecorder r;
    EXPECT_EQ(r.capacity(), 0u);
    r.reserve(5);
    EXPECT_GE(r.capacity(), 5u);
    for (TimeNs t = 0; t < 5; ++t)
        r.record(event_at(t));
    EXPECT_EQ(r.capacity(), r.size()) << "the reserve held";

    // One block for every column: a reserve of n holds n events of
    // each, past the first growth size and past a huge page.
    for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u, 50000u}) {
        SCOPED_TRACE(n);
        TraceRecorder big;
        big.reserve(n);
        std::vector<MemoryEvent> oracle;
        for (std::size_t i = 0; i < n; ++i) {
            oracle.push_back(distinct_event(i));
            big.record(oracle.back());
        }
        EXPECT_EQ(big.capacity(), big.size());
        expect_events(big.events(), oracle);
    }
}

TEST(TraceRecorder, RecordsAcrossTheFirstGrowthBoundaries)
{
    TraceRecorder r;
    std::vector<MemoryEvent> oracle;
    std::size_t growths = 0;
    std::size_t capacity = r.capacity();
    // Each growth moves every column but the first up within the
    // block, by more than a page past the first few thousand events.
    for (std::size_t i = 0; i < 20000; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
        ASSERT_EQ(r.size(), i + 1);
        ASSERT_GE(r.capacity(), r.size());
        if (r.capacity() != capacity) {
            // Every column moved to the new block intact.
            ++growths;
            capacity = r.capacity();
            expect_events(r.events(), oracle);
        }
    }
    EXPECT_GE(growths, 9u);
    expect_events(r.events(), oracle);

    // Sharing hands the spare room's pages back; the values stay,
    // and once the view is gone the recorder fills that room again.
    const EventColumns *store = &r.columns();
    {
        const std::shared_ptr<const EventColumns> frozen = r.share();
        expect_events(EventRange(*frozen), oracle);
    }
    for (std::size_t i = 20000; i < 30000; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
    }
    EXPECT_EQ(&r.columns(), store) << "no view holds it: no copy";
    expect_events(r.events(), oracle);
}

TEST(TraceRecorder, FrozenStoreKeepsItsLengthAndValues)
{
    TraceRecorder r;
    r.reserve(100);
    std::vector<MemoryEvent> oracle;
    for (std::size_t i = 0; i < 70; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
    }
    const std::shared_ptr<const EventColumns> frozen = r.share();
    const std::vector<MemoryEvent> at_freeze = oracle;
    // Past the reserve, so the recorder's copy grows too.
    for (std::size_t i = 70; i < 500; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
    }
    expect_events(EventRange(*frozen), at_freeze);
    EXPECT_EQ(frozen->time.size(), 70u);
    EXPECT_EQ(frozen->op_index.size(), 70u);
    expect_events(r.events(), oracle);
}

TEST(TraceRecorder, ClearThenRecordReusesTheBlock)
{
    TraceRecorder r;
    for (std::size_t i = 0; i < 300; ++i)
        r.record(distinct_event(i));
    const std::size_t capacity = r.capacity();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_TRUE(r.columns().category.empty());
    EXPECT_EQ(r.capacity(), capacity) << "clear keeps the block";
    std::vector<MemoryEvent> oracle;
    for (std::size_t i = 0; i < 10; ++i) {
        oracle.push_back(distinct_event(i + 1000));
        oracle.back().time = i;  // earlier than before the clear
        r.record(oracle.back());
    }
    expect_events(r.events(), oracle);
    EXPECT_EQ(r.capacity(), capacity);
}

TEST(TraceRecorder, SeededTracesMatchAVectorOracle)
{
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE(seed);
        // From below the first growth size to several doublings.
        const std::size_t steps = 1 + seed * seed * 3;
        std::vector<MemoryEvent> oracle = test_support::random_events(
            seed, steps, {256, 4096, 1u << 20}, 7);
        // random_events leaves the bookkeeping fields at their
        // defaults: fill them so that every column is exercised.
        TraceRecorder r;
        std::mt19937_64 rng(seed);
        const OpId ops[] = {0, r.intern("fc0.forward"),
                            r.intern("fc0.backward")};
        for (MemoryEvent &e : oracle) {
            e.ptr = rng();
            e.tensor = rng() % 4 == 0 ? kInvalidTensor : rng() % 1000;
            e.category = static_cast<Category>(rng() % kNumCategories);
            e.iteration = static_cast<std::uint32_t>(rng() % 3);
            e.op_index = static_cast<std::int32_t>(rng() % 50) - 1;
            e.op = ops[rng() % 3];
            r.record(e);
        }
        expect_events(r.events(), oracle);

        // read_csv records without a reserve, so it grows the block;
        // it numbers op names in their order of appearance.
        std::stringstream csv;
        write_csv(r, csv);
        const TraceRecorder back = read_csv(csv);
        std::vector<MemoryEvent> reread(back.events().begin(),
                                        back.events().end());
        ASSERT_EQ(reread.size(), oracle.size());
        for (std::size_t i = 0; i < reread.size(); ++i) {
            ASSERT_EQ(back.op_name(reread[i].op), r.op_name(oracle[i].op));
            reread[i].op = oracle[i].op;
        }
        expect_events(reread, oracle);
    }
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
    EXPECT_EQ(values(shared->time), (std::vector<TimeNs>{10}));
    const EventColumns *recorded = &r.columns();
    r.record(event_at(30));
    EXPECT_EQ(&r.columns(), recorded)
        << "an unshared store is written in place";

    const std::shared_ptr<const EventColumns> again = r.share();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(values(again->time), (std::vector<TimeNs>{10, 20, 30}));
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

/** @return @p e moved as TraceRecorder::repeat moves it. */
MemoryEvent
shifted(MemoryEvent e, const EventShift &shift)
{
    e.time += shift.time;
    if (e.block >= shift.first_block && e.block != kInvalidBlock)
        e.block += shift.block;
    e.iteration = shift.iteration;
    return e;
}

/** Expects @p tile to be {source, begin, count, shift}. */
void
expect_tile(const Tile &tile, std::size_t source, std::size_t begin,
            std::size_t count, const EventShift &shift)
{
    EXPECT_EQ(tile.source, source);
    EXPECT_EQ(tile.begin, begin);
    EXPECT_EQ(tile.count, count);
    EXPECT_EQ(tile.shift.time, shift.time);
    EXPECT_EQ(tile.shift.first_block, shift.first_block);
    EXPECT_EQ(tile.shift.block, shift.block);
    EXPECT_EQ(tile.shift.iteration, shift.iteration);
}

TEST(TraceRecorder, RepeatMovesTimesNewBlocksAndTheLabel)
{
    TraceRecorder r;
    std::vector<MemoryEvent> oracle;
    for (std::size_t i = 0; i < 40; ++i) {
        oracle.push_back(distinct_event(i));
        if (i == 7)
            oracle.back().block = kInvalidBlock;
        r.record(oracle.back());
    }
    const std::vector<MemoryEvent> events = oracle;

    EventShift shift;
    shift.time = 1000;
    shift.first_block = 20;  // blocks 11..19 stay, 20.. move
    shift.block = 500;
    shift.iteration = 9;
    std::vector<EventShift> shifts;
    for (int copies = 0; copies < 2; ++copies) {
        r.repeat(10, 40, shift);
        for (std::size_t i = 10; i < 40; ++i)
            oracle.push_back(shifted(events[i], shift));
        shifts.push_back(shift);
        shift.time += 400;
    }
    expect_events(r.events(), oracle);
    const std::vector<Tile> &tiles = r.columns().tiles();
    ASSERT_EQ(tiles.size(), 2u);
    expect_tile(tiles[0], 10, 40, 30, shifts[0]);
    expect_tile(tiles[1], 10, 70, 30, shifts[1]);
    // An empty range appends nothing and lists no tile.
    r.repeat(40, 40, shift);
    EXPECT_EQ(r.size(), oracle.size());
    EXPECT_EQ(r.columns().tiles().size(), 2u);
}

TEST(TraceRecorder, RepeatListsOnlyCopiesOfRecordedEvents)
{
    TraceRecorder r;
    std::vector<MemoryEvent> oracle;
    for (std::size_t i = 0; i < 10; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
    }
    const auto repeat = [&](std::size_t begin, std::size_t end,
                            TimeNs time) {
        EventShift shift;
        shift.time = time;
        const std::vector<MemoryEvent> source(oracle.begin() + begin,
                                              oracle.begin() + end);
        r.repeat(begin, end, shift);
        for (const MemoryEvent &e : source)
            oracle.push_back(shifted(e, shift));
        return shift;
    };
    const EventShift first = repeat(0, 10, 100);  // events 10..19
    // A source that overlaps a tile is copied but not listed.
    repeat(5, 15, 200);
    repeat(19, 20, 400);
    expect_events(r.events(), oracle);
    ASSERT_EQ(r.columns().tiles().size(), 1u);
    expect_tile(r.columns().tiles()[0], 0, 10, 10, first);
    // A source before the first tile is listed.
    const EventShift second = repeat(2, 9, 600);
    expect_events(r.events(), oracle);
    ASSERT_EQ(r.columns().tiles().size(), 2u);
    expect_tile(r.columns().tiles()[1], 2, 31, 7, second);

    // A copy keeps the tiles; clear() drops them.
    const TraceRecorder copy = r;
    EXPECT_EQ(copy.columns().tiles().size(), 2u);
    const std::shared_ptr<const EventColumns> shared = r.share();
    r.record(event_at(10000));
    EXPECT_EQ(r.columns().tiles().size(), 2u);
    r.clear();
    EXPECT_TRUE(r.columns().tiles().empty());
    EXPECT_EQ(shared->tiles().size(), 2u);
    EXPECT_EQ(copy.columns().tiles().size(), 2u);
}

TEST(TraceRecorder, EpochChangesOnClearAndStaysWithACopy)
{
    TraceRecorder r;
    TraceRecorder other;
    EXPECT_NE(r.epoch(), other.epoch());
    r.record(event_at(1));
    const std::uint64_t before = r.epoch();
    EXPECT_EQ(TraceRecorder(r).epoch(), before);
    r.record(event_at(2));
    EXPECT_EQ(r.epoch(), before) << "recording keeps the events";
    r.clear();
    EXPECT_NE(r.epoch(), before);
    EXPECT_NE(r.epoch(), other.epoch());
}

TEST(TraceRecorder, EpochChangesOnAssignmentAndLeavesAMovedFromRecorder)
{
    TraceRecorder r;
    r.record(event_at(1));
    const TraceRecorder older = r;
    r.record(event_at(2));
    std::uint64_t before = r.epoch();
    r = older;
    EXPECT_NE(r.epoch(), before) << "the events at r's indices changed";
    EXPECT_NE(r.epoch(), older.epoch());
    EXPECT_EQ(r.size(), 1u);

    before = r.epoch();
    TraceRecorder moved(std::move(r));
    EXPECT_EQ(moved.epoch(), before) << "a move keeps the events";
    EXPECT_NE(r.epoch(), before) << "the moved-from recorder has none";

    before = moved.epoch();
    TraceRecorder target;
    const std::uint64_t target_before = target.epoch();
    target = std::move(moved);
    EXPECT_NE(target.epoch(), before);
    EXPECT_NE(target.epoch(), target_before);
    EXPECT_NE(moved.epoch(), before);
    EXPECT_EQ(target.size(), 1u);
}

TEST(TraceRecorder, RepeatGrowsLikeRecordAndKeepsAnExactReserve)
{
    TraceRecorder grown;
    TraceRecorder recorded;
    for (std::size_t i = 0; i < 100; ++i) {
        grown.record(distinct_event(i));
        recorded.record(distinct_event(i));
    }
    for (int copies = 1; copies < 30; ++copies) {
        EventShift shift;
        shift.time = 1000 * static_cast<TimeNs>(copies);
        grown.repeat(0, 100, shift);
        for (std::size_t i = 0; i < 100; ++i)
            recorded.record(shifted(distinct_event(i), shift));
        ASSERT_EQ(grown.capacity(), recorded.capacity());
    }
    expect_events(grown.events(), std::vector<MemoryEvent>(
                                      recorded.events().begin(),
                                      recorded.events().end()));

    TraceRecorder exact;
    exact.reserve(3000);
    for (std::size_t i = 0; i < 100; ++i)
        exact.record(distinct_event(i));
    for (int copies = 1; copies < 30; ++copies) {
        EventShift shift;
        shift.time = 1000 * static_cast<TimeNs>(copies);
        exact.repeat(0, 100, shift);
    }
    EXPECT_EQ(exact.size(), 3000u);
    EXPECT_EQ(exact.capacity(), exact.size());
}

TEST(TraceRecorder, RepeatFromItsOwnStoreSurvivesGrowth)
{
    TraceRecorder r;
    std::vector<MemoryEvent> oracle;
    for (std::size_t i = 0; i < 64; ++i) {
        oracle.push_back(distinct_event(i));
        r.record(oracle.back());
    }
    ASSERT_EQ(r.capacity(), r.size());
    EventShift shift;
    shift.time = 10000;
    r.repeat(0, 64, shift);
    for (std::size_t i = 0; i < 64; ++i)
        oracle.push_back(shifted(distinct_event(i), shift));
    expect_events(r.events(), oracle);
}

TEST(TraceRecorder, RepeatChecksTheRangeAndTimeOrder)
{
    TraceRecorder r;
    r.record(event_at(10));
    r.record(event_at(20));
    EventShift shift;
    shift.time = 5;
    EXPECT_THROW(r.repeat(0, 2, shift), Error) << "15 is before 20";
    EXPECT_EQ(r.size(), 2u);
    shift.time = 10;
    r.repeat(0, 2, shift);
    EXPECT_EQ(r.size(), 4u);

    EXPECT_THROW(r.repeat(3, 5, shift), Error) << "past the last event";
    EXPECT_THROW(r.repeat(3, 2, shift), Error) << "an inverted range";
    EXPECT_EQ(r.size(), 4u);
    const TraceRecorder empty;
    EXPECT_THROW(TraceRecorder(empty).repeat(0, 1, shift), Error);
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
