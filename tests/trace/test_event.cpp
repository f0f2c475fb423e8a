/** @file Unit tests for MemoryEvent kinds. */
#include <gtest/gtest.h>

#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {
namespace {

TEST(EventKind, NamesMatchPaperTerminology)
{
    // Sec. II: "memory behaviors (including malloc, free, read, write)"
    EXPECT_STREQ(event_kind_name(EventKind::kMalloc), "malloc");
    EXPECT_STREQ(event_kind_name(EventKind::kFree), "free");
    EXPECT_STREQ(event_kind_name(EventKind::kRead), "read");
    EXPECT_STREQ(event_kind_name(EventKind::kWrite), "write");
}

TEST(MemoryEvent, DefaultsAreInert)
{
    MemoryEvent e;
    EXPECT_EQ(e.block, kInvalidBlock);
    EXPECT_EQ(e.tensor, kInvalidTensor);
    EXPECT_EQ(e.op_index, -1);
    EXPECT_EQ(e.op, 0u);
    // Id 0 is the empty name in every recorder.
    TraceRecorder r;
    EXPECT_EQ(r.op_name(e.op), "");
    EXPECT_NO_THROW(r.record(e));
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
