/** @file Unit tests for VirtualClock. */
#include <gtest/gtest.h>

#include "core/check.h"
#include "sim/clock.h"

namespace pinpoint {
namespace sim {
namespace {

TEST(VirtualClock, StartsAtGivenTime)
{
    EXPECT_EQ(VirtualClock().now(), 0u);
    EXPECT_EQ(VirtualClock(42).now(), 42u);
}

TEST(VirtualClock, AdvanceAccumulates)
{
    VirtualClock c;
    c.advance(10);
    c.advance(5);
    EXPECT_EQ(c.now(), 15u);
}

TEST(VirtualClock, AdvanceToMonotonic)
{
    VirtualClock c(100);
    c.advance_to(100);  // no-op is fine
    c.advance_to(250);
    EXPECT_EQ(c.now(), 250u);
    EXPECT_THROW(c.advance_to(249), Error);
}

}  // namespace
}  // namespace sim
}  // namespace pinpoint
