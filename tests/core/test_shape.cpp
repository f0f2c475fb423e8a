/** @file Unit tests for the Shape class. */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/shape.h"

namespace pinpoint {
namespace {

TEST(Shape, DefaultIsScalar)
{
    Shape s;
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, InitializerListConstruction)
{
    Shape s{2, 12288};
    EXPECT_EQ(s.rank(), 2);
    EXPECT_EQ(s.dim(0), 2);
    EXPECT_EQ(s.dim(1), 12288);
    EXPECT_EQ(s.numel(), 2 * 12288);
}

TEST(Shape, NegativeIndexCountsFromBack)
{
    Shape s{4, 3, 224, 224};
    EXPECT_EQ(s.dim(-1), 224);
    EXPECT_EQ(s.dim(-4), 4);
}

TEST(Shape, OutOfRangeIndexThrows)
{
    Shape s{2, 3};
    EXPECT_THROW(s.dim(2), Error);
    EXPECT_THROW(s.dim(-3), Error);
}

TEST(Shape, NegativeDimensionRejected)
{
    EXPECT_THROW(Shape({2, -1}), Error);
    EXPECT_THROW(Shape(std::vector<std::int64_t>{-5}), Error);
}

TEST(Shape, ZeroDimensionGivesEmptyTensor)
{
    Shape s{4, 0, 7};
    EXPECT_EQ(s.numel(), 0);
    // Even when the other extents alone would overflow.
    EXPECT_EQ((Shape{std::int64_t{1} << 62, 4, 0}).numel(), 0);
}

TEST(Shape, NumelOverflowThrowsInsteadOfWrapping)
{
    const std::int64_t huge = std::int64_t{1} << 62;
    EXPECT_EQ((Shape{huge, 1}).numel(), huge);
    EXPECT_THROW((Shape{huge, 2}).numel(), Error);
    // 2^32 * 2^32 wraps to exactly 0 in 64 bits.
    EXPECT_THROW((Shape{std::int64_t{1} << 32, std::int64_t{1} << 32})
                     .numel(),
                 Error);
    try {
        (void)Shape{huge, 3}.numel();
        FAIL() << "no overflow reported";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("(4611686018427387904, 3)"), std::string::npos)
            << what;
        EXPECT_NE(what.find("overflows"), std::string::npos) << what;
    }
}

TEST(Shape, AppendedAddsInnermostDim)
{
    Shape s{3};
    Shape t = s.appended(5);
    EXPECT_EQ(t, (Shape{3, 5}));
    EXPECT_EQ(s.rank(), 1) << "appended must not mutate";
}

TEST(Shape, Flattened2dCollapsesTrailingDims)
{
    Shape s{32, 256, 6, 6};
    EXPECT_EQ(s.flattened_2d(), (Shape{32, 256 * 36}));
}

TEST(Shape, Flattened2dOnRank1)
{
    Shape s{7};
    EXPECT_EQ(s.flattened_2d(), (Shape{7, 1}));
}

TEST(Shape, Flattened2dOnScalarThrows)
{
    EXPECT_THROW(Shape{}.flattened_2d(), Error);
}

TEST(Shape, ToStringMatchesPaperNotation)
{
    EXPECT_EQ((Shape{2, 12288}).to_string(), "(2, 12288)");
    EXPECT_EQ(Shape{}.to_string(), "()");
    EXPECT_EQ((Shape{12288}).to_string(), "(12288)");
}

TEST(Shape, EqualityComparesDims)
{
    EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
    EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
    EXPECT_NE((Shape{1, 2}), (Shape{1, 2, 1}));
}

}  // namespace
}  // namespace pinpoint
