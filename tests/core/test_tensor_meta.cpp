/** @file Unit tests for TensorMeta. */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/check.h"
#include "core/tensor_meta.h"

namespace pinpoint {
namespace {

TEST(TensorMeta, BytesIsNumelTimesElementSize)
{
    TensorMeta t;
    t.shape = Shape{2, 12288};
    t.dtype = DType::kF32;
    EXPECT_EQ(t.bytes(), 2u * 12288u * 4u);
}

TEST(TensorMeta, BytesForInt64Labels)
{
    TensorMeta t;
    t.shape = Shape{8192};
    t.dtype = DType::kI64;
    EXPECT_EQ(t.bytes(), 8192u * 8u);
}

TEST(TensorMeta, EmptyTensorHasZeroBytes)
{
    TensorMeta t;
    t.shape = Shape{16, 0};
    EXPECT_EQ(t.bytes(), 0u);
}

TEST(TensorMeta, ByteOverflowThrowsInsteadOfWrapping)
{
    TensorMeta t;
    // 2^62 elements fit an int64; 2^62 * 4 bytes do not fit a size_t.
    t.shape = Shape{std::int64_t{1} << 62};
    t.dtype = DType::kF32;
    EXPECT_THROW(t.bytes(), Error);
    t.dtype = DType::kF16;
    EXPECT_EQ(t.bytes(), std::size_t{1} << 63);
    // A numel overflow surfaces through bytes() as well.
    t.shape = Shape{std::int64_t{1} << 62, 2};
    EXPECT_THROW(t.bytes(), Error);
}

TEST(TensorMeta, DefaultCategoryIsIntermediate)
{
    TensorMeta t;
    EXPECT_EQ(t.category, Category::kIntermediate);
}

TEST(CategoryNames, AllThreeAreDistinct)
{
    EXPECT_STREQ(category_name(Category::kInput), "input");
    EXPECT_STREQ(category_name(Category::kParameter), "parameter");
    EXPECT_STREQ(category_name(Category::kIntermediate),
                 "intermediate");
}

}  // namespace
}  // namespace pinpoint
