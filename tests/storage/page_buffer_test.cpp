#include "storage/page_buffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace ckpt::storage {
namespace {

std::vector<std::byte> Blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 7 + seed) & 0xff);
  }
  return v;
}

TEST(PageBufferTest, AllocateMapsZeroFilledBytes) {
  auto buf = PageBuffer::Allocate(5000);  // not a whole number of pages
  ASSERT_TRUE(buf.ok()) << buf.status();
  ASSERT_NE(buf->data(), nullptr);
  EXPECT_EQ(buf->size(), 5000u);
  EXPECT_FALSE(buf->empty());
  for (std::uint64_t i = 0; i < buf->size(); ++i) {
    ASSERT_EQ(buf->data()[i], std::byte{0}) << i;
  }
}

TEST(PageBufferTest, CopyOfHoldsAnExactCopy) {
  const auto blob = Blob(12345, 3);
  auto buf = PageBuffer::CopyOf(blob.data(), blob.size());
  ASSERT_TRUE(buf.ok()) << buf.status();
  ASSERT_EQ(buf->size(), blob.size());
  EXPECT_EQ(std::memcmp(buf->data(), blob.data(), blob.size()), 0);
}

TEST(PageBufferTest, ZeroSizeMapsNothing) {
  auto a = PageBuffer::Allocate(0);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->empty());
  EXPECT_EQ(a->data(), nullptr);
  auto b = PageBuffer::CopyOf(nullptr, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
  EXPECT_EQ(b->data(), nullptr);
  PageBuffer c;
  EXPECT_TRUE(c.empty());
  c.Release();  // releasing an empty buffer is a no-op
  EXPECT_TRUE(c.empty());
}

TEST(PageBufferTest, MoveTransfersTheMappingAndEmptiesTheSource) {
  const auto blob = Blob(8192, 9);
  auto made = PageBuffer::CopyOf(blob.data(), blob.size());
  ASSERT_TRUE(made.ok());
  PageBuffer a = std::move(*made);
  const std::byte* bytes = a.data();

  PageBuffer b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), bytes);
  EXPECT_EQ(b.size(), blob.size());

  // Move-assigning over a live buffer releases the old mapping first.
  auto other = PageBuffer::Allocate(100);
  ASSERT_TRUE(other.ok());
  PageBuffer c = std::move(*other);
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), bytes);
  ASSERT_EQ(c.size(), blob.size());
  EXPECT_EQ(std::memcmp(c.data(), blob.data(), blob.size()), 0);

  // Self-move keeps the bytes.
  PageBuffer& alias = c;
  c = std::move(alias);
  EXPECT_EQ(c.data(), bytes);
  EXPECT_EQ(c.size(), blob.size());
}

TEST(PageBufferTest, ReleaseEmptiesTheBuffer) {
  auto buf = PageBuffer::Allocate(3 << 12);
  ASSERT_TRUE(buf.ok());
  buf->Release();
  EXPECT_TRUE(buf->empty());
  EXPECT_EQ(buf->data(), nullptr);
  EXPECT_EQ(buf->size(), 0u);
}

TEST(PageBufferTest, UnmappableSizeIsOutOfMemory) {
  // Larger than any user address space: the mapping fails before any byte
  // of the (absent) source would be read.
  constexpr std::uint64_t kHuge = 1ull << 62;
  auto a = PageBuffer::Allocate(kHuge);
  EXPECT_EQ(a.status().code(), util::ErrorCode::kOutOfMemory);
  auto b = PageBuffer::Allocate(~std::uint64_t{0});
  EXPECT_EQ(b.status().code(), util::ErrorCode::kOutOfMemory);
}

}  // namespace
}  // namespace ckpt::storage
