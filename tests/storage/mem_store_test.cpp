#include "storage/mem_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace ckpt::storage {
namespace {

std::vector<std::byte> Blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i + seed) & 0xff);
  }
  return v;
}

TEST(MemStoreTest, PutGetRoundTrip) {
  MemStore store;
  const auto blob = Blob(4096, 1);
  ASSERT_TRUE(store.Put({0, 1}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(store.Get({0, 1}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
}

TEST(MemStoreTest, GetMissingFails) {
  MemStore store;
  std::byte b;
  EXPECT_EQ(store.Get({1, 2}, &b, 1).code(), util::ErrorCode::kNotFound);
}

TEST(MemStoreTest, GetBufferTooSmallFails) {
  MemStore store;
  const auto blob = Blob(100, 2);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(50);
  EXPECT_EQ(store.Get({0, 0}, out.data(), out.size()).code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(MemStoreTest, OverwriteReplacesObject) {
  MemStore store;
  const auto a = Blob(64, 1);
  const auto b = Blob(128, 9);
  ASSERT_TRUE(store.Put({0, 0}, a.data(), a.size()).ok());
  ASSERT_TRUE(store.Put({0, 0}, b.data(), b.size()).ok());
  EXPECT_EQ(*store.Size({0, 0}), 128u);
  EXPECT_EQ(store.TotalBytes(), 128u);
}

TEST(MemStoreTest, SizeExistsEraseKeys) {
  MemStore store;
  const auto blob = Blob(64, 3);
  ASSERT_TRUE(store.Put({2, 7}, blob.data(), blob.size()).ok());
  EXPECT_TRUE(store.Exists({2, 7}));
  EXPECT_FALSE(store.Exists({2, 8}));
  EXPECT_EQ(*store.Size({2, 7}), 64u);
  EXPECT_EQ(store.Keys().size(), 1u);
  EXPECT_EQ(store.Keys()[0], (ObjectKey{2, 7}));
  EXPECT_TRUE(store.Erase({2, 7}).ok());
  EXPECT_FALSE(store.Exists({2, 7}));
  EXPECT_EQ(store.Erase({2, 7}).code(), util::ErrorCode::kNotFound);
}

TEST(MemStoreTest, DistinctKeysPerRankAndVersion) {
  MemStore store;
  const auto a = Blob(16, 1);
  const auto b = Blob(16, 2);
  ASSERT_TRUE(store.Put({0, 5}, a.data(), a.size()).ok());
  ASSERT_TRUE(store.Put({1, 5}, b.data(), b.size()).ok());
  std::vector<std::byte> out(16);
  ASSERT_TRUE(store.Get({1, 5}, out.data(), 16).ok());
  EXPECT_EQ(std::memcmp(out.data(), b.data(), 16), 0);
}

TEST(MemStoreTest, ConcurrentPutsAndGets) {
  MemStore store;
  constexpr int kThreads = 8;
  constexpr int kObjects = 50;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kObjects; ++i) {
          const auto blob = Blob(256, static_cast<std::uint8_t>(t));
          ASSERT_TRUE(store
                          .Put({t, static_cast<std::uint64_t>(i)}, blob.data(),
                               blob.size())
                          .ok());
          std::vector<std::byte> out(256);
          ASSERT_TRUE(store
                          .Get({t, static_cast<std::uint64_t>(i)}, out.data(),
                               out.size())
                          .ok());
          EXPECT_EQ(std::memcmp(out.data(), blob.data(), 256), 0);
        }
      });
    }
  }
  EXPECT_EQ(store.Keys().size(), static_cast<std::size_t>(kThreads * kObjects));
  EXPECT_EQ(store.TotalBytes(), static_cast<std::uint64_t>(kThreads * kObjects) * 256);
}

/// Expects `key` to hold exactly `blob`.
void ExpectHolds(MemStore& store, const ObjectKey& key,
                 const std::vector<std::byte>& blob) {
  ASSERT_EQ(*store.Size(key), blob.size()) << key.ToString();
  std::vector<std::byte> out(blob.size() + 1, std::byte{0xEE});
  ASSERT_TRUE(store.Get(key, out.data(), out.size()).ok()) << key.ToString();
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0)
      << key.ToString();
  EXPECT_EQ(out[blob.size()], std::byte{0xEE}) << "Get wrote past the object";
}

TEST(MemStoreTest, OddSizedNeighboursStayByteExactThroughOverwriteAndErase) {
  MemStore store;
  const ObjectKey a{0, 1}, b{0, 2}, c{1, 1};
  const auto blob_a = Blob(4097, 1);  // one byte past a page
  const auto blob_c = Blob(1, 3);
  ASSERT_TRUE(store.Put(a, blob_a.data(), blob_a.size()).ok());
  const auto b0 = Blob(12289, 2);
  ASSERT_TRUE(store.Put(b, b0.data(), b0.size()).ok());
  ASSERT_TRUE(store.Put(c, blob_c.data(), blob_c.size()).ok());

  const auto larger = Blob(70001, 4);
  ASSERT_TRUE(store.Put(b, larger.data(), larger.size()).ok());
  ExpectHolds(store, a, blob_a);
  ExpectHolds(store, b, larger);
  ExpectHolds(store, c, blob_c);

  const auto smaller = Blob(3, 5);
  ASSERT_TRUE(store.Put(b, smaller.data(), smaller.size()).ok());
  ExpectHolds(store, a, blob_a);
  ExpectHolds(store, b, smaller);
  ExpectHolds(store, c, blob_c);
  EXPECT_EQ(store.TotalBytes(), blob_a.size() + smaller.size() + blob_c.size());

  ASSERT_TRUE(store.Erase(b).ok());
  ExpectHolds(store, a, blob_a);
  ExpectHolds(store, c, blob_c);
  EXPECT_FALSE(store.Exists(b));

  const auto reput = Blob(8191, 6);
  ASSERT_TRUE(store.Put(b, reput.data(), reput.size()).ok());
  ExpectHolds(store, a, blob_a);
  ExpectHolds(store, b, reput);
  ExpectHolds(store, c, blob_c);
  EXPECT_EQ(store.TotalBytes(), blob_a.size() + reput.size() + blob_c.size());
}

TEST(MemStoreTest, ZeroByteObjectRoundTrips) {
  MemStore store;
  ASSERT_TRUE(store.Put({3, 3}, nullptr, 0).ok());
  EXPECT_TRUE(store.Exists({3, 3}));
  EXPECT_EQ(*store.Size({3, 3}), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
  EXPECT_TRUE(store.Get({3, 3}, nullptr, 0).ok());
  EXPECT_TRUE(store.GetRange({3, 3}, 0, nullptr, 0).ok());
  ASSERT_TRUE(store.Erase({3, 3}).ok());
  EXPECT_FALSE(store.Exists({3, 3}));
  EXPECT_EQ(store.Size({3, 3}).status().code(), util::ErrorCode::kNotFound);
}

TEST(MemStoreTest, GetRangeReachesTheLastByteAndNoFurther) {
  MemStore store;
  const auto blob = Blob(4097, 8);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  std::byte last{};
  ASSERT_TRUE(store.GetRange({0, 0}, blob.size() - 1, &last, 1).ok());
  EXPECT_EQ(last, blob.back());
  std::byte past{0xEE};
  EXPECT_EQ(store.GetRange({0, 0}, blob.size(), &past, 1).code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.GetRange({0, 0}, blob.size() - 1, &past, 2).code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(past, std::byte{0xEE});
}

TEST(MemStoreTest, UnmappablePutIsOutOfMemoryAndKeepsTheOldObject) {
  MemStore store;
  const auto blob = Blob(100, 9);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  // The mapping fails before any source byte is read.
  EXPECT_EQ(store.Put({0, 0}, blob.data(), 1ull << 62).code(),
            util::ErrorCode::kOutOfMemory);
  EXPECT_EQ(store.Put({0, 1}, blob.data(), 1ull << 62).code(),
            util::ErrorCode::kOutOfMemory);
  EXPECT_FALSE(store.Exists({0, 1}));
  ExpectHolds(store, {0, 0}, blob);
  EXPECT_EQ(store.TotalBytes(), blob.size());
}

TEST(ObjectKeyTest, ToStringFormat) {
  EXPECT_EQ((ObjectKey{3, 17}).ToString(), "r3_v17");
}

}  // namespace
}  // namespace ckpt::storage
