#include "storage/remote_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "storage/aggregating_store.hpp"

namespace ckpt::storage {
namespace {

std::vector<std::byte> Blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  }
  return v;
}

RemoteOptions FastOptions() {
  RemoteOptions o;
  o.bucket = "test";
  o.request_latency = std::chrono::microseconds(0);
  o.part_bytes = 4 << 10;
  return o;
}

TEST(RemoteOptionsTest, ParsesBucketAndDefaults) {
  auto o = RemoteOptions::Parse("s3://ckpts");
  ASSERT_TRUE(o.ok()) << o.status();
  EXPECT_EQ(o->bucket, "ckpts");
  EXPECT_EQ(o->part_bytes, 1u << 20);
  EXPECT_EQ(o->max_inflight, 4);
  EXPECT_EQ(o->request_latency.count(), 200);
  EXPECT_EQ(o->group_members, 0u);
}

TEST(RemoteOptionsTest, ParsesQueryOptions) {
  auto o = RemoteOptions::Parse(
      "s3://b?part=2Mi&inflight=8&lat_us=50&fail=0.25&seed=7&group=16&"
      "group_bytes=8Mi&deadline_ms=10");
  ASSERT_TRUE(o.ok()) << o.status();
  EXPECT_EQ(o->bucket, "b");
  EXPECT_EQ(o->part_bytes, 2u << 20);
  EXPECT_EQ(o->max_inflight, 8);
  EXPECT_EQ(o->request_latency.count(), 50);
  EXPECT_DOUBLE_EQ(o->part_fail_rate, 0.25);
  EXPECT_EQ(o->seed, 7u);
  EXPECT_EQ(o->group_members, 16u);
  EXPECT_EQ(o->group_bytes, 8u << 20);
  EXPECT_EQ(o->group_deadline.count(), 10);
}

TEST(RemoteOptionsTest, RejectsMalformedSpecs) {
  EXPECT_EQ(RemoteOptions::Parse("file=/tmp").status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RemoteOptions::Parse("s3://").status().code(),
            util::ErrorCode::kInvalidArgument);  // empty bucket
  EXPECT_EQ(RemoteOptions::Parse("s3://b?bogus=1").status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RemoteOptions::Parse("s3://b?fail=2.0").status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RemoteOptions::Parse("s3://b?inflight=0").status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RemoteOptions::Parse("s3://b?part=").status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(RemoteStoreTest, MultipartPutGetRoundTrip) {
  RemoteStore store(FastOptions(), nullptr);
  // 3.5 parts: exercises the partial tail part.
  const auto blob = Blob(14 << 10, 3);
  ASSERT_TRUE(store.Put({0, 1}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({0, 1}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(*store.Size({0, 1}), blob.size());

  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.remote_puts, 1u);
  EXPECT_EQ(st.remote_parts, 4u);  // ceil(14Ki / 4Ki)
  EXPECT_EQ(st.remote_gets, 1u);
  EXPECT_EQ(st.remote_put_bytes, blob.size());
  EXPECT_EQ(st.remote_get_bytes, blob.size());
}

TEST(RemoteStoreTest, ZeroByteObjectRoundTrips) {
  RemoteStore store(FastOptions(), nullptr);
  ASSERT_TRUE(store.Put({0, 0}, nullptr, 0).ok());
  EXPECT_TRUE(store.Exists({0, 0}));
  EXPECT_EQ(*store.Size({0, 0}), 0u);
  ASSERT_TRUE(store.Get({0, 0}, nullptr, 0).ok());
}

TEST(RemoteStoreTest, GetRangeReadsSlice) {
  RemoteStore store(FastOptions(), nullptr);
  const auto blob = Blob(10 << 10, 5);
  ASSERT_TRUE(store.Put({2, 9}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(1000);
  ASSERT_TRUE(store.GetRange({2, 9}, 4096, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data() + 4096, out.size()), 0);
  // Out-of-bounds range fails without touching dst.
  EXPECT_EQ(store.GetRange({2, 9}, blob.size() - 10, out.data(), 11).code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.GetRange({9, 9}, 0, out.data(), 1).code(),
            util::ErrorCode::kNotFound);
}

TEST(RemoteStoreTest, EraseAndMissingKeys) {
  RemoteStore store(FastOptions(), nullptr);
  const auto blob = Blob(128, 1);
  ASSERT_TRUE(store.Put({1, 1}, blob.data(), blob.size()).ok());
  EXPECT_EQ(store.Keys().size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 128u);
  ASSERT_TRUE(store.Erase({1, 1}).ok());
  EXPECT_FALSE(store.Exists({1, 1}));
  EXPECT_EQ(store.Erase({1, 1}).code(), util::ErrorCode::kNotFound);
  std::byte b;
  EXPECT_EQ(store.Get({1, 1}, &b, 1).code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(store.Size({1, 1}).status().code(), util::ErrorCode::kNotFound);
}

TEST(RemoteStoreTest, PartFaultsRetryAndSucceed) {
  RemoteOptions o = FastOptions();
  o.part_fail_rate = 0.5;
  o.seed = 42;
  o.part_retry.max_attempts = 16;  // 0.5^16: a part practically cannot fail
  o.part_retry.initial_backoff = std::chrono::microseconds(1);
  o.part_retry.max_backoff = std::chrono::microseconds(4);
  RemoteStore store(o, nullptr);
  const auto blob = Blob(32 << 10, 7);  // 8 parts
  ASSERT_TRUE(store.Put({0, 3}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({0, 3}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  // With p=0.5 per attempt over 8 parts, some retries must have happened.
  EXPECT_GT(st.remote_part_retries, 0u);
  EXPECT_EQ(st.remote_parts, 8u);
}

TEST(RemoteStoreTest, FailedUploadPublishesNothing) {
  RemoteOptions o = FastOptions();
  o.part_fail_rate = 1.0;
  o.part_retry.max_attempts = 2;
  o.part_retry.initial_backoff = std::chrono::microseconds(1);
  o.part_retry.max_backoff = std::chrono::microseconds(2);
  RemoteStore store(o, nullptr);
  const std::uint64_t before = store.TotalBytes();
  const auto blob = Blob(10 << 10, 4);
  EXPECT_EQ(store.Put({0, 1}, blob.data(), blob.size()).code(),
            util::ErrorCode::kUnavailable);
  EXPECT_FALSE(store.Exists({0, 1}));
  EXPECT_TRUE(store.Keys().empty());
  EXPECT_EQ(store.TotalBytes(), before);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.remote_puts, 0u);
  EXPECT_EQ(st.remote_put_bytes, 0u);
}

TEST(RemoteStoreTest, UnmappableUploadIsOutOfMemoryAndKeepsTheOldObject) {
  RemoteStore store(FastOptions(), nullptr);
  const auto blob = Blob(5000, 6);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  // The staging mapping fails before any part is uploaded or read.
  EXPECT_EQ(store.Put({0, 0}, blob.data(), 1ull << 62).code(),
            util::ErrorCode::kOutOfMemory);
  EXPECT_EQ(*store.Size({0, 0}), blob.size());
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({0, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(store.TotalBytes(), blob.size());
}

TEST(RemoteStoreTest, ConcurrentSameKeyAndCrossKeyStorm) {
  RemoteStore store(FastOptions(), nullptr);
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          // Same-key contention on {0,0} plus a private per-thread key.
          const auto shared_blob = Blob(6 << 10, static_cast<std::uint8_t>(t));
          ASSERT_TRUE(
              store.Put({0, 0}, shared_blob.data(), shared_blob.size()).ok());
          const auto own = Blob(2 << 10, static_cast<std::uint8_t>(t + 100));
          const ObjectKey key{t + 1, static_cast<std::uint64_t>(i)};
          ASSERT_TRUE(store.Put(key, own.data(), own.size()).ok());
          std::vector<std::byte> out(own.size());
          ASSERT_TRUE(store.Get(key, out.data(), out.size()).ok());
          EXPECT_EQ(std::memcmp(out.data(), own.data(), own.size()), 0);
          if (i % 3 == 0) {
            ASSERT_TRUE(store.Erase(key).ok());
          }
          std::vector<std::byte> shared_out(6 << 10);
          const util::Status got =
              store.Get({0, 0}, shared_out.data(), shared_out.size());
          ASSERT_TRUE(got.ok()) << got;  // never torn, never missing
        }
      });
    }
  }
  EXPECT_TRUE(store.Exists({0, 0}));
}

TEST(OpenRemoteBackendTest, BuildsPlainRemoteStoreWithoutGroupOptions) {
  auto store = OpenRemoteBackend("s3://bucket?lat_us=0", nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_NE(dynamic_cast<RemoteStore*>(store->get()), nullptr);
  EXPECT_EQ(dynamic_cast<AggregatingStore*>(store->get()), nullptr);
}

TEST(OpenRemoteBackendTest, WrapsInAggregatorWhenGroupingRequested) {
  auto store = OpenRemoteBackend("s3://bucket?lat_us=0&group=4&deadline_ms=0",
                                 nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  auto* agg = dynamic_cast<AggregatingStore*>(store->get());
  ASSERT_NE(agg, nullptr);
  EXPECT_NE(dynamic_cast<const RemoteStore*>(&agg->inner()), nullptr);

  // End to end through the aggregator: 4 member puts -> 1 remote object.
  const auto blob = Blob(1 << 10, 9);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(
        (*store)->Put({r, 1}, blob.data(), blob.size()).ok());
  }
  StoreStats st;
  ASSERT_TRUE((*store)->CollectStats(st));
  EXPECT_EQ(st.agg_member_puts, 4u);
  EXPECT_EQ(st.agg_group_puts, 1u);
  EXPECT_EQ(st.remote_puts, 1u);
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE((*store)->Get({2, 1}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
}

TEST(OpenRemoteBackendTest, PropagatesParseErrors) {
  EXPECT_EQ(OpenRemoteBackend("s3://", nullptr).status().code(),
            util::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ckpt::storage
