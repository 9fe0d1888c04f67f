#include "storage/aggregating_store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/trace_sink.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "util/trace.hpp"

namespace ckpt::storage {
namespace {

std::vector<std::byte> Blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 7 + seed) & 0xff);
  }
  return v;
}

AggregatingStore::Options NoDeadline(std::uint64_t members,
                                     std::uint64_t bytes = 0) {
  AggregatingStore::Options o;
  o.group_members = members;
  o.group_bytes = bytes;
  o.deadline = std::chrono::milliseconds(0);  // tests drive Flush() manually
  return o;
}

/// Counts the group objects (synthetic rank) currently in `inner`.
std::size_t GroupObjects(const ObjectStore& inner) {
  std::size_t n = 0;
  for (const ObjectKey& k : inner.Keys()) {
    if (k.rank == AggregatingStore::kGroupRank) ++n;
  }
  return n;
}

TEST(AggregatingStoreTest, SealsOnMemberCountAndRoundTrips) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(4));
  std::vector<std::vector<std::byte>> blobs;
  for (int r = 0; r < 8; ++r) {
    blobs.push_back(Blob(1024 + static_cast<std::size_t>(r) * 100,
                         static_cast<std::uint8_t>(r)));
    ASSERT_TRUE(store.Put({r, 1}, blobs.back().data(), blobs.back().size()).ok());
  }
  // 8 member puts at group=4: exactly 2 group objects, no member objects.
  EXPECT_EQ(mem->Keys().size(), 2u);
  EXPECT_EQ(GroupObjects(*mem), 2u);
  for (int r = 0; r < 8; ++r) {
    const auto& blob = blobs[static_cast<std::size_t>(r)];
    EXPECT_EQ(*store.Size({r, 1}), blob.size());
    std::vector<std::byte> out(blob.size());
    ASSERT_TRUE(store.Get({r, 1}, out.data(), out.size()).ok());
    EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  }
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_member_puts, 8u);
  EXPECT_EQ(st.agg_group_puts, 2u);
  EXPECT_EQ(st.agg_size_flushes, 2u);
  EXPECT_EQ(st.agg_pending_members, 0u);
}

TEST(AggregatingStoreTest, PartialFinalGroupFlushesExplicitly) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(4));
  const auto blob = Blob(512, 1);
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(store.Put({r, 0}, blob.data(), blob.size()).ok());
  }
  EXPECT_EQ(GroupObjects(*mem), 1u);  // 4 sealed, 2 still pending
  {
    StoreStats st;
    ASSERT_TRUE(store.CollectStats(st));
    EXPECT_EQ(st.agg_pending_members, 2u);
    EXPECT_EQ(st.agg_pending_bytes, 2u * 512u);
  }
  // Pending members are readable before any flush.
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({5, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  {
    StoreStats st;
    ASSERT_TRUE(store.CollectStats(st));
    EXPECT_GT(st.agg_gets_from_pending, 0u);
  }

  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(GroupObjects(*mem), 2u);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_pending_members, 0u);
  EXPECT_EQ(st.agg_deadline_flushes, 1u);  // explicit flush counts here
  ASSERT_TRUE(store.Get({5, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
}

TEST(AggregatingStoreTest, GroupOutgrowingItsFirstBufferStaysByteExact) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(4));
  // The first member sizes the group's first buffer; each later one is
  // larger than everything buffered so far, so every Put grows the group.
  std::vector<std::vector<std::byte>> blobs;
  const std::size_t sizes[] = {100, 3001, 50001, 7};
  const auto expect_all_readable = [&] {
    for (std::size_t r = 0; r < blobs.size(); ++r) {
      const auto& blob = blobs[r];
      std::vector<std::byte> out(blob.size());
      ASSERT_TRUE(
          store.Get({static_cast<int>(r), 0}, out.data(), out.size()).ok());
      EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0) << r;
    }
  };
  for (std::size_t r = 0; r < 3; ++r) {
    blobs.push_back(Blob(sizes[r], static_cast<std::uint8_t>(r + 1)));
    ASSERT_TRUE(store
                    .Put({static_cast<int>(r), 0}, blobs.back().data(),
                         blobs.back().size())
                    .ok());
    expect_all_readable();
  }
  EXPECT_EQ(GroupObjects(*mem), 0u);  // still buffered
  blobs.push_back(Blob(sizes[3], 4));
  ASSERT_TRUE(store.Put({3, 0}, blobs.back().data(), blobs.back().size()).ok());
  ASSERT_EQ(GroupObjects(*mem), 1u);  // the fourth member sealed and landed
  EXPECT_EQ(mem->TotalBytes(), 100u + 3001u + 50001u + 7u);
  expect_all_readable();
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_pending_bytes, 0u);
  EXPECT_EQ(st.agg_group_puts, 1u);
}

TEST(AggregatingStoreTest, SealsOnByteThreshold) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(0, 4096));
  const auto blob = Blob(1500, 2);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(store.Put({r, 0}, blob.data(), blob.size()).ok());
  }
  // 3 x 1500 = 4500 >= 4096: sealed at the third put.
  EXPECT_EQ(GroupObjects(*mem), 1u);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_size_flushes, 1u);
}

TEST(AggregatingStoreTest, DeadlineFlusherLandsPartialGroup) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore::Options o;
  o.group_members = 100;  // never reached
  o.deadline = std::chrono::milliseconds(20);
  AggregatingStore store(mem, o);
  const auto blob = Blob(256, 3);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  // The background flusher must land the group without any explicit call.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (GroupObjects(*mem) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(GroupObjects(*mem), 1u);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_deadline_flushes, 1u);
}

TEST(AggregatingStoreTest, EraseTombstonesPendingAndReclaimsLandedGroups) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(2));
  const auto blob = Blob(300, 4);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  ASSERT_TRUE(store.Put({1, 0}, blob.data(), blob.size()).ok());  // seals
  ASSERT_TRUE(store.Put({2, 0}, blob.data(), blob.size()).ok());  // pending
  EXPECT_EQ(GroupObjects(*mem), 1u);

  // Pending member: tombstoned, gone immediately.
  ASSERT_TRUE(store.Erase({2, 0}).ok());
  EXPECT_FALSE(store.Exists({2, 0}));
  std::byte b;
  EXPECT_EQ(store.Get({2, 0}, &b, 1).code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(store.Erase({2, 0}).code(), util::ErrorCode::kNotFound);

  // Landed members: the group object survives the first erase...
  ASSERT_TRUE(store.Erase({0, 0}).ok());
  EXPECT_EQ(GroupObjects(*mem), 1u);
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({1, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  // ...and is reclaimed when its last member goes.
  ASSERT_TRUE(store.Erase({1, 0}).ok());
  EXPECT_EQ(GroupObjects(*mem), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_group_reclaims, 1u);
}

TEST(AggregatingStoreTest, OverwriteReplacesMember) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(2));
  const auto a = Blob(100, 1);
  const auto b = Blob(200, 9);
  ASSERT_TRUE(store.Put({0, 0}, a.data(), a.size()).ok());
  ASSERT_TRUE(store.Put({0, 0}, b.data(), b.size()).ok());
  EXPECT_EQ(*store.Size({0, 0}), 200u);
  EXPECT_EQ(store.TotalBytes(), 200u);
  std::vector<std::byte> out(b.size());
  ASSERT_TRUE(store.Get({0, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), b.data(), b.size()), 0);
}

TEST(AggregatingStoreTest, FailedGroupUploadStaysReadableAndRetries) {
  auto mem = std::make_shared<MemStore>();
  auto faulty = std::make_shared<FaultyStore>(mem, FaultyStore::Options{});
  AggregatingStore store(faulty, NoDeadline(2));
  faulty->FailNext(FaultOp::kPut, FaultKind::kTransient, 1);

  const auto blob = Blob(400, 5);
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  // The sealing put's upload fails, but the member put already succeeded
  // (write-back semantics) and the data stays readable from the buffer.
  ASSERT_TRUE(store.Put({1, 0}, blob.data(), blob.size()).ok());
  EXPECT_EQ(GroupObjects(*mem), 0u);
  std::vector<std::byte> out(blob.size());
  ASSERT_TRUE(store.Get({0, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  {
    StoreStats st;
    ASSERT_TRUE(store.CollectStats(st));
    EXPECT_EQ(st.agg_group_put_failures, 1u);
    EXPECT_EQ(st.agg_group_puts, 0u);
  }

  // The next Flush retries the failed group and lands it.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(GroupObjects(*mem), 1u);
  ASSERT_TRUE(store.Get({1, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
  StoreStats st;
  ASSERT_TRUE(store.CollectStats(st));
  EXPECT_EQ(st.agg_group_puts, 1u);
  EXPECT_EQ(st.agg_pending_members, 0u);
}

TEST(AggregatingStoreTest, DestructorFlushesBufferedMembers) {
  auto mem = std::make_shared<MemStore>();
  {
    AggregatingStore store(mem, NoDeadline(100));
    const auto blob = Blob(64, 6);
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(store.Put({r, 0}, blob.data(), blob.size()).ok());
    }
    EXPECT_EQ(GroupObjects(*mem), 0u);
  }
  EXPECT_EQ(GroupObjects(*mem), 1u);
}

TEST(AggregatingStoreTest, KeysReportLogicalMemberView) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore store(mem, NoDeadline(2));
  const auto blob = Blob(128, 7);
  ASSERT_TRUE(store.Put({0, 5}, blob.data(), blob.size()).ok());
  ASSERT_TRUE(store.Put({1, 5}, blob.data(), blob.size()).ok());
  const auto keys = store.Keys();
  ASSERT_EQ(keys.size(), 2u);
  for (const ObjectKey& k : keys) {
    EXPECT_NE(k.rank, AggregatingStore::kGroupRank);
    EXPECT_EQ(k.version, 5u);
  }
  EXPECT_EQ(store.TotalBytes(), 2u * 128u);
}

TEST(AggregatingStoreTest, ConcurrentPutGetEraseStorm) {
  auto mem = std::make_shared<MemStore>();
  AggregatingStore::Options o;
  o.group_members = 4;
  o.deadline = std::chrono::milliseconds(2);  // flusher races the writers
  AggregatingStore store(mem, o);
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const auto blob =
              Blob(256 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(t));
          const ObjectKey key{t, static_cast<std::uint64_t>(i)};
          ASSERT_TRUE(store.Put(key, blob.data(), blob.size()).ok());
          std::vector<std::byte> out(blob.size());
          ASSERT_TRUE(store.Get(key, out.data(), out.size()).ok());
          EXPECT_EQ(std::memcmp(out.data(), blob.data(), blob.size()), 0);
          if (i % 4 == 1) {
            ASSERT_TRUE(store.Erase(key).ok());
          }
        }
      });
    }
  }
  ASSERT_TRUE(store.Flush().ok());
  // Every surviving member still round-trips after the storm.
  std::size_t live = 0;
  for (const ObjectKey& k : store.Keys()) {
    std::vector<std::byte> out(*store.Size(k));
    ASSERT_TRUE(store.Get(k, out.data(), out.size()).ok());
    ++live;
  }
  EXPECT_EQ(live, static_cast<std::size_t>(kThreads) * (kIters - kIters / 4));
}

#ifndef CKPT_TRACE_DISABLED
TEST(AggregatingStoreTest, GroupFlowTerminatesOnEraseToZeroReclaim) {
  // Lineage flow accounting (DESIGN.md §14): a group flow must end exactly
  // once whichever way the group dies. A staged group whose members are all
  // erased before its upload lands finishes with "agg:reclaimed"; a landed
  // group reclaimed later has already finished at "agg:landed", so the
  // reclaim is a plain "agg:reclaim" instant, never a second termination.
  util::trace::Enable();
  util::trace::ResetBuffers();

  {
    auto mem = std::make_shared<MemStore>();
    auto faulty = std::make_shared<FaultyStore>(mem, FaultyStore::Options{});
    AggregatingStore store(faulty, NoDeadline(2));
    const auto blob = Blob(256, 7);

    // Staged-then-erased-to-zero: the sealing upload fails, both members go.
    faulty->FailNext(FaultOp::kPut, FaultKind::kTransient, 1);
    ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
    ASSERT_TRUE(store.Put({1, 0}, blob.data(), blob.size()).ok());
    ASSERT_TRUE(store.Erase({0, 0}).ok());
    ASSERT_TRUE(store.Erase({1, 0}).ok());
    ASSERT_TRUE(store.Flush().ok());  // nothing left to upload
    EXPECT_EQ(GroupObjects(*mem), 0u);

    // Landed-then-reclaimed: the group uploads, then empties.
    ASSERT_TRUE(store.Put({2, 0}, blob.data(), blob.size()).ok());
    ASSERT_TRUE(store.Put({3, 0}, blob.data(), blob.size()).ok());
    EXPECT_EQ(GroupObjects(*mem), 1u);
    ASSERT_TRUE(store.Erase({2, 0}).ok());
    ASSERT_TRUE(store.Erase({3, 0}).ok());
    EXPECT_EQ(GroupObjects(*mem), 0u);
  }

  const std::string json = core::ChromeTraceJson();
  const core::TraceCheck check = core::ValidateChromeTrace(json);
  ASSERT_TRUE(check.ok) << check.error;
  // Both group flows terminated: no dangling ids in the dump.
  EXPECT_EQ(check.flows_dangling, 0u);
  EXPECT_NE(json.find("agg:reclaimed"), std::string::npos);
  EXPECT_NE(json.find("agg:landed"), std::string::npos);
  EXPECT_NE(json.find("\"agg:reclaim\""), std::string::npos);

  util::trace::Disable();
  util::trace::ResetBuffers();
}
#endif  // CKPT_TRACE_DISABLED

}  // namespace
}  // namespace ckpt::storage
