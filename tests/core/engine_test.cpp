// End-to-end tests of the multi-level checkpoint engine: life-cycle
// correctness, data integrity across tiers, flush/prefetch interleaving,
// hint deviation, condition (5) discard semantics, and concurrency.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "rtm/workload.hpp"  // FillPattern / CheckPattern helpers
#include "storage/mem_store.hpp"
#include "util/clock.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class EngineTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(EngineOptions opts = {}, int ranks = 1,
             sim::TopologyConfig topo = sim::TopologyConfig::Testing()) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(topo);
    ssd_ = std::make_shared<storage::MemStore>();
    pfs_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<Engine>(*cluster_, Stack(), opts, ranks);
  }

  /// The default stack over ssd_/pfs_ with the fixture's cache sizes.
  TierStack Stack() const {
    return TierStack::Default(ssd_, pfs_, gpu_bytes_, host_bytes_, terminal_)
        .value();
  }

  sim::BytePtr DevAlloc(sim::Rank rank, std::uint64_t size) {
    auto p = cluster_->device(rank).Allocate(size);
    EXPECT_TRUE(p.ok()) << p.status();
    return *p;
  }

  void WriteCkpt(sim::Rank rank, Version v, std::uint64_t size = kCkptSize) {
    sim::BytePtr buf = DevAlloc(rank, size);
    FillPattern(rank, v, buf, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, Version v, std::uint64_t size = kCkptSize) {
    sim::BytePtr buf = DevAlloc(rank, size);
    auto st = engine_->Restore(rank, v, buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, buf, size))
        << "data corruption for version " << v;
    ASSERT_TRUE(cluster_->device(rank).Free(buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
  // Small caches by default: the GPU cache fits 4 checkpoints, host fits 16.
  std::uint64_t gpu_bytes_ = 4 * kCkptSize;
  std::uint64_t host_bytes_ = 16 * kCkptSize;
  Tier terminal_ = Tier::kSsd;
};

TEST_F(EngineTest, CheckpointRestoreRoundTripFromGpuCache) {
  Build();
  WriteCkpt(0, 0);
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  RestoreAndVerify(0, 0);
  auto state = engine_->StateOf(0, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, CkptState::kConsumed);
}

TEST_F(EngineTest, CheckpointReachesAllTiersAfterWait) {
  Build();
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  auto state = engine_->StateOf(0, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, CkptState::kFlushed);
}

TEST_F(EngineTest, TerminalTierPfsFlushesToBothStores) {
  terminal_ = Tier::kPfs;
  Build();
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kPfs));
  EXPECT_TRUE(ssd_->Exists({0, 0}));
  EXPECT_TRUE(pfs_->Exists({0, 0}));
}

TEST_F(EngineTest, DuplicateVersionRejected) {
  Build();
  WriteCkpt(0, 7);
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  auto st = engine_->Checkpoint(0, 7, buf, kCkptSize);
  EXPECT_EQ(st.code(), util::ErrorCode::kAlreadyExists);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EngineTest, RestoreUnknownVersionFails) {
  Build();
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  EXPECT_EQ(engine_->Restore(0, 99, buf, kCkptSize).code(),
            util::ErrorCode::kNotFound);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EngineTest, RestoreBufferTooSmallFails) {
  Build();
  WriteCkpt(0, 0);
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  EXPECT_EQ(engine_->Restore(0, 0, buf, kCkptSize / 2).code(),
            util::ErrorCode::kInvalidArgument);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EngineTest, HistoryLargerThanCachesSpillsAndRestores) {
  Build();
  // 32 checkpoints >> 4-slot GPU cache and 16-slot host cache.
  for (Version v = 0; v < 32; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Every checkpoint durable; early ones evicted from the GPU cache.
  EXPECT_EQ(ssd_->Keys().size(), 32u);
  EXPECT_LE(engine_->CacheUsed(0, Tier::kGpu), 4 * kCkptSize);
  for (Version v = 0; v < 32; ++v) RestoreAndVerify(0, v);
}

TEST_F(EngineTest, ReverseOrderRestoreWithoutHints) {
  Build();
  for (Version v = 0; v < 16; ++v) WriteCkpt(0, v);
  for (int v = 15; v >= 0; --v) RestoreAndVerify(0, static_cast<Version>(v));
  const auto& m = engine_->metrics(0);
  EXPECT_EQ(m.restore_series.size(), 16u);
  EXPECT_EQ(m.bytes_restored, 16 * kCkptSize);
}

TEST_F(EngineTest, PrefetchPromotesInReverseOrder) {
  Build();
  constexpr int kN = 24;
  // Hints enqueued before the forward pass, like Listing 1.
  for (int v = kN - 1; v >= 0; --v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, static_cast<Version>(v)).ok());
  }
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (int v = kN - 1; v >= 0; --v) {
    // Pace the consumer so the background prefetcher gets scheduled (the
    // real workload sleeps its compute interval here).
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    RestoreAndVerify(0, static_cast<Version>(v));
  }
  const auto& m = engine_->metrics(0);
  // With full foreknowledge most restores must be GPU-cache hits.
  EXPECT_GT(m.restores_from_tier.at(Tier::kGpu),
            static_cast<std::uint64_t>(kN) / 2);
  EXPECT_GT(m.prefetch_promotions + m.prefetch_gpu_hits, 0u);
}

TEST_F(EngineTest, PrefetchDistanceGrowsWhileConsumerIdle) {
  Build();
  constexpr int kN = 8;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  // Wait for the prefetcher to fill the GPU cache (4 slots, 0.75 pin cap
  // => 3 pinned checkpoints).
  const util::Stopwatch sw;
  while (engine_->PrefetchDistance(0) < 3 && sw.ElapsedSec() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(engine_->PrefetchDistance(0), 3u);
  for (Version v = 0; v < kN; ++v) RestoreAndVerify(0, v);
}

TEST_F(EngineTest, DeviationFromHintsStillCorrect) {
  Build();
  constexpr int kN = 12;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Hint sequential order but read reverse: every read deviates.
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (int v = kN - 1; v >= 0; --v) {
    RestoreAndVerify(0, static_cast<Version>(v));
  }
}

TEST_F(EngineTest, DiscardAfterRestoreCancelsFlushes) {
  EngineOptions opts;
  opts.discard_after_restore = true;
  Build(opts);
  // Restore immediately after checkpoint: flushes should be cancellable.
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const auto& m = engine_->metrics(0);
  // The flush chain was either cancelled (condition (5)) or had already
  // completed before the restore; both are legal.
  EXPECT_EQ(m.flushes_cancelled + m.flushes_completed, 1u);
}

TEST_F(EngineTest, ConsumedAndDiscardedCannotBeReRead) {
  EngineOptions opts;
  opts.discard_after_restore = true;
  Build(opts);
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Fill the GPU + host caches so version 0's copies get evicted.
  for (Version v = 1; v <= 24; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  const util::Status st = engine_->Restore(0, 0, buf, kCkptSize);
  if (engine_->ResidentOnIndex(0, 0, Tier::kSsd)) {
    // Flush had completed before the restore: re-read remains possible.
    EXPECT_TRUE(st.ok());
  } else if (!engine_->ResidentOnIndex(0, 0, Tier::kGpu) &&
             !engine_->ResidentOnIndex(0, 0, Tier::kHost)) {
    EXPECT_EQ(st.code(), util::ErrorCode::kFailedPrecondition);
  }
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EngineTest, ReReadWithoutDiscardIsAllowed) {
  Build();
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  RestoreAndVerify(0, 0);  // CONSUMED -> READ_COMPLETE -> CONSUMED again
}

TEST_F(EngineTest, RecoverSizeKnownAndImported) {
  Build();
  WriteCkpt(0, 3, 12345);
  auto s = engine_->RecoverSize(0, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, 12345u);
  EXPECT_EQ(engine_->RecoverSize(0, 9).status().code(),
            util::ErrorCode::kNotFound);
}

TEST_F(EngineTest, RestartFromDurableStoreAcrossEngineLifetimes) {
  Build();
  std::vector<std::byte> snapshot;
  {
    WriteCkpt(0, 0);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  }
  // New engine over the same stores (process restart scenario).
  engine_ = std::make_unique<Engine>(*cluster_, Stack(), EngineOptions{}, 1);
  auto s = engine_->RecoverSize(0, 0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, kCkptSize);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineTest, OversizeCheckpointFallsBackToHostTier) {
  Build();  // GPU cache = 4 * 64 KiB = 256 KiB
  const std::uint64_t big = 512 << 10;  // > GPU cache, < host cache
  WriteCkpt(0, 0, big);
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  RestoreAndVerify(0, 0, big);
}

TEST_F(EngineTest, OversizeCheckpointFallsBackToStore) {
  Build();  // host cache = 16 * 64 KiB = 1 MiB
  const std::uint64_t huge = 2 << 20;  // > host cache
  WriteCkpt(0, 0, huge);
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  // The write-through flush is bookkept like any other.
  EXPECT_EQ(engine_->MetricsSnapshot(0).flushes_completed, 1u);
  RestoreAndVerify(0, 0, huge);
}

TEST_F(EngineTest, SplitCacheModeRoundTrips) {
  EngineOptions opts;
  opts.split_flush_prefetch = true;
  gpu_bytes_ = 8 * kCkptSize;  // halves still fit checkpoints
  host_bytes_ = 32 * kCkptSize;
  Build(opts);
  constexpr int kN = 12;
  for (int v = kN - 1; v >= 0; --v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, static_cast<Version>(v)).ok());
  }
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (int v = kN - 1; v >= 0; --v) RestoreAndVerify(0, static_cast<Version>(v));
}

TEST_F(EngineTest, EveryEvictionPolicyRoundTrips) {
  for (EvictionKind kind : {EvictionKind::kScore, EvictionKind::kLru,
                            EvictionKind::kFifo, EvictionKind::kGreedyGap}) {
    SCOPED_TRACE(to_string(kind));
    EngineOptions opts;
    opts.eviction = kind;
    Build(opts);
    for (Version v = 0; v < 16; ++v) WriteCkpt(0, v);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
    for (int v = 15; v >= 0; --v) RestoreAndVerify(0, static_cast<Version>(v));
  }
}

TEST_F(EngineTest, MultiRankConcurrentShots) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = 4;
  topo.hbm_capacity = 32 << 20;
  Build({}, /*ranks=*/4, topo);
  constexpr int kN = 16;
  std::vector<std::jthread> threads;
  for (sim::Rank r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      for (Version v = 0; v < kN; ++v) WriteCkpt(r, v);
      ASSERT_TRUE(engine_->WaitForFlushes(r).ok());
      for (int v = kN - 1; v >= 0; --v) {
        RestoreAndVerify(r, static_cast<Version>(v));
      }
    });
  }
  threads.clear();  // join
  for (sim::Rank r = 0; r < 4; ++r) {
    EXPECT_EQ(engine_->metrics(r).bytes_restored, kN * kCkptSize);
  }
}

TEST_F(EngineTest, InterleavedWriteReadProducerConsumer) {
  Build();
  // Binomial-checkpointing-like interleaving: write two, read one, ...
  constexpr int kN = 20;
  Version next_read = 0;
  for (Version v = 0; v < kN; ++v) {
    WriteCkpt(0, v);
    if (v % 2 == 1) {
      ASSERT_TRUE(engine_->PrefetchEnqueue(0, next_read).ok());
      ASSERT_TRUE(engine_->PrefetchStart(0).ok());
      RestoreAndVerify(0, next_read);
      ++next_read;
    }
  }
  while (next_read < kN) {
    RestoreAndVerify(0, next_read);
    ++next_read;
  }
}

TEST_F(EngineTest, RestoreWhileFlushStillPendingCondition2) {
  // Throttle flushes so the restore provably overtakes them.
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pcie_link_bw = 2 << 20;  // slow D2H: 64 KiB takes ~31 ms
  Build({}, 1, topo);
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);  // must not wait for the flush chain
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
}

TEST_F(EngineTest, MetricsAccounting) {
  Build();
  constexpr int kN = 8;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  for (Version v = 0; v < kN; ++v) RestoreAndVerify(0, v);
  const auto& m = engine_->metrics(0);
  EXPECT_EQ(m.ckpt_block_s.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(m.restore_block_s.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(m.bytes_checkpointed, kN * kCkptSize);
  EXPECT_EQ(m.bytes_restored, kN * kCkptSize);
  EXPECT_EQ(m.flushes_completed, static_cast<std::uint64_t>(kN));
  EXPECT_GT(m.CkptThroughput(), 0.0);
  EXPECT_GT(m.RestoreThroughput(), 0.0);
  EXPECT_GE(m.init_s, 0.0);
}

TEST_F(EngineTest, ShutdownIsIdempotentAndStopsWork) {
  Build();
  WriteCkpt(0, 0);
  engine_->Shutdown();
  engine_->Shutdown();
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  EXPECT_EQ(engine_->Checkpoint(0, 1, buf, kCkptSize).code(),
            util::ErrorCode::kShutdown);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EngineTest, WriteFallsThroughWhenPrefetchPinsSplitTheFastTier) {
  // Pins on v0 and v2 leave half the GPU cache free, but in two one-slot
  // holes: no two-slot window avoids a pin, and only restoring v0 or v2
  // would release one. The write must go to the host tier, not wait.
  Build();
  for (Version v = 0; v < 4; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 2).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine_->PrefetchDistance(0) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine_->PrefetchDistance(0), 2u);

  constexpr std::uint64_t kWide = 2 * kCkptSize;
  sim::BytePtr buf = DevAlloc(0, kWide);
  FillPattern(0, 4, buf, kWide);
  auto write = std::async(std::launch::async,
                          [&] { return engine_->Checkpoint(0, 4, buf, kWide); });
  if (write.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "Checkpoint waited on pins only restores can release";
    engine_->Shutdown();  // unblocks the reservation
  }
  ASSERT_TRUE(write.get().ok());
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 4, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 4, Tier::kHost));
  RestoreAndVerify(0, 0);
  RestoreAndVerify(0, 2);
  RestoreAndVerify(0, 4, kWide);
}

// §5.4.2: the constructor allocates and pins every cache tier before it
// starts any worker, so a slow pinned-memory registration is paid up front,
// as construction time and init_s.
TEST(AsyncPinInitTest, SynchronousInitPaysUpfront) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pinned_alloc_bw = 8 << 20;  // 4 MiB host cache -> ~500 ms to pin
  sim::Cluster cluster(topo);
  TierStack stack = TierStack::Default(std::make_shared<storage::MemStore>(),
                                       nullptr, 256 << 10, 4 << 20)
                        .value();
  const util::Stopwatch sw;
  Engine engine(cluster, std::move(stack), {}, 1);
  EXPECT_GT(sw.ElapsedSec(), 0.3);  // the §5.4.2 slow-init effect
  EXPECT_GT(engine.metrics(0).init_s, 0.3);
}

TEST(AsyncPinInitTest, RanksPinTheirCachesConcurrently) {
  constexpr int kRanks = 4;
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = kRanks;
  topo.pinned_alloc_bw = 8 << 20;  // 2 MiB host cache -> ~250 ms per rank
  sim::Cluster cluster(topo);
  TierStack stack = TierStack::Default(std::make_shared<storage::MemStore>(),
                                       nullptr, 256 << 10, 2 << 20)
                        .value();
  const util::Stopwatch sw;
  Engine engine(cluster, std::move(stack), {}, kRanks);
  const double construct_s = sw.ElapsedSec();

  // Every rank's caches are ready once construction returns.
  constexpr std::uint64_t kSize = 64 << 10;
  for (sim::Rank r = 0; r < kRanks; ++r) {
    sim::Device& dev = cluster.device(r);
    const sim::BytePtr src = dev.Allocate(kSize).value();
    const sim::BytePtr dst = dev.Allocate(kSize).value();
    FillPattern(r, 1, src, kSize);
    ASSERT_TRUE(engine.Checkpoint(r, 1, src, kSize).ok());
    ASSERT_TRUE(engine.Restore(r, 1, dst, kSize).ok());
    EXPECT_TRUE(CheckPattern(r, 1, dst, kSize)) << "rank " << r;
    ASSERT_TRUE(dev.Free(src).ok());
    ASSERT_TRUE(dev.Free(dst).ok());
  }

  double init_sum = 0.0;
  for (sim::Rank r = 0; r < kRanks; ++r) {
    const double init_s = engine.metrics(r).init_s;
    EXPECT_GT(init_s, 0.2) << "rank " << r;  // each rank still pays up front
    init_sum += init_s;
  }
  // The pins overlapped (sleeps overlap on a loaded box too).
  EXPECT_LT(construct_s, init_sum / 2);
}

}  // namespace
}  // namespace ckpt::core
