// Engine behavior under injected storage-tier failures (DESIGN.md §8):
// transient faults are retried, permanent terminal-tier failures degrade
// durability to the deepest surviving tier (or surface errors in strict
// mode), and failed prefetch promotions fall back to deeper tiers instead
// of wedging Restore().
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "rtm/workload.hpp"  // FillPattern / CheckPattern helpers
#include "harness/experiment.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "util/trace.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;
using storage::FaultKind;
using storage::FaultOp;
using storage::FaultyStore;

class EngineFaultTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(EngineOptions opts = {}, FaultyStore::Options fopts = {},
             int ranks = 1) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    mem_ = std::make_shared<storage::MemStore>();
    ssd_ = std::make_shared<FaultyStore>(mem_, fopts);
    pfs_ = std::make_shared<storage::MemStore>();
    // Small caches: GPU cache fits 4 checkpoints, host fits 16.
    Reopen(TierStack::Default(ssd_, pfs_, 4 * kCkptSize, 16 * kCkptSize,
                              terminal_)
               .value(),
           opts, ranks);
  }

  /// A new engine over `stack` and the current cluster (a restart when the
  /// stack reuses the stores).
  void Reopen(TierStack stack, EngineOptions opts = {}, int ranks = 1) {
    engine_.reset();
    // Keep the retry schedules fast so failure tests stay sub-second.
    opts.flush_retry.initial_backoff = std::chrono::microseconds(50);
    opts.flush_retry.max_backoff = std::chrono::microseconds(200);
    opts.fetch_retry.initial_backoff = std::chrono::microseconds(50);
    opts.fetch_retry.max_backoff = std::chrono::microseconds(200);
    engine_ =
        std::make_unique<Engine>(*cluster_, std::move(stack), opts, ranks);
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

  void RestoreAndVerify(sim::Rank rank, Version v,
                        std::uint64_t size = kCkptSize) {
    sim::BytePtr buf = DevAlloc(rank, size);
    auto st = engine_->Restore(rank, v, buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, buf, size))
        << "data corruption for version " << v;
    ASSERT_TRUE(cluster_->device(rank).Free(buf).ok());
  }

  /// Polls until `pred` holds or ~5 s pass.
  template <typename Pred>
  bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> mem_;
  std::shared_ptr<FaultyStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
  Tier terminal_ = Tier::kSsd;
};

TEST_F(EngineFaultTest, TransientSsdFaultsAreRetriedToSuccess) {
  Build();
  ssd_->FailNext(FaultOp::kPut, FaultKind::kTransient, 2);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  EXPECT_TRUE(mem_->Exists({0, 0}));  // data really reached the backend
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.flush_retries, 2u);
  EXPECT_EQ(m.flush_failures, 0u);
  EXPECT_EQ(m.tier_degradations, 0u);
  auto tier = engine_->DurableTierIndexOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kSsd);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, PermanentSsdFailureDegradesToHostTier) {
  Build();
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  // The flush pipeline exhausts its retries against the dead SSD, then
  // keeps the checkpoint durable at the host tier instead of wedging.
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  auto tier = engine_->DurableTierIndexOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kHost);
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.tier_degradations, 1u);
  EXPECT_GE(m.flush_failures, 1u);
  EXPECT_EQ(m.checkpoints_lost, 0u);
  // The full cycle still completes: the degraded copy serves the restore.
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, DegradedCopyIsPinnedAgainstEviction) {
  Build();
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  // Revive the SSD and push enough checkpoints through to thrash both
  // caches. The degraded copy of v0 has no durable backing, so SafeBelow
  // must keep it resident while everything else cycles out.
  ssd_->SetDown(false);
  for (Version v = 1; v <= 18; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, StrictModeMarksFlushFailedAndSurfacesErrors) {
  EngineOptions opts;
  opts.degraded_durability = false;
  Build(opts);
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  // Strict mode drops the cached copies and reports the loss.
  const auto wf = engine_->WaitForFlushes(0);
  EXPECT_EQ(wf.code(), util::ErrorCode::kIoError) << wf;
  auto state = engine_->StateOf(0, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, CkptState::kFlushFailed);
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  // Cache space was reclaimed.
  EXPECT_EQ(engine_->CacheUsed(0, Tier::kGpu), 0u);
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.checkpoints_lost, 1u);
  EXPECT_EQ(m.tier_degradations, 0u);
  // Restore of the lost checkpoint errors out instead of blocking.
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  EXPECT_EQ(engine_->Restore(0, 0, buf, kCkptSize).code(),
            util::ErrorCode::kIoError);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  EXPECT_EQ(engine_->DurableTierIndexOf(0, 0).status().code(),
            util::ErrorCode::kIoError);
  // Later checkpoints against a revived store proceed normally.
  ssd_->SetDown(false);
  WriteCkpt(0, 1);
  EXPECT_EQ(engine_->WaitForFlushes(0).code(), util::ErrorCode::kIoError)
      << "the recorded loss keeps being reported";
  RestoreAndVerify(0, 1);
}

TEST_F(EngineFaultTest, PrefetchPromotionFallsBackToPfsCopy) {
  terminal_ = Tier::kPfs;  // copies land on both SSD and PFS
  Build();
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kPfs));
  // Push v0 out of both caches (4-slot GPU cache, 16-slot host cache).
  for (Version v = 1; v <= 20; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  ASSERT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  // Kill the SSD, then prefetch v0: the promotion must fall back to the
  // PFS copy rather than aborting or wedging the later restore.
  ssd_->SetDown(true);
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  EXPECT_TRUE(
      WaitFor([&] { return engine_->ResidentOnIndex(0, 0, Tier::kGpu); }))
      << "promotion did not complete from the fallback tier";
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.fetch_fallbacks, 1u);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, RetriedPrefetchReadIsCountedAndTraced) {
  // The prefetch side reports a retried store read like Restore() does. On
  // a two-cache stack the stage-in worker reads; on a one-cache stack T_PF.
  for (const bool two_caches : {true, false}) {
    SCOPED_TRACE(two_caches ? "two cache tiers" : "one cache tier");
    util::trace::ResetBuffers();
    util::trace::Enable();
    Build();
    WriteCkpt(0, 0);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
    // Restart over the same SSD store: version 0 is imported from it.
    std::vector<TierDesc> tiers;
    tiers.push_back({"gpu", TierKind::kCache, CacheMedium::kDevice,
                     4 * kCkptSize, nullptr, {}});
    if (two_caches) {
      tiers.push_back({"host", TierKind::kCache, CacheMedium::kPinnedHost,
                       16 * kCkptSize, nullptr, {}});
    }
    tiers.push_back(
        {"ssd", TierKind::kDurable, CacheMedium::kPinnedHost, 0, ssd_, {}});
    Reopen(TierStack::Create(std::move(tiers)).value());
    ssd_->FailNext(FaultOp::kGet, FaultKind::kTransient);
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
    ASSERT_TRUE(engine_->PrefetchStart(0).ok());
    ASSERT_TRUE(WaitFor([&] { return engine_->ResidentOnIndex(0, 0, 0); }))
        << "the prefetched version never landed";
    RestoreAndVerify(0, 0);
    EXPECT_EQ(engine_->MetricsSnapshot(0).fetch_retries, 1u);
    engine_.reset();  // the workers publish their queued trace events
    util::trace::Disable();
#ifndef CKPT_TRACE_DISABLED
    int instants = 0;
    for (const util::trace::ThreadEvents& t : util::trace::Collect().threads) {
      for (const util::trace::Event& e : t.events) {
        if (std::strcmp(e.name, "fetch:retries") == 0 && e.version == 0) {
          ++instants;
        }
      }
    }
    EXPECT_EQ(instants, 1);
#endif
  }
  util::trace::ResetBuffers();
}

TEST_F(EngineFaultTest, RestoreFailsFastWhenOnlyDurableTierIsDead) {
  Build();
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Evict v0 from both caches; the SSD then holds the only copy.
  for (Version v = 1; v <= 20; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  ASSERT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  ssd_->SetDown(true);
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  const auto st = engine_->Restore(0, 0, buf, kCkptSize);
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError) << st;  // no hang, no abort
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  EXPECT_GE(engine_->metrics(0).fetch_retries, 0u);
  // The record is intact: reviving the store makes the restore work again.
  ssd_->SetDown(false);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, WriteThroughSurfacesTotalStoreFailure) {
  Build();
  ssd_->SetDown(true);
  // Oversize for both caches: the synchronous write-through path must
  // return the failure to the caller, who still owns the source buffer.
  const std::uint64_t big = 32 * kCkptSize;
  sim::BytePtr buf = DevAlloc(0, big);
  FillPattern(0, 0, buf, big);
  EXPECT_EQ(engine_->Checkpoint(0, 0, buf, big).code(),
            util::ErrorCode::kIoError);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  // The failed version was cleaned up and can be rewritten after revival.
  ssd_->SetDown(false);
  WriteCkpt(0, 0, big);
  RestoreAndVerify(0, 0, big);
}

TEST_F(EngineFaultTest, ShotCompletesUnderTransientFaultRate) {
  harness::ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 2;
  cfg.shot.num_ckpts = 24;
  cfg.shot.trace.num_snapshots = 24;
  cfg.shot.verify = true;
  cfg.ssd_fault_rate = 0.05;  // transient: retries absorb these
  cfg.ssd_fault_seed = 7;
  auto result = harness::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
}

}  // namespace
}  // namespace ckpt::core
