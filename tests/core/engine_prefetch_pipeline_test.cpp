// Two-stage prefetch (DESIGN.md §5): on a stack with >= 2 cache tiers a
// per-rank stage-in worker reads hinted versions from the durable stores
// into the deepest cache tier ahead of T_PF, which only promotes cache
// copies to the fast tier. Each test asserts an invariant of that pipeline
// rather than a timing:
//  * the store serves later hints while the fast tier's pin budget is full,
//    also a hint enqueued while T_PF waits on that budget;
//  * a WAIT + reverse-order + all-hints shot reads each version the caches
//    did not hold exactly once, and every restore is byte-exact;
//  * the Belady guard never evicts a copy hinted sooner than the staged one;
//  * a Restore() racing an in-flight stage-in costs no second store read;
//  * Shutdown() during a stage-in joins cleanly.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

using namespace std::chrono_literals;
using rtm::CheckPattern;
using rtm::FillPattern;

constexpr std::uint64_t kSize = 64 << 10;
constexpr int kCkpts = 20;

/// Durable store that counts reads per version and can hold them at a gate,
/// so a test can observe — or freeze — the prefetch side's store traffic.
class ReadLedgerStore : public storage::ObjectStore {
 public:
  ~ReadLedgerStore() override { Open(); }

  /// Holds every later Get until Open().
  void Close() {
    std::lock_guard lk(mu_);
    gated_ = true;
  }
  void Open() {
    {
      std::lock_guard lk(mu_);
      gated_ = false;
    }
    cv_.notify_all();
  }

  [[nodiscard]] int GetsOf(Version v) const {
    std::lock_guard lk(mu_);
    const auto it = gets_.find(v);
    return it == gets_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::map<Version, int> Gets() const {
    std::lock_guard lk(mu_);
    return gets_;
  }
  /// Waits until `pred(gets per version)` holds; false after `timeout`.
  bool WaitFor(const std::function<bool(const std::map<Version, int>&)>& pred,
               std::chrono::milliseconds timeout) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return pred(gets_); });
  }

  util::Status Put(const storage::ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override {
    return inner_.Put(key, data, size);
  }
  util::Status Get(const storage::ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override {
    {
      std::unique_lock lk(mu_);
      ++gets_[key.version];
      cv_.notify_all();
      cv_.wait(lk, [this] { return !gated_; });
    }
    return inner_.Get(key, dst, size);
  }
  util::StatusOr<std::uint64_t> Size(
      const storage::ObjectKey& key) const override {
    return inner_.Size(key);
  }
  bool Exists(const storage::ObjectKey& key) const override {
    return inner_.Exists(key);
  }
  util::Status Erase(const storage::ObjectKey& key) override {
    return inner_.Erase(key);
  }
  std::vector<storage::ObjectKey> Keys() const override {
    return inner_.Keys();
  }
  std::uint64_t TotalBytes() const override { return inner_.TotalBytes(); }

 private:
  storage::MemStore inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Version, int> gets_;
  bool gated_ = false;
};

class PrefetchPipelineTest : public ::testing::Test {
 protected:
  /// GPU 4 slots (pin budget 3 at the default 0.75) over a host tier of 8
  /// slots and the ledger store.
  void SetUp() override {
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    store_ = std::make_shared<ReadLedgerStore>();
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(store_, nullptr, 4 * kSize, 8 * kSize).value(),
        EngineOptions{}, 1);
    buf_ = *cluster_->device(0).Allocate(kSize);
  }

  /// The forward pass: kCkpts versions written and drained, so at least
  /// kCkpts - 12 of them live only on the store afterwards.
  void WriteHistory() {
    for (Version v = 0; v < kCkpts; ++v) {
      std::this_thread::sleep_for(1ms);  // compute
      FillPattern(0, v, buf_, kSize);
      ASSERT_TRUE(engine_->Checkpoint(0, v, buf_, kSize).ok());
    }
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
    for (Version v = 0; v < kCkpts; ++v) {
      (Cached(v) ? cached_ : store_only_).push_back(v);
    }
    ASSERT_GE(store_only_.size(), 4u);
  }

  void TearDown() override {
    store_->Open();  // a held read would keep Shutdown() from joining
    engine_->Shutdown();
    (void)cluster_->device(0).Free(buf_);
  }

  [[nodiscard]] bool Cached(Version v) const {
    return engine_->ResidentOnIndex(0, v, 0) ||
           engine_->ResidentOnIndex(0, v, 1);
  }

  /// Resident on the fast tier and pinned there until consumed.
  [[nodiscard]] bool PinnedOnGpu(Version v) const {
    const auto state = engine_->StateOf(0, v);
    return engine_->ResidentOnIndex(0, v, 0) && state.ok() &&
           *state == CkptState::kReadComplete;
  }

  void Hint(const std::vector<Version>& order) {
    for (Version v : order) ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }

  /// Restores `v` into `buf_` and checks every byte.
  void RestoreExact(Version v) {
    ASSERT_TRUE(engine_->Restore(0, v, buf_, kSize).ok()) << "version " << v;
    EXPECT_TRUE(CheckPattern(0, v, buf_, kSize)) << "version " << v;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<ReadLedgerStore> store_;
  std::unique_ptr<Engine> engine_;
  sim::BytePtr buf_ = nullptr;
  std::vector<Version> cached_;      ///< held by a cache tier after the drain
  std::vector<Version> store_only_;  ///< on the store alone after the drain
};

TEST_F(PrefetchPipelineTest, StoreServesLaterHintsWhilePinBudgetIsFull) {
  WriteHistory();
  // Store-only versions first: the first three fill the pin budget, and
  // nothing is consumed, so T_PF stays parked on the cap. Reads of any
  // further version must come from the stage-in worker running ahead.
  std::vector<Version> order = store_only_;
  order.insert(order.end(), cached_.begin(), cached_.end());
  Hint(order);
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (engine_->PrefetchDistance(0) < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(engine_->PrefetchDistance(0), 3u) << "pin budget never filled";
  const bool read_ahead = store_->WaitFor(
      [](const std::map<Version, int>& gets) { return gets.size() > 3; }, 5s);
  EXPECT_TRUE(read_ahead)
      << "with the pin budget full the store served only "
      << store_->Gets().size() << " distinct versions";
  EXPECT_EQ(engine_->PrefetchDistance(0), 3u);  // still nothing consumed
  for (Version v : order) RestoreExact(v);
}

TEST_F(PrefetchPipelineTest, HintEnqueuedWhilePinBudgetIsFullIsStaged) {
  WriteHistory();
  ASSERT_GE(store_only_.size(), 5u);
  const std::vector<Version> first(store_only_.begin(),
                                   store_only_.begin() + 4);
  const Version fifth = store_only_[4];
  Hint(first);
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (engine_->PrefetchDistance(0) < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(engine_->PrefetchDistance(0), 3u) << "pin budget never filled";
  ASSERT_TRUE(store_->WaitFor(
      [v = first[3]](const std::map<Version, int>& gets) {
        return gets.count(v) > 0;
      },
      5s))
      << "the fourth version was never staged";
  // T_PF parks on the pin budget with the fourth version at its head; the
  // hint below arrives while it waits there.
  std::this_thread::sleep_for(20ms);
  Hint({fifth});
  EXPECT_TRUE(store_->WaitFor(
      [fifth](const std::map<Version, int>& gets) {
        return gets.count(fifth) > 0;
      },
      5s))
      << "a hint enqueued while T_PF waits on the pin budget was not staged";
  for (Version v : first) RestoreExact(v);
  RestoreExact(fifth);
}

TEST_F(PrefetchPipelineTest, WaitReverseShotReadsEachUncachedVersionOnce) {
  // Listing 1: the whole restore order is hinted before the forward pass,
  // so the caches keep the newest versions and every store-only version is
  // needed after all of them.
  std::vector<Version> order;
  for (Version v = kCkpts; v-- > 0;) order.push_back(v);
  Hint(order);
  WriteHistory();
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (Version v : order) {
    std::this_thread::sleep_for(1ms);  // the backward pass's compute
    RestoreExact(v);
  }
  for (Version v : store_only_) {
    EXPECT_EQ(store_->GetsOf(v), 1) << "version " << v;
  }
  for (Version v : cached_) EXPECT_EQ(store_->GetsOf(v), 0) << "version " << v;
}

TEST_F(PrefetchPipelineTest, BeladyGuardNeverEvictsASoonerHintedCopy) {
  WriteHistory();
  // Host-resident versions are hinted first, so every store-only version
  // the worker could stage is needed later than all of them. Only copies
  // whose version T_PF already pinned on the GPU may make room.
  std::vector<Version> host;
  for (Version v : cached_) {
    if (engine_->ResidentOnIndex(0, v, 1)) host.push_back(v);
  }
  std::vector<Version> order = host;
  order.insert(order.end(), store_only_.begin(), store_only_.end());
  for (Version v : cached_) {
    if (!engine_->ResidentOnIndex(0, v, 1)) order.push_back(v);
  }
  Hint(order);
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());

  // Nothing is consumed: the worker stages what the pinned copies' room
  // allows, then parks on the guard. Sample its host tier while it does.
  const bool staged = store_->WaitFor(
      [](const std::map<Version, int>& gets) { return !gets.empty(); }, 5s);
  EXPECT_TRUE(staged) << "the stage-in worker never read the store";
  for (int sample = 0; sample < 10; ++sample) {
    std::this_thread::sleep_for(20ms);
    for (Version v : host) {
      if (PinnedOnGpu(v)) continue;
      EXPECT_TRUE(engine_->ResidentOnIndex(0, v, 1))
          << "sooner-hinted version " << v << " lost its host copy";
    }
  }
  for (Version v : host) EXPECT_EQ(store_->GetsOf(v), 0) << "version " << v;
  for (Version v : order) RestoreExact(v);
}

TEST_F(PrefetchPipelineTest, RestoreRacingAStageInReadsTheStoreOnce) {
  WriteHistory();
  const Version v = store_only_.front();
  store_->Close();
  Hint({v});
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  ASSERT_TRUE(store_->WaitFor(
      [v](const std::map<Version, int>& gets) { return gets.count(v) > 0; },
      5s))
      << "the stage-in never started";
  // The stage-in's read is held at the gate: the restore must wait for it
  // rather than read the store a second time.
  std::thread app([&] { RestoreExact(v); });
  std::this_thread::sleep_for(50ms);
  store_->Open();
  app.join();
  EXPECT_EQ(store_->GetsOf(v), 1);
}

TEST_F(PrefetchPipelineTest, ShutdownDuringAStageInJoins) {
  WriteHistory();
  const Version v = store_only_.front();
  store_->Close();
  Hint({v});
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  ASSERT_TRUE(store_->WaitFor(
      [v](const std::map<Version, int>& gets) { return gets.count(v) > 0; },
      5s))
      << "the stage-in never started";
  auto done = std::async(std::launch::async, [&] { engine_->Shutdown(); });
  std::this_thread::sleep_for(20ms);
  store_->Open();  // the read in flight completes; nothing new may start
  ASSERT_EQ(done.wait_for(10s), std::future_status::ready)
      << "Shutdown() hung joining the stage-in worker";
  EXPECT_EQ(engine_->Restore(0, v, buf_, kSize).code(),
            util::ErrorCode::kShutdown);
}

}  // namespace
}  // namespace ckpt::core
