#include "util/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace ckpt::util {
namespace {

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(MpmcQueueTest, CloseDrainsThenReturnsNullopt) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, CloseWakesBlockedConsumers) {
  MpmcQueue<int> q;
  std::atomic<int> finished{0};
  {
    std::vector<std::jthread> consumers;
    for (int i = 0; i < 3; ++i) {
      consumers.emplace_back([&] {
        while (q.Pop().has_value()) {
        }
        ++finished;
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Close();
  }
  EXPECT_EQ(finished.load(), 3);
}

TEST(MpmcQueueTest, ManyProducersManyConsumersNoLossNoDup) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::mutex mu;
  std::set<int> seen;
  {
    std::vector<std::jthread> consumers;
    for (int cidx = 0; cidx < kConsumers; ++cidx) {
      consumers.emplace_back([&] {
        while (auto v = q.Pop()) {
          std::lock_guard lock(mu);
          EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (int i = 0; i < kPerProducer; ++i) {
            ASSERT_TRUE(q.Push(p * kPerProducer + i));
          }
        });
      }
    }
    q.Close();  // every producer joined: the consumers drain, then exit
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

TEST(MpmcQueueTest, MoveOnlyElements) {
  MpmcQueue<std::unique_ptr<int>> q;
  q.Push(std::make_unique<int>(5));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

}  // namespace
}  // namespace ckpt::util
