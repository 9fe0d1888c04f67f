// Tests of the benchmark's own code: the percentile tail rule, span self
// time, the speed-of-light bound, and the timing store wrappers, which must
// forward bytes, Status and CollectStats unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "ledger.hpp"
#include "probes.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"

namespace perfbench {
namespace {

using ckpt::storage::ObjectKey;

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

std::vector<std::byte> Pattern(std::size_t n, unsigned salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + salt) & 0xff);
  }
  return v;
}

TEST(Percentile, NearestRankOnKnownSamples) {
  const auto v = OneTo(1000);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 500);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 990);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 1000);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(Summarize, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);

  const TailSummary at_1000 = Summarize(OneTo(1000));
  EXPECT_EQ(at_1000.count, 1000u);
  EXPECT_DOUBLE_EQ(at_1000.p50, 500);
  EXPECT_DOUBLE_EQ(at_1000.tail_p, 99.0);
  EXPECT_DOUBLE_EQ(at_1000.tail, 990);

  const TailSummary at_999 = Summarize(OneTo(999));
  EXPECT_EQ(at_999.count, 999u);
  EXPECT_DOUBLE_EQ(at_999.tail_p, 90.0);  // p99 would leave only 9 beyond

  EXPECT_DOUBLE_EQ(Summarize(OneTo(10000)).tail_p, 99.9);

  const TailSummary few = Summarize(OneTo(50));  // p90 leaves 5 beyond
  EXPECT_EQ(few.count, 50u);
  EXPECT_DOUBLE_EQ(few.tail_p, 0.0);
  EXPECT_DOUBLE_EQ(few.p50, 25);
}

TEST(SelfTime, SubtractsTheUnionOfClippedChildren) {
  // Children overlap each other and stick out of both ends of the parent.
  EXPECT_EQ(SelfTimeNs({0, 100}, {{10, 30}, {20, 40}, {90, 120}, {-5, 5}}),
            100 - (30 + 10 + 5));
  EXPECT_EQ(SelfTimeNs({0, 100}, {}), 100);
  EXPECT_EQ(SelfTimeNs({0, 100}, {{0, 100}, {50, 60}}), 0);
  EXPECT_EQ(SelfTimeNs({0, 100}, {{200, 300}}), 100);
}

TEST(SpeedOfLight, HandBuiltTopology) {
  ckpt::sim::TopologyConfig topo = ckpt::sim::TopologyConfig::Scaled();
  topo.nvme_drive_bw = 40ull << 20;
  topo.pcie_link_bw = 250ull << 20;
  topo.pfs_bw = 0;  // unlimited: bounds nothing
  const auto bw = LinkBandwidths(topo);
  EXPECT_DOUBLE_EQ(bw[kNvme], 40.0 * (1 << 20));
  EXPECT_DOUBLE_EQ(bw[kPcieD2h], 250.0 * (1 << 20));
  EXPECT_DOUBLE_EQ(bw[kPcieH2d], 250.0 * (1 << 20));

  SolInput in;
  in.forward_compute_s = 0.384;
  in.backward_compute_s = 0.384;
  in.forward_s = 0.5;
  for (int c = 0; c < kNumLinks; ++c) {
    const auto i = static_cast<std::size_t>(c);
    in.links.push_back({kLinkNames[i], 0, bw[i]});
  }
  in.links[kNvme].busiest_bytes = 60ull << 20;      // 1.5 s on one drive
  in.links[kPcieD2h].busiest_bytes = 250ull << 20;  // 1 s on one link
  in.links[kPfs].busiest_bytes = 1ull << 30;        // free
  in.terminal = {"nvme", 48ull << 20, bw[kNvme]};   // 1.2 s of history

  in.wait_for_flush = true;
  SolBound b = SpeedOfLight(in);
  EXPECT_DOUBLE_EQ(b.shot_s, 1.2 + 0.384);  // drain, then the backward pass
  EXPECT_DOUBLE_EQ(b.drain_s, 1.2 - 0.5);
  in.links[kPcieD2h].busiest_bytes = 500ull << 20;
  EXPECT_DOUBLE_EQ(SpeedOfLight(in).shot_s, 2.0);  // the busiest link

  in.wait_for_flush = false;
  b = SpeedOfLight(in);
  EXPECT_DOUBLE_EQ(b.shot_s, 0.384 + 0.384);  // flushes may trail the shot
  EXPECT_DOUBLE_EQ(b.drain_s, 1.2 - 0.5);

  in.terminal.busiest_bytes = 0;
  EXPECT_DOUBLE_EQ(SpeedOfLight(in).drain_s, 0.0);
}

TEST(TimedStore, RoundTripsOverMemStoreAndLogsPuts) {
  Tracer tracer;
  PutLog log;
  auto inner = std::make_shared<ckpt::storage::MemStore>();
  TimedStore store(inner, "ssd", &tracer, &log);
  const ObjectKey key{3, 7};
  const auto data = Pattern(100000, 1);
  ASSERT_TRUE(store.Put(key, data.data(), data.size()).ok());
  EXPECT_GE(log.LandedNs(key), 0);
  EXPECT_EQ(log.LandedNs({3, 8}), -1);

  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(store.Get(key, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  std::vector<std::byte> slice(1000);
  ASSERT_TRUE(store.GetRange(key, 500, slice.data(), slice.size()).ok());
  EXPECT_EQ(0, std::memcmp(slice.data(), data.data() + 500, slice.size()));

  // Errors pass through with their code, and metadata is the inner store's.
  std::vector<std::byte> none(16);
  const auto want = inner->Get({9, 9}, none.data(), none.size());
  const auto got = store.Get({9, 9}, none.data(), none.size());
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.code(), want.code());
  EXPECT_TRUE(store.Exists(key));
  EXPECT_EQ(store.TotalBytes(), inner->TotalBytes());
  ASSERT_TRUE(store.Size(key).ok());
  EXPECT_EQ(*store.Size(key), data.size());
  ckpt::storage::StoreStats stats;
  EXPECT_EQ(store.CollectStats(stats), inner->CollectStats(stats));

  int puts = 0, gets = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "storage.ssd.put") ++puts;
    if (std::string_view(s.name) == "storage.ssd.get") ++gets;
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_EQ(puts, 1);
  EXPECT_EQ(gets, 3);
}

TEST(TimedStore, ForwardsTheRemoteChainUnchanged) {
  auto remote = ckpt::storage::OpenRemoteBackend(
      "s3://bucket?lat_us=0&part=16Ki&group=2&deadline_ms=0", nullptr);
  ASSERT_TRUE(remote.ok()) << remote.status();
  const std::shared_ptr<ckpt::storage::ObjectStore> inner = *remote;
  Tracer tracer;
  PutLog log;
  TimedStore store(inner, "remote", &tracer, &log);

  std::vector<std::vector<std::byte>> objects;
  for (unsigned v = 0; v < 4; ++v) {
    objects.push_back(Pattern(40000 + v, v));
    ASSERT_TRUE(store.Put({0, v}, objects[v].data(), objects[v].size()).ok());
    EXPECT_GE(log.LandedNs({0, v}), 0);
  }
  for (unsigned v = 0; v < 4; ++v) {
    std::vector<std::byte> back(objects[v].size());
    ASSERT_TRUE(store.Get({0, v}, back.data(), back.size()).ok());
    EXPECT_EQ(back, objects[v]);
  }
  ckpt::storage::StoreStats via_wrapper;
  ckpt::storage::StoreStats direct;
  ASSERT_TRUE(store.CollectStats(via_wrapper));
  ASSERT_TRUE(inner->CollectStats(direct));
  EXPECT_EQ(via_wrapper.agg_member_puts, 4u);
  EXPECT_EQ(via_wrapper.agg_group_puts, 2u);  // group=2, count seals only
  EXPECT_EQ(via_wrapper.agg_group_puts, direct.agg_group_puts);
  EXPECT_EQ(via_wrapper.remote_puts, direct.remote_puts);
  EXPECT_EQ(via_wrapper.remote_parts, direct.remote_parts);
  EXPECT_EQ(via_wrapper.remote_get_bytes, direct.remote_get_bytes);
}

TEST(TimedSsdStore, NvmeChargesAreChildrenOfTheStoreSpan) {
  const ckpt::sim::Topology topo(ckpt::sim::TopologyConfig::Testing());
  Tracer tracer;
  TimedStore store(MakeTimedSsdStore(topo, std::make_shared<ckpt::storage::MemStore>(),
                                     &tracer),
                   "ssd", &tracer, nullptr);
  const auto data = Pattern(200000, 5);
  ASSERT_TRUE(store.Put({1, 2}, data.data(), data.size()).ok());
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(store.Get({1, 2}, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(topo.nvme_for_rank(1).admitted_bytes(), 2 * data.size());

  std::uint64_t put_id = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "storage.ssd.put") put_id = s.id;
  }
  ASSERT_NE(put_id, 0u);
  int charges_under_put = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == kNvmeChargeSpan && s.parent == put_id) {
      ++charges_under_put;
      EXPECT_EQ(s.rank, 1);
      EXPECT_EQ(s.version, 2u);
    }
  }
  EXPECT_EQ(charges_under_put, 1);
}

}  // namespace
}  // namespace perfbench
