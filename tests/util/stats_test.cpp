#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace ckpt::util {
namespace {

TEST(SampleSeriesTest, PercentilesExact) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 1e-9);
}

TEST(SampleSeriesTest, AggregatesAndEmpty) {
  SampleSeries s;
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.Sum(), 0.0);
  s.Add(3);
  s.Add(1);
  s.Add(2);
  EXPECT_DOUBLE_EQ(s.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
}

TEST(FormatTest, RatesAndBytes) {
  EXPECT_EQ(FormatRate(25e9), "25.00 GB/s");
  EXPECT_EQ(FormatRate(512), "512.00 B/s");
  EXPECT_EQ(FormatBytes(4e6), "4.00 MB");
  EXPECT_EQ(FormatBytes(1.5e12), "1.50 TB");
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  for (const std::uint64_t n : h.counts()) EXPECT_EQ(n, 0u);
}

TEST(HistogramTest, SamplesBucketByUpperEdge) {
  // Half-decade edges from 1 us to 100 s, plus the +Inf bucket.
  EXPECT_EQ(Histogram::kEdgesS[0], 1e-6);
  EXPECT_EQ(Histogram::kEdgesS[Histogram::kBuckets - 2], 100.0);
  EXPECT_EQ(Histogram::kBuckets, 18u);
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1e-6), 0u);      // `le` is inclusive
  EXPECT_EQ(Histogram::BucketOf(1.5e-6), 1u);    // (1e-6, 3.16e-6]
  EXPECT_EQ(Histogram::BucketOf(0.002), 7u);     // (0.001, 0.00316]
  EXPECT_EQ(Histogram::BucketOf(100.0), 16u);
  Histogram h;
  h.Add(0.002);
  EXPECT_EQ(h.counts()[7], 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(HistogramTest, TenMicrosecondSampleKeepsItsOwnBucket) {
  // Sub-100 us reserve rounds must not fold into one bottom bucket.
  Histogram h;
  h.Add(10e-6);
  h.Add(30e-6);
  h.Add(100e-6);
  EXPECT_EQ(Histogram::BucketOf(10e-6), 2u);   // (3.16e-6, 1e-5]
  EXPECT_EQ(Histogram::BucketOf(30e-6), 3u);   // (1e-5, 3.16e-5]
  EXPECT_EQ(Histogram::BucketOf(100e-6), 4u);  // (3.16e-5, 1e-4]
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.counts()[4], 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 1e-5);
}

TEST(HistogramTest, PastTheLastEdgeLandsInTheInfBucket) {
  Histogram h;
  h.Add(500.0);
  h.Add(1e6);
  EXPECT_EQ(Histogram::BucketOf(100.1), Histogram::kBuckets - 1);
  EXPECT_EQ(h.counts()[Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(h.total(), 2u);
  // An +Inf sample reports the last finite edge, a lower bound.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, SamplesBucketByUpperEdgeAndPercentilesReportIt) {
  Histogram h;
  for (const double s : {0.002, 0.002, 0.002, 0.5}) h.Add(s);
  // Nearest rank, reported at the upper edge of the bucket holding it.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.00316);
  EXPECT_DOUBLE_EQ(h.Percentile(75), 0.00316);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 1.0);
  EXPECT_NEAR(h.mean(), 0.506 / 4, 1e-12);
  // A sample past the last edge reports that edge, a lower bound.
  h.Add(500.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, PercentileReportsTheBucketUpperEdge) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Add(1e-4);  // 100 us
  for (int i = 0; i < 10; ++i) h.Add(1.0);   // 1 s tail
  // p50 lands in the (3.16e-5, 1e-4] bucket, p99 in the (0.316, 1] bucket.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1e-4);
  EXPECT_DOUBLE_EQ(h.Percentile(90), 1e-4);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1.0);
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 1e-4 + 10 * 1.0) / 100.0);
}

TEST(HistogramTest, MergeAddsCountsAndSums) {
  Histogram a;
  Histogram b;
  a.Add(1e-4);
  b.Add(1e-4);
  b.Add(1.0);
  a.Merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.counts()[Histogram::BucketOf(1e-4)], 2u);
  EXPECT_EQ(a.counts()[Histogram::BucketOf(1.0)], 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 2e-4 + 1.0);
}

TEST(HistogramTest, SumIsInSecondsAndFromCountsKeepsIt) {
  Histogram h;
  h.Add(0.25);
  h.Add(0.5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.75);
  EXPECT_DOUBLE_EQ(h.mean(), 0.375);
  const Histogram copy = Histogram::FromCounts(h.counts(), h.sum());
  EXPECT_EQ(copy.total(), 2u);
  EXPECT_DOUBLE_EQ(copy.sum(), 0.75);
  EXPECT_EQ(copy.counts(), h.counts());
}

}  // namespace
}  // namespace ckpt::util
