#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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

TEST(LogHistogramTest, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(LogHistogramTest, BucketsAreUniformInLog10) {
  LogHistogram h(1e-3, 1e1, 2);  // 4 decades x 2 = 8 buckets
  EXPECT_EQ(h.num_buckets(), 8u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 1e-3);
  EXPECT_NEAR(h.bucket_lo(1), 1e-3 * std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(h.bucket_lo(2), 1e-2, 1e-12);
}

TEST(LogHistogramTest, AddClampsOutOfRangeToEdgeBuckets) {
  LogHistogram h(1e-3, 1e1, 2);
  h.Add(0.0);     // below lo (non-positive)
  h.Add(1e-9);    // below lo
  h.Add(1e6);     // above hi
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e6);
}

TEST(LogHistogramTest, PercentileApproximatesByBucketEdge) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) h.Add(1e-4);  // 100 us
  for (int i = 0; i < 10; ++i) h.Add(1.0);   // 1 s tail
  // p50 must land in the 1e-4 bucket, p99 in the 1 s bucket.
  EXPECT_LT(h.Percentile(50), 1e-3);
  EXPECT_GE(h.Percentile(99), 0.5);
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 1e-4 + 10 * 1.0) / 100.0);
}

TEST(LogHistogramTest, MergeSameShapeAddsCounts) {
  LogHistogram a, b;
  a.Add(1e-4);
  b.Add(1e-4);
  b.Add(1.0);
  a.Merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.max(), 1.0);
  EXPECT_DOUBLE_EQ(a.sum(), 2e-4 + 1.0);
}

TEST(LogHistogramTest, MergeMismatchedShapeRebuckets) {
  LogHistogram wide;               // default 1e-7..1e3
  LogHistogram narrow(1e-3, 1e1, 8);
  narrow.Add(5e-3);
  narrow.Add(2.0);
  wide.Merge(narrow);
  EXPECT_EQ(wide.total(), 2u);
  EXPECT_DOUBLE_EQ(wide.sum(), narrow.sum());
  // Re-bucketed mass stays in the right decade (edge-of-bucket precision).
  EXPECT_GT(wide.Percentile(99), 0.1);
  EXPECT_LT(wide.Percentile(25), 1e-2);
}

TEST(LogHistogramTest, RejectsBadShape) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1e-3, 1e1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ckpt::util
