// Unit tests of the benchmark's percentile helper and span recorder.

#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(odd).median, 2.0);
  std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(even).median, 2.5);
  std::vector<double> empty;
  EXPECT_EQ(summarize(empty).count, 0u);
  EXPECT_FALSE(summarize(empty).tail_percentile);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> few = ramp(19);
  EXPECT_FALSE(summarize(few).tail_percentile);  // p50 needs 20

  std::vector<double> twenty = ramp(20);
  const Summary s20 = summarize(twenty);
  ASSERT_TRUE(s20.tail_percentile);
  EXPECT_DOUBLE_EQ(*s20.tail_percentile, 50.0);
  EXPECT_EQ(s20.count, 20u);

  std::vector<double> hundred = ramp(100);
  const Summary s100 = summarize(hundred);
  EXPECT_DOUBLE_EQ(*s100.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s100.tail, 90.0);  // nearest rank: 90th of 1..100

  std::vector<double> thousand = ramp(1000);
  const Summary s1000 = summarize(thousand);
  EXPECT_DOUBLE_EQ(*s1000.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s1000.tail, 990.0);

  std::vector<double> big = ramp(10000);
  EXPECT_DOUBLE_EQ(*summarize(big).tail_percentile, 99.9);
}

TEST(Stats, TailPercentileOfACount) {
  EXPECT_FALSE(tail_percentile(0));
  EXPECT_FALSE(tail_percentile(19));
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Stats, P99IsRefusedBelowAThousandSamples) {
  std::vector<double> values = ramp(999);
  std::vector<double> finish = values;
  EXPECT_TRUE(group_percentiles(finish, values, 99.0, 1000, 10).empty());
  EXPECT_FALSE(percentile_allowed(99.0, 999));
  EXPECT_TRUE(percentile_allowed(90.0, 999));
  values.push_back(1000.0);
  finish.push_back(1000.0);
  const std::vector<double> p99 =
      group_percentiles(finish, values, 99.0, 1000, 10);
  ASSERT_EQ(p99.size(), 1u);
  EXPECT_DOUBLE_EQ(p99[0], 990.0);
}

TEST(Stats, QuantileClampsAtTheEnds) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(Stats, WindowsCountCompletionsAndMedianLatency) {
  // Two windows of 1 s: three completions 0.4 s apart in the first, one
  // in the second, one past the span (ignored).
  const std::vector<double> finish = {0.1, 0.5, 0.9, 1.5, 2.5};
  const std::vector<double> latency = {1.0, 3.0, 2.0, 7.0, 100.0};
  const Windows windows = window_stats(finish, latency, 2.0, 2);
  ASSERT_EQ(windows.rate.size(), 2u);
  EXPECT_DOUBLE_EQ(windows.rate[0], 2.0 / 0.8);
  EXPECT_DOUBLE_EQ(windows.rate[1], 1.0);
  ASSERT_EQ(windows.median_latency.size(), 2u);
  EXPECT_DOUBLE_EQ(windows.median_latency[0], 2.0);
  EXPECT_DOUBLE_EQ(windows.median_latency[1], 7.0);
  EXPECT_EQ(windows.completions, (std::vector<std::size_t>{3, 1}));

  const Windows gap = window_stats({0.5}, {4.0}, 2.0, 2);
  EXPECT_EQ(gap.completions, (std::vector<std::size_t>{1, 0}));
  EXPECT_DOUBLE_EQ(gap.median_latency[1], 0.0);
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
}

TEST(Stats, WindowStealUsesTheEnclosingSamples) {
  // Readings every 0.5 s from -0.1 s; 100 jiffies pass between readings,
  // 10 of them stolen from 0.9 s on.
  std::vector<CpuSample> samples;
  double steal = 0.0;
  for (int i = 0; i < 6; ++i) {
    const double t = -0.1 + 0.5 * i;
    if (t > 0.9) steal += 10.0;
    samples.push_back({t, 100.0 * i, steal});
  }
  // Window 0 spans the readings at -0.1 and 1.4 (the last one stole 10 of
  // 300 jiffies); window 1 those at 0.9 and 2.4 (30 of 300).
  const std::vector<double> shares = window_steal(samples, 2.0, 2);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 10.0 / 300.0);
  EXPECT_DOUBLE_EQ(shares[1], 30.0 / 300.0);
  // No reading after the end: no share.
  EXPECT_EQ(window_steal(samples, 3.0, 1), (std::vector<double>{0.0}));
}

TEST(Stats, QuietWindowsAreTheLowerQuartileWithTies) {
  EXPECT_EQ(quiet_windows({0.3, 0.0, 0.2, 0.1, 0.05, 0.4, 0.6, 0.5}),
            (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(quiet_windows({0.0, 0.0, 0.0}),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(quiet_windows({0.2, 0.1, 0.1, 0.3}),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(quiet_windows({}).empty());
}

TEST(Stats, GroupedPercentileNeedsFullGroups) {
  // 2500 latencies in completion order: two groups of 1250; the second
  // group's tail is ten times the first's.
  std::vector<double> finish, latency;
  for (std::size_t i = 0; i < 2500; ++i) {
    finish.push_back(static_cast<double>(2500 - i));  // reverse order
    latency.push_back(i < 1250 ? 10.0 : 1.0);
  }
  // Group 1 (earliest finishes) holds the 1.0s, group 2 the 10.0s.
  EXPECT_EQ(group_percentiles(finish, latency, 99.0, 1000, 10),
            (std::vector<double>{1.0, 10.0}));
  latency.resize(999);
  finish.resize(999);
  EXPECT_TRUE(group_percentiles(finish, latency, 99.0, 1000, 10).empty());
  EXPECT_TRUE(group_percentiles(finish, latency, 99.0, 500, 10).empty());
}

TEST(Stats, SpansNestUnderAReservedParent) {
  SpanRecorder recorder(100);
  const std::uint64_t root = recorder.reserve();
  std::uint64_t child = 0;
  recorder.record(root, "root", 0, 7, [&] {
    child = recorder.record("child", root, 7, [] {});
  });
  ASSERT_EQ(recorder.spans().size(), 2u);
  const Span& inner = recorder.spans()[0];
  const Span& outer = recorder.spans()[1];
  EXPECT_EQ(inner.id, child);
  EXPECT_EQ(inner.parent, root);
  EXPECT_EQ(outer.id, root);
  EXPECT_EQ(outer.request, 7u);
  EXPECT_GT(root, 100u);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_GE(outer.end, inner.end);
}

}  // namespace
}  // namespace perfbench
