#pragma once
/// \file stats.hpp
/// Order statistics and in-memory spans for the benchmark. Header-only so
/// the unit tests (perfbench/tests/test_stats.cpp) need no library.
///
/// Percentiles follow the reporting rule of the benchmark: a timing is
/// reported as its median plus the highest percentile of a fixed ladder
/// that still has at least kTailSamples samples beyond it, together with
/// the sample count. p99 therefore needs 1000 samples, p90 100, p50 20.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// The ladder of tail percentiles, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 90.0, 50.0};

/// Nearest-rank quantile of an ascending-sorted sample: the
/// ceil(q * n)-th smallest value (the smallest for q <= 0). 0 when empty.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank <= 1.0 ? 0
                  : std::min(sorted.size() - 1,
                             static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

/// Median (mean of the two middle values for an even count). 0 when empty.
inline double median_sorted(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Whether percentile \p p (in percent) has at least kTailSamples samples
/// beyond it in a sample of \p count.
inline bool percentile_allowed(double p, std::size_t count) {
  const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
  return beyond + 1e-9 >= static_cast<double>(kTailSamples);
}

/// The highest percentile of kTailLadder that a sample of \p count may
/// report; absent when even p50 lacks kTailSamples samples beyond it.
inline std::optional<double> tail_percentile(std::size_t count) {
  for (const double p : kTailLadder) {
    if (percentile_allowed(p, count)) return p;
  }
  return std::nullopt;
}

/// A timing summary: median, the highest allowed tail percentile (absent
/// below 2 * kTailSamples samples) and the count.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  std::optional<double> tail_percentile;  ///< e.g. 99.0
  double tail = 0.0;                      ///< value at tail_percentile
};

/// Summarizes \p values (any order; sorted in place).
inline Summary summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  Summary summary;
  summary.count = values.size();
  summary.median = median_sorted(values);
  summary.tail_percentile = tail_percentile(values.size());
  if (summary.tail_percentile) {
    summary.tail = quantile_sorted(values, *summary.tail_percentile / 100.0);
  }
  return summary;
}

/// Per-window figures of a timed loop cut into equal windows: the rate
/// of completions (n - 1 completions over the time from the window's
/// first to its last) and the median latency of the completions in each.
struct Windows {
  std::vector<double> rate;            ///< completions per second
  std::vector<double> median_latency;  ///< seconds; 0 without completions
  std::vector<std::size_t> completions;
};

/// Cuts [0, \p span) into \p count windows; \p finish_times[i] (seconds
/// since the loop started) is when the request of \p latencies[i]
/// completed. Completions at or after \p span are ignored.
inline Windows window_stats(const std::vector<double>& finish_times,
                            const std::vector<double>& latencies, double span,
                            std::size_t count) {
  const double width = span / static_cast<double>(count);
  std::vector<std::vector<double>> buckets(count);
  std::vector<double> first(count, span), last(count, 0.0);
  for (std::size_t i = 0; i < finish_times.size(); ++i) {
    const double slot = finish_times[i] / width;
    if (slot < 0.0 || slot >= static_cast<double>(count)) continue;
    const auto w = static_cast<std::size_t>(slot);
    buckets[w].push_back(latencies[i]);
    first[w] = std::min(first[w], finish_times[i]);
    last[w] = std::max(last[w], finish_times[i]);
  }
  Windows windows;
  for (std::size_t w = 0; w < count; ++w) {
    std::vector<double>& bucket = buckets[w];
    windows.rate.push_back(
        bucket.size() < 2 ? static_cast<double>(bucket.size()) / width
                          : static_cast<double>(bucket.size() - 1) /
                                (last[w] - first[w]));
    std::sort(bucket.begin(), bucket.end());
    windows.median_latency.push_back(median_sorted(bucket));
    windows.completions.push_back(bucket.size());
  }
  return windows;
}

/// One reading of the machine's CPU time counters (/proc/stat jiffies).
struct CpuSample {
  double seconds = 0.0;  ///< since the timed loop started
  double all = 0.0;      ///< jiffies in every state
  double steal = 0.0;    ///< jiffies the hypervisor ran something else
};

/// Steal share of each of \p count equal windows of [0, \p span): steal
/// jiffies over all jiffies from the last sample at or before the
/// window's start to the first at or after its end (\p samples in time
/// order; 0 where no samples enclose the window or no jiffies passed).
inline std::vector<double> window_steal(const std::vector<CpuSample>& samples,
                                        double span, std::size_t count) {
  const double width = span / static_cast<double>(count);
  std::vector<double> shares(count, 0.0);
  for (std::size_t w = 0; w < count; ++w) {
    const double begin = width * static_cast<double>(w);
    const double end = begin + width;
    const CpuSample* before = nullptr;
    const CpuSample* after = nullptr;
    for (const CpuSample& sample : samples) {
      if (sample.seconds <= begin) before = &sample;
      if (sample.seconds >= end && after == nullptr) after = &sample;
    }
    if (before != nullptr && after != nullptr && after->all > before->all) {
      shares[w] = (after->steal - before->steal) / (after->all - before->all);
    }
  }
  return shares;
}

/// The windows whose steal share is at most the lower quartile (nearest
/// rank) of all windows' shares, ties included: every window when none
/// saw steal.
inline std::vector<std::size_t> quiet_windows(
    const std::vector<double>& steal) {
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit = quantile_sorted(sorted, 0.25);
  std::vector<std::size_t> quiet;
  for (std::size_t w = 0; w < steal.size(); ++w) {
    if (steal[w] <= limit) quiet.push_back(w);
  }
  return quiet;
}

/// Percentile \p p per group of consecutive completions: the latencies,
/// in completion order, are cut into as many groups as have at least
/// \p min_group samples each (at most \p max_groups). Empty when even
/// one group would be too small for \p p (see percentile_allowed). The
/// median over the groups is a tail figure that a few seconds of
/// interference from other processes cannot move much.
inline std::vector<double> group_percentiles(
    const std::vector<double>& finish_times,
    const std::vector<double>& latencies, double p, std::size_t min_group,
    std::size_t max_groups) {
  std::vector<double> per_group;
  if (!percentile_allowed(p, min_group)) return per_group;
  const std::size_t groups = std::min(max_groups, latencies.size() / min_group);
  std::vector<std::size_t> order(latencies.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return finish_times[a] < finish_times[b];
  });
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> group;
    for (std::size_t i = g * order.size() / groups;
         i < (g + 1) * order.size() / groups; ++i) {
      group.push_back(latencies[order[i]]);
    }
    std::sort(group.begin(), group.end());
    per_group.push_back(quantile_sorted(group, p / 100.0));
  }
  return per_group;
}

/// Median of an unsorted sample (copied). 0 when empty.
inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return median_sorted(values);
}

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One span: a named interval on the steady clock, its parent span and
/// the request it belongs to. Ids are per-run sequence numbers; 0 = root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// Spans kept in memory (one recorder per thread) and written out when
/// the run ends. Ids are unique within one recorder; give each recorder
/// its own \p id_base to keep them unique across recorders.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t id_base = 0) : next_id_(id_base) {}

  /// A fresh span id, for a parent opened before its children.
  std::uint64_t reserve() { return ++next_id_; }

  /// Times \p body as span \p id named \p name (a string literal).
  template <typename Fn>
  void record(std::uint64_t id, const char* name, std::uint64_t parent,
              std::uint64_t request, Fn&& body) {
    const Clock::time_point start = Clock::now();
    body();
    spans_.push_back({id, parent, request, name, start, Clock::now()});
  }

  /// Times \p body as a new span; returns its id.
  template <typename Fn>
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t request, Fn&& body) {
    const std::uint64_t id = reserve();
    record(id, name, parent, request, body);
    return id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration of the span recorded last.
  [[nodiscard]] double last_seconds() const { return spans_.back().seconds(); }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
