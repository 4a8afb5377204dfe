// The repository benchmark: one named workload through one fixed serving
// topology (load.hpp), with every output checked.
//
//   perfbench --workload warm_door|cold_lp|churn_warm --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Both modes first run an untimed warm-up loop of 500 requests.
//
// --trace 0 sets up 15 times (the median is setup_s), runs the closed loop
// for S seconds and prints the end-to-end metrics: throughput and median
// latency are medians over the quiet one-second windows of the S seconds
// (kWindowSeconds), those in which the hypervisor stole the least. It also
// prints, outside the JSON result, p99 (the median over up to ten
// consecutive groups of at least 1000 latencies each). peak_rss_mb is the
// process's peak resident memory when the warm-up ends: the set-ups (one
// topology at a time), the pool references and the warm-up's requests,
// of which the loop keeps a payload digest each (load.hpp). welfare_ratio
// is taken over the first kWelfareInputs inputs.
//
// --trace 1 sets up once, repeats the timed loop with client-side spans
// off and on in alternating segments (obs.trace_overhead_pct: the change
// in median latency), then replays a sample of requests through each
// layer's entry points (layers.hpp) and prints the per-layer metrics and
// a self-time table. FILE receives every span as JSON lines.
//
// Both modes fail the run (correct = false, exit code 1) when a served
// report's payload differs from an in-process LocalClient reference of
// the same input (wire::reports_payload_equal, or its payload digest
// beyond the reports kept whole), when a churn_warm report
// differs from a cold re-solve (warm_start = false), or when the door's
// merged telemetry counters disagree with what the clients sent and got.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/local_client.hpp"
#include "client/tcp_client.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "stats.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace {

using namespace ssa;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
};

/// Lockstep clients: one. On a shared 4-core virtual machine, four
/// clients (one per solve worker) served the same churn_warm seed at
/// ~150 req/s in some runs and ~250 in others. Two clients kept ~2 cores
/// busy, drew more steal time from the hypervisor and moved churn_warm's
/// median latency between 4.3 and 11.8 ms over five seeds; one client,
/// run alternately with them, between 4.4 and 5.0 ms.
constexpr std::size_t kClients = 1;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetupReps = 15;

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value);
    else if (flag == "--spans") args.spans_path = value;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics: unit and the end-to-end metric each should move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"net.door_rtt_us", "us", "latency_p50_ms on warm_door"},
    {"net.backend_rtt_us", "us", "latency_p50_ms on warm_door"},
    {"net.door_self_us", "us", "throughput_rps on warm_door"},
    {"net.backend_self_us", "us", "latency_p50_ms on warm_door"},
    {"net.route_memo_hit_share", "ratio",
     "throughput_rps on warm_door (~1 there, ~0 on churn_warm)"},
    {"wire.encode_submit_us", "us", "throughput_rps on warm_door, churn_warm"},
    {"wire.decode_submit_us", "us", "throughput_rps on warm_door, churn_warm"},
    {"wire.submit_bytes", "bytes", "throughput_rps on warm_door, churn_warm"},
    {"wire.report_codec_us", "us", "throughput_rps on warm_door"},
    {"service.local_ms", "ms", "latency_p50_ms on cold_lp, churn_warm"},
    {"service.local_hit_us", "us", "latency_p50_ms on warm_door"},
    {"service.fingerprint_us", "us", "throughput_rps on warm_door"},
    {"service.structural_fingerprint_us", "us", "throughput_rps on warm_door"},
    {"service.cache_hit_share", "ratio",
     "throughput_rps on warm_door (~1 there, ~0 elsewhere)"},
    {"service.queue_wait_p50_ms", "ms", "latency_p50_ms on cold_lp"},
    {"service.queue_wait_tail_ms", "ms", "latency_p99_ms on cold_lp"},
    {"service.basis_hit_share", "ratio", "throughput_rps on churn_warm"},
    {"service.pool_hit_share", "ratio", "throughput_rps on churn_warm"},
    {"service.solves_per_request", "count",
     "throughput_rps on cold_lp, churn_warm"},
    {"api.solve_ms", "ms", "throughput_rps on cold_lp, churn_warm"},
    {"api.service_self_ms", "ms", "latency_p50_ms on cold_lp, churn_warm"},
    {"core.lp_ms", "ms", "throughput_rps on cold_lp"},
    {"core.rounding_ms", "ms", "throughput_rps on cold_lp, churn_warm"},
    {"core.pipeline_self_ms", "ms", "throughput_rps on cold_lp"},
    {"lp.pivots_per_solve", "count", "throughput_rps on cold_lp"},
    {"lp.us_per_pivot", "us", "throughput_rps on cold_lp"},
    {"lp.warm_pivot_ratio", "ratio", "throughput_rps on churn_warm"},
    {"lp.oracle_rounds", "count", "throughput_rps on churn_warm"},
    {"lp.columns_generated", "count", "throughput_rps on churn_warm"},
    {"obs.trace_overhead_pct", "%", "none (cost of client-side spans)"},
    {"trace.unexplained_us", "us", "none (latency the self times miss)"},
    {"trace.uncovered_share", "ratio",
     "latency_p50_ms on warm_door (latency no wrapped call covers)"},
};

/// Set-up: input generation, topology start and prewarm.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Topology> topology;
  double seconds = 0.0;
};

Setup set_up(const std::string& name, std::uint64_t seed) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  setup.workload = Workload::make(name, seed);
  setup.topology = std::make_unique<Topology>();
  client::TcpClient door(setup.topology->door_port());
  std::optional<gen::NamedInstance> scratch;
  for (std::size_t i = 0; i < setup.workload->prewarm_count(); ++i) {
    (void)door.get(door.submit(setup.workload->input(i, scratch),
                               setup.workload->solver(),
                               setup.workload->options()));
  }
  setup.seconds = seconds_between(start, Clock::now());
  return setup;
}

/// In-process LocalClient reports for \p indices, in order. With
/// \p as_cache_hits every input is sent twice and the second report (a
/// result-cache hit, as the prewarmed door serves it) is kept.
std::vector<SolveReport> reference_reports(
    const Workload& workload, const std::vector<std::size_t>& indices,
    const SolveOptions& options, bool as_cache_hits = false) {
  client::LocalClient local;
  std::vector<SolveReport> reports;
  std::optional<gen::NamedInstance> scratch;
  constexpr std::size_t kChunk = 64;
  for (std::size_t begin = 0; begin < indices.size(); begin += kChunk) {
    const std::size_t end = std::min(indices.size(), begin + kChunk);
    for (int pass = as_cache_hits ? 0 : 1; pass < 2; ++pass) {
      std::vector<service::RequestId> ids;
      for (std::size_t i = begin; i < end; ++i) {
        ids.push_back(local.submit(workload.input(indices[i], scratch),
                                   workload.solver(), options));
      }
      for (const service::RequestId id : ids) {
        SolveReport report = local.get(id);
        if (pass == 1) reports.push_back(std::move(report));
      }
    }
  }
  return reports;
}

/// References of a pool workload's inputs (empty for the others).
std::vector<SolveReport> pool_reference_reports(const Workload& workload) {
  std::vector<std::size_t> pool;
  if (workload.cycles()) {
    for (std::size_t i = 0; i < workload.size(); ++i) pool.push_back(i);
  }
  return reference_reports(workload, pool, workload.options(), true);
}

/// Σ welfare / Σ lp_upper_bound over reports that carry a bound.
double welfare_ratio(const std::vector<SolveReport>& reports) {
  double welfare = 0.0, bound = 0.0;
  for (const SolveReport& report : reports) {
    if (!report.lp_upper_bound) continue;
    welfare += report.welfare;
    bound += *report.lp_upper_bound;
  }
  return bound > 0.0 ? welfare / bound : 0.0;
}

/// Payload checks of one run; failures are printed and counted.
struct Verdict {
  std::size_t failures = 0;
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

/// Verifies served reports of a non-pool workload against references:
/// kept reports with wire::reports_payload_equal (and their digests must
/// agree with it), the others by payload digest. Returns the references
/// sorted by input index (for welfare_ratio).
std::vector<SolveReport> verify_served(const Workload& workload,
                                       std::vector<Served>& served,
                                       Verdict& verdict) {
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) { return a.index < b.index; });
  std::vector<std::size_t> indices;
  for (const Served& s : served) indices.push_back(s.index);
  std::vector<SolveReport> references =
      reference_reports(workload, indices, workload.options());
  std::size_t mismatches = 0, digest_disagreements = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const bool digests_equal =
        served[i].digest == payload_digest(references[i]);
    bool equal = digests_equal;
    if (served[i].report) {
      equal = wire::reports_payload_equal(*served[i].report, references[i]);
      if (equal != digests_equal) ++digest_disagreements;
    }
    if (!equal) ++mismatches;
  }
  verdict.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                     std::to_string(served.size()) +
                                     " served reports differ from the "
                                     "LocalClient reference");
  verdict.check(digest_disagreements == 0,
                std::to_string(digest_disagreements) +
                    " payload digests disagree with "
                    "wire::reports_payload_equal");

  // Warm-started churn reports must equal a cold re-solve.
  if (std::string(workload.name()) == "churn_warm") {
    std::vector<std::size_t> warm;
    std::vector<const SolveReport*> warm_reports;
    for (const Served& s : served) {
      if (s.report && s.report->warm_started && warm.size() < 48 &&
          s.index % 5 == 0) {
        warm.push_back(s.index);
        warm_reports.push_back(&*s.report);
      }
    }
    SolveOptions cold = workload.options();
    cold.warm_start = false;
    const std::vector<SolveReport> twins =
        reference_reports(workload, warm, cold);
    std::size_t twin_mismatches = 0;
    for (std::size_t i = 0; i < twins.size(); ++i) {
      if (!wire::reports_payload_equal(*warm_reports[i], twins[i])) {
        ++twin_mismatches;
      }
    }
    verdict.check(!warm.empty(),
                  "no warm-started churn report to re-solve cold");
    verdict.check(twin_mismatches == 0,
                  std::to_string(twin_mismatches) + " of " +
                      std::to_string(warm.size()) +
                      " warm churn reports differ from their cold re-solve");
    std::printf("cold re-solve check: %zu warm reports\n", warm.size());
  }
  return references;
}

/// Door telemetry deltas against the clients' own tallies.
void cross_check(const Workload& workload, const CounterDiff& diff,
                 const LoopResult& loop, Verdict& verdict) {
  const auto expect = [&](const char* counter, std::uint64_t want) {
    const std::uint64_t got = diff.delta(counter);
    verdict.check(got == want, std::string(counter) + " moved by " +
                                   std::to_string(got) + ", clients saw " +
                                   std::to_string(want));
  };
  expect("door.submits", loop.attempted);
  expect("service.submitted", loop.attempted);
  expect("service.completed", loop.reports);
  expect("door.gets", loop.reports);
  const std::string name = workload.name();
  expect("service.cache_hits", name == "warm_door" ? loop.attempted : 0);
  if (name == "cold_lp") {
    expect("service.basis_hits", 0);
    expect("service.solves", loop.attempted);
  }
}

/// Jiffies of the whole machine from /proc/stat: {all, steal}. Steal is
/// time the hypervisor ran something else while this machine wanted the
/// CPU; {0, 0} where the file is missing.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double all = 0.0, steal = 0.0, value = 0.0;
  stat >> label;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    all += value;
    if (field == 7) steal = value;
  }
  return {all, steal};
}

/// Reads cpu_jiffies() every 100 ms on its own thread until stop().
class CpuSampler {
 public:
  struct Reading {
    Clock::time_point time;
    double all = 0.0;
    double steal = 0.0;
  };

  CpuSampler()
      : thread_([this] {
          while (!done_.load()) {
            read();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          read();
        }) {}
  ~CpuSampler() { stop(); }

  /// Stops the thread after one last reading; the readings in time order.
  const std::vector<Reading>& stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
    return readings_;
  }

 private:
  void read() {
    const auto [all, steal] = cpu_jiffies();
    readings_.push_back({Clock::now(), all, steal});
  }

  std::atomic<bool> done_{false};
  std::vector<Reading> readings_;
  std::thread thread_;  // last: it starts once the members above exist
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty() || spans.empty()) return;
  std::ofstream out(path);
  Clock::time_point epoch = spans.front().start;
  for (const Span& span : spans) epoch = std::min(epoch, span.start);
  for (const Span& span : spans) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"request\": %llu, \"id\": %llu, \"parent\": %llu, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<unsigned long long>(span.request),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent), span.name,
                  1e6 * seconds_between(epoch, span.start),
                  1e6 * seconds_between(epoch, span.end));
    out << line;
  }
}

/// Timing lines of a loop, with the sample count and the tail rule.
void print_latency(const char* label, std::vector<double> latencies) {
  const Summary summary = summarize(latencies);
  std::printf("%s: %zu samples, median %.4f ms", label, summary.count,
              1e3 * summary.median);
  if (summary.tail_percentile) {
    std::printf(", p%g %.4f ms", *summary.tail_percentile, 1e3 * summary.tail);
  }
  std::printf("\n");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The timed loop is cut into windows of this length. Throughput and
/// median latency are medians over its quiet windows: those whose share
/// of the machine's CPU time stolen by the hypervisor is at most the
/// lower quartile of all windows' shares (quiet_windows in stats.hpp).
/// On a shared virtual machine a window's rate falls with its steal, and
/// steal comes and goes within a run, so the quiet windows of two runs
/// agree better than all of their windows do.
constexpr double kWindowSeconds = 1.0;

/// Groups of consecutive completions for the printed p99.
constexpr std::size_t kP99Groups = 10;

/// Requests of the warm-up loop. On the non-pool workloads they are the
/// inputs 0 .. kWarmUpRequests - 1 of every run of a seed.
constexpr std::size_t kWarmUpRequests = 500;

/// welfare_ratio is taken over the inputs 0 .. kWelfareInputs - 1 (the
/// whole pool on warm_door), served in every run of a seed as long as
/// the warm-up and the timed loop send that many. Over the warm-up's 500
/// inputs alone its spread over ten seeds of cold_lp was 0.0088, more
/// than a third of its bound.
constexpr std::size_t kWelfareInputs = 1000;

/// The first second of a fresh topology runs slow (first-touch memory,
/// growing pools), so both modes start with a loop of kWarmUpRequests
/// requests (at most the measured time) that are verified and counted
/// but not timed. A fixed count, not a time, so that the memory the
/// warm-up leaves behind (peak_rss_mb) does not grow with throughput.
LoopResult warm_up(const Workload& workload, std::uint16_t port,
                   const Args& args,
                   const std::vector<SolveReport>& references,
                   std::atomic<std::size_t>& next_index) {
  LoopOptions options;
  options.clients = kClients;
  options.seconds = args.seconds;
  options.requests = kWarmUpRequests;
  return run_closed_loop(workload, port, options, references, next_index);
}

/// The end-to-end run (--trace 0).
int run_end_to_end(const Args& args) {
  std::vector<double> setup_seconds;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};  // stop the previous topology before timing the next
    setup = set_up(args.workload, args.seed);
    setup_seconds.push_back(setup.seconds);
  }
  const Workload& workload = *setup.workload;
  const std::uint16_t port = setup.topology->door_port();

  const std::vector<SolveReport> pool_references =
      pool_reference_reports(workload);

  CounterDiff diff;
  diff.before = door_telemetry(port);
  std::atomic<std::size_t> next_index{0};
  LoopResult tally = warm_up(workload, port, args, pool_references, next_index);
  // The peak of the set-ups and the warm-up's fixed amount of work; the
  // timed loop's requests, whose number grows with throughput, and the
  // references computed after it are left out.
  const double rss_mb = peak_rss_mb();
  CpuSampler sampler;
  LoopOptions options;
  options.clients = kClients;
  options.seconds = args.seconds;
  LoopResult loop =
      run_closed_loop(workload, port, options, pool_references, next_index);
  std::vector<CpuSample> cpu;
  for (const CpuSampler::Reading& reading : sampler.stop()) {
    cpu.push_back({seconds_between(loop.start, reading.time), reading.all,
                   reading.steal});
  }
  diff.after = door_telemetry(port);

  // Runs on a shared virtual machine slow down with the host's steal
  // time; printing it tells a contended run from a slower program.
  std::printf("host steal time during the timed loop: %.1f%%\n",
              cpu.back().all > cpu.front().all
                  ? 100.0 * (cpu.back().steal - cpu.front().steal) /
                        (cpu.back().all - cpu.front().all)
                  : 0.0);
  print_latency("latency", loop.latencies);
  const std::size_t window_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds / kWindowSeconds));
  const Windows windows = window_stats(loop.finish_times, loop.latencies,
                                       args.seconds, window_count);
  const std::vector<double> steal =
      window_steal(cpu, args.seconds, window_count);
  std::vector<bool> quiet(window_count, false);
  std::vector<double> quiet_rates, quiet_latencies;
  for (const std::size_t w : quiet_windows(steal)) {
    quiet[w] = true;
    quiet_rates.push_back(windows.rate[w]);
    if (windows.completions[w] > 0) {
      quiet_latencies.push_back(windows.median_latency[w]);
    }
  }
  std::printf("completions per second / steal %% in %zu windows "
              "(* quiet, %zu of them):",
              window_count, quiet_rates.size());
  for (std::size_t w = 0; w < window_count; ++w) {
    std::printf(" %.1f/%.1f%s", windows.rate[w], 100.0 * steal[w],
                quiet[w] ? "*" : "");
  }
  std::printf("\n");
  const std::vector<double> p99s = group_percentiles(
      loop.finish_times, loop.latencies, 99.0, 1000, kP99Groups);
  std::printf("p99 in %zu groups of consecutive completions (ms):",
              p99s.size());
  for (const double p99 : p99s) std::printf(" %.4f", 1e3 * p99);
  std::printf("\n");
  const std::size_t samples = loop.latencies.size();
  tally.absorb(std::move(loop));

  Verdict verdict;
  verdict.check(tally.mismatches == 0,
                std::to_string(tally.mismatches) +
                    " served reports differ from the LocalClient reference");
  const std::vector<SolveReport> references =
      workload.cycles() ? pool_references
                        : verify_served(workload, tally.served, verdict);
  cross_check(workload, diff, tally, verdict);
  setup.topology.reset();

  std::printf("workload %s seed %llu: sent %llu, succeeded %llu, failed %llu "
              "with %zu clients (warm-up included)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.succeeded),
              static_cast<unsigned long long>(tally.failed), kClients);

  std::vector<SolveReport> welfare_sample(
      references.begin(),
      references.begin() +
          static_cast<std::ptrdiff_t>(
              std::min<std::size_t>(references.size(), kWelfareInputs)));
  std::sort(setup_seconds.begin(), setup_seconds.end());
  std::vector<Metric> metrics = {
      {"throughput_rps", median_of(quiet_rates), "1/s"},
      {"latency_p50_ms", 1e3 * median_of(quiet_latencies), "ms"},
  };
  // Printed, not gated: on a shared virtual machine the warm path's p99
  // moved 0.7 -> 7 ms between runs with the hypervisor's steal time, far
  // beyond any usable bound.
  if (!p99s.empty()) {
    std::printf("latency_p99_ms %.4f ms (median over the groups)\n",
                1e3 * median_of(p99s));
  } else {
    std::printf("latency_p99_ms withheld: %zu samples < 1000\n", samples);
  }
  metrics.push_back(
      {"served_share", share(tally.succeeded, tally.attempted), "ratio"});
  metrics.push_back({"welfare_ratio", welfare_ratio(welfare_sample), "ratio"});
  metrics.push_back({"setup_s", median_sorted(setup_seconds), "s"});
  metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  std::printf("failed_share %.6f\n", share(tally.failed, tally.attempted));

  const bool correct = verdict.failures == 0 && tally.attempted > 0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

/// Replay samples: pool entries, fresh cold inputs, or fresh churn
/// variants whose bases first receive donor visits.
std::vector<ReplayItem> replay_items(const Workload& workload,
                                     std::size_t next_index) {
  std::vector<ReplayItem> items;
  const std::string name = workload.name();
  if (name == "warm_door") {
    for (std::size_t i = 0; i < 200; ++i) {
      items.push_back({i, {}, std::nullopt});
    }
  } else if (name == "cold_lp") {
    for (std::size_t i = 0; i < 40; ++i) {
      items.push_back({next_index + i, {}, std::nullopt});
    }
  } else {
    // Fresh variants of bases two generations past the timed loop's
    // (which no slot has reached), on the first 4 symmetric and the first
    // 4 asymmetric slots, each base first visited by donors (see
    // workloads.hpp for the layout).
    constexpr std::size_t kSlotsPerKind = 4, kDonors = 8, kSamples = 6;
    const std::size_t generation =
        std::min(kChurnGenerations - 1,
                 churn_position(next_index).generation + 2);
    std::vector<std::size_t> slots;
    std::size_t taken[2] = {0, 0};  // [symmetric, asymmetric]
    for (std::size_t slot = 0; slot < kChurnActive; ++slot) {
      if (taken[churn_asymmetric(slot)]++ < kSlotsPerKind) {
        slots.push_back(slot);
      }
    }
    for (const std::size_t slot : slots) {
      for (std::size_t s = 0; s < kSamples; ++s) {
        ReplayItem item;
        item.index = churn_index({slot, generation, kDonors + s});
        item.chain = slot;
        if (s == 0) {
          for (std::size_t d = 0; d < kDonors; ++d) {
            item.donors.push_back(churn_index({slot, generation, d}));
          }
        }
        items.push_back(std::move(item));
      }
    }
  }
  return items;
}

/// The traced run (--trace 1).
int run_traced(const Args& args) {
  Setup setup = set_up(args.workload, args.seed);
  const Workload& workload = *setup.workload;
  const std::uint16_t port = setup.topology->door_port();

  const std::vector<SolveReport> pool_references =
      pool_reference_reports(workload);

  // Alternating segments, spans off/on/on/off/..., so drift cancels.
  constexpr bool kTracedSegments[] = {false, true, true, false,
                                      false, true, true, false};
  constexpr std::size_t kSegments = std::size(kTracedSegments);
  CounterDiff diff;
  diff.before = door_telemetry(port);
  std::atomic<std::size_t> next_index{0};
  std::vector<double> latencies[2];  // [spans off, spans on]
  LoopResult all = warm_up(workload, port, args, pool_references, next_index);
  for (const bool traced : kTracedSegments) {
    LoopOptions options;
    options.clients = kClients;
    options.seconds = args.seconds / static_cast<double>(kSegments);
    options.traced = traced;
    LoopResult segment =
        run_closed_loop(workload, port, options, pool_references, next_index);
    latencies[traced].insert(latencies[traced].end(),
                             segment.latencies.begin(),
                             segment.latencies.end());
    all.absorb(std::move(segment));
  }
  diff.after = door_telemetry(port);

  Verdict verdict;
  verdict.check(all.mismatches == 0,
                std::to_string(all.mismatches) +
                    " served reports differ from the LocalClient reference");
  if (!workload.cycles()) (void)verify_served(workload, all.served, verdict);
  cross_check(workload, diff, all, verdict);

  const Summary untraced = summarize(latencies[0]);
  const Summary traced = summarize(latencies[1]);

  const ReplayResult replay =
      replay_layers(workload, *setup.topology,
                    replay_items(workload, next_index.load()));
  verdict.check(replay.mismatches == 0,
                std::to_string(replay.mismatches) +
                    " replayed door/backend reports differ from LocalClient");
  setup.topology.reset();

  std::printf("workload %s seed %llu (traced run): sent %llu, succeeded %llu, "
              "failed %llu; %zu requests replayed through the layers\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.succeeded),
              static_cast<unsigned long long>(all.failed), replay.requests);
  std::printf("median latency with client spans off: %.4f ms (%zu samples), "
              "on: %.4f ms (%zu samples)\n",
              1e3 * untraced.median, untraced.count, 1e3 * traced.median,
              traced.count);
  std::printf("self times of the replayed requests (medians):\n%s",
              replay.table.c_str());

  std::vector<std::pair<std::string, double>> values = replay.metrics;
  const LatencyHistogram queue_wait =
      diff.histogram_delta("service.queue_wait_seconds");
  values.emplace_back("net.route_memo_hit_share",
                      share(diff.delta("door.route_cache_hits"),
                            diff.delta("door.submits")));
  values.emplace_back("service.cache_hit_share",
                      share(diff.delta("service.cache_hits"),
                            diff.delta("service.submitted")));
  values.emplace_back("service.basis_hit_share",
                      share(diff.delta("service.basis_hits"),
                            diff.delta("service.solves")));
  values.emplace_back("service.pool_hit_share",
                      share(diff.delta("service.pool_hits"),
                            diff.delta("service.solves")));
  values.emplace_back("service.solves_per_request",
                      share(diff.delta("service.solves"),
                            diff.delta("service.submitted")));
  // The highest percentile with ten waits beyond it (cache hits never
  // queue, so warm_door has few samples).
  const std::optional<double> wait_tail =
      tail_percentile(static_cast<std::size_t>(queue_wait.count()));
  std::printf("service.queue_wait: %llu samples, tail percentile p%g\n",
              static_cast<unsigned long long>(queue_wait.count()),
              wait_tail.value_or(0.0));
  values.emplace_back("service.queue_wait_p50_ms", 1e3 * queue_wait.p50());
  values.emplace_back("service.queue_wait_tail_ms",
                      wait_tail ? 1e3 * queue_wait.quantile(*wait_tail / 100.0)
                                : 0.0);
  values.emplace_back("obs.trace_overhead_pct",
                      untraced.median > 0.0
                          ? 100.0 * (traced.median - untraced.median) /
                                untraced.median
                          : 0.0);

  std::vector<Metric> metrics;
  std::printf(
      "per-layer metrics and the end-to-end metric each should move:\n");
  for (const LayerMetric& layer : kLayerMetrics) {
    const auto it =
        std::find_if(values.begin(), values.end(),
                     [&](const auto& v) { return v.first == layer.name; });
    if (it == values.end()) continue;
    metrics.push_back({layer.name, it->second, layer.unit});
    std::printf("  %-36s moves %s\n", layer.name, layer.moves);
  }

  std::vector<Span> spans = all.spans;
  spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());
  write_spans(args.spans_path, spans);

  const bool correct = verdict.failures == 0 && all.attempted > 0;
  print_result(correct, all.attempted, all.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args || std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                         args->workload) == std::end(kWorkloadNames)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload warm_door|cold_lp|churn_warm "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  std::printf("perfbench build %s, %u hardware threads\n", PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  return args->trace == 1 ? run_traced(*args) : run_end_to_end(*args);
}
