#include "load.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <thread>

#include "client/tcp_client.hpp"
#include "support/fingerprint.hpp"
#include "wire/codec.hpp"

namespace perfbench {

using namespace ssa;

Topology::Topology() {
  net::FrontDoorOptions door_options;
  for (std::size_t i = 0; i < kBackends; ++i) {
    net::ServiceServerOptions options;
    options.service.shards = 2;
    options.service.threads_per_shard = 1;
    backends_.push_back(std::make_unique<net::ServiceServer>(options));
    door_options.backends.push_back(
        {net::kLoopbackHost, backends_.back()->port()});
  }
  door_ = std::make_unique<net::FrontDoor>(door_options);
}

Topology::~Topology() {
  door_->stop();
  for (auto& backend : backends_) backend->stop();
}

std::size_t owning_backend(const AnyInstance& instance) {
  return static_cast<std::size_t>(fingerprint(instance).hi %
                                  Topology::kBackends);
}

std::uint64_t payload_digest(SolveReport report) {
  report.wall_time_seconds = 0.0;
  report.queue_wait_seconds = 0.0;
  report.warm_started = false;
  report.pivots = 0;
  report.oracle_rounds = 0;
  report.columns_generated = 0;
  wire::Writer writer;
  wire::write_report(writer, report);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char byte : writer.buffer()) {
    hash = (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return hash;
}

void LoopResult::absorb(LoopResult&& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  failed += other.failed;
  reports += other.reports;
  mismatches += other.mismatches;
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  latencies.insert(latencies.end(), other.latencies.begin(),
                   other.latencies.end());
  finish_times.insert(finish_times.end(), other.finish_times.begin(),
                      other.finish_times.end());
  std::move(other.served.begin(), other.served.end(),
            std::back_inserter(served));
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

namespace {

bool report_failed(const SolveReport& report) {
  return !report.error.empty() || report.admission == Admission::kRejected ||
         report.timed_out;
}

}  // namespace

LoopResult run_closed_loop(const Workload& workload, std::uint16_t port,
                           const LoopOptions& options,
                           const std::vector<SolveReport>& references,
                           std::atomic<std::size_t>& next_index) {
  const std::string solver = workload.solver();
  const SolveOptions solve_options = workload.options();
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> issued{0};
  std::vector<LoopResult> results(options.clients);
  std::vector<std::thread> threads;
  Clock::time_point start;

  for (std::size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = results[c];
      client::TcpClient client(port);
      SpanRecorder recorder((std::uint64_t{c} + 1) << 40);
      std::optional<gen::NamedInstance> scratch;
      std::size_t cursor = c * workload.size() / options.clients;
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(options.seconds));
      while (Clock::now() < deadline) {
        if (options.requests != 0 &&
            issued.fetch_add(1) >= options.requests) {
          break;
        }
        const std::size_t index = workload.cycles()
                                      ? cursor++ % workload.size()
                                      : next_index.fetch_add(1);
        if (index >= workload.size()) break;
        const AnyInstance view = workload.input(index, scratch);

        ++mine.attempted;
        std::optional<SolveReport> report;
        const Clock::time_point t0 = Clock::now();
        try {
          if (options.traced) {
            const std::uint64_t root = recorder.reserve();
            recorder.record(root, "client.request", 0, index, [&] {
              service::RequestId id = 0;
              recorder.record("client.submit", root, index, [&] {
                id = client.submit(view, solver, solve_options);
              });
              recorder.record("client.get", root, index,
                              [&] { report = client.get(id); });
            });
          } else {
            report = client.get(client.submit(view, solver, solve_options));
          }
        } catch (const std::exception&) {
          ++mine.failed;
          continue;
        }
        const Clock::time_point t1 = Clock::now();
        ++mine.reports;
        if (report_failed(*report)) {
          ++mine.failed;
        } else {
          ++mine.succeeded;
          mine.latencies.push_back(seconds_between(t0, t1));
          mine.finish_times.push_back(seconds_between(start, t1));
        }
        if (workload.cycles()) {
          if (!wire::reports_payload_equal(*report, references[index])) {
            ++mine.mismatches;
          }
        } else {
          Served served{index, payload_digest(*report), std::nullopt};
          if (kept_whole(index)) served.report = std::move(*report);
          mine.served.push_back(std::move(served));
        }
      }
      mine.elapsed_seconds = seconds_between(start, Clock::now());
      mine.spans = recorder.spans();
    });
  }
  while (ready.load() < options.clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true);
  for (auto& thread : threads) thread.join();

  LoopResult total;
  for (auto& result : results) total.absorb(std::move(result));
  total.start = start;
  return total;
}

obs::TelemetrySnapshot door_telemetry(std::uint16_t port) {
  client::TcpClient client(port);
  return client.telemetry();
}

std::uint64_t CounterDiff::delta(const std::string& counter) const {
  return after.counter_or(counter) - before.counter_or(counter);
}

LatencyHistogram CounterDiff::histogram_delta(const std::string& name) const {
  const auto find = [&](const obs::TelemetrySnapshot& snapshot) {
    for (const auto& [key, histogram] : snapshot.histograms) {
      if (key == name) return histogram;
    }
    return LatencyHistogram{};
  };
  const LatencyHistogram old_state = find(before);
  const LatencyHistogram new_state = find(after);
  std::array<std::uint64_t, LatencyHistogram::kBucketCount> buckets{};
  for (int b = 0; b < LatencyHistogram::kBucketCount; ++b) {
    buckets[b] = new_state.buckets()[b] - old_state.buckets()[b];
  }
  return LatencyHistogram::from_state(
      buckets, new_state.count() - old_state.count(),
      new_state.sum() - old_state.sum(), 0.0, new_state.max());
}

}  // namespace perfbench
