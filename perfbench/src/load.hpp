#pragma once
/// \file load.hpp
/// The serving topology under test and the closed-loop load that drives
/// it: TcpClient -> FrontDoor -> 2 ServiceServer backends, all in this
/// process on loopback, each backend ServiceOptions{shards = 2,
/// threads_per_shard = 1} (4 solve workers) with every other option at
/// its default. Each client owns one connection and does a blocking
/// submit then get, like an auctioneer waiting for each round's result.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "net/front_door.hpp"
#include "net/service_server.hpp"
#include "obs/telemetry.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Two backends behind one door; the destructor stops all three.
class Topology {
 public:
  static constexpr std::size_t kBackends = 2;

  Topology();
  ~Topology();

  [[nodiscard]] std::uint16_t door_port() const { return door_->port(); }
  [[nodiscard]] std::uint16_t backend_port(std::size_t i) const {
    return backends_[i]->port();
  }

 private:
  std::vector<std::unique_ptr<ssa::net::ServiceServer>> backends_;
  std::unique_ptr<ssa::net::FrontDoor> door_;
};

/// The backend the door routes an instance to (fingerprint.hi mod count).
[[nodiscard]] std::size_t owning_backend(const ssa::AnyInstance& instance);

/// Whether the served report of input \p index is kept whole for the
/// checks that need more than its payload digest: the first 64 inputs
/// (their digests must agree with wire::reports_payload_equal) and every
/// fifth input below 640 (churn_warm's warm reports among them are
/// re-solved cold). The others keep only the digest, so the memory a run
/// holds does not grow with the requests it serves.
[[nodiscard]] inline bool kept_whole(std::size_t index) {
  return index < 64 || (index % 5 == 0 && index < 640);
}

/// A served report's input index and payload digest, and the report
/// itself when kept_whole(index).
struct Served {
  std::size_t index = 0;
  std::uint64_t digest = 0;
  std::optional<ssa::SolveReport> report;
};

/// Digest of the payload wire::reports_payload_equal compares: a hash of
/// the report's encoding with the run diagnostics zeroed that it ignores.
/// Equal payloads have equal digests; the benchmark checks on the kept
/// reports that unequal digests mean unequal payloads.
[[nodiscard]] std::uint64_t payload_digest(ssa::SolveReport report);

/// Tallies of one closed-loop run, summed over its clients.
struct LoopResult {
  std::uint64_t attempted = 0;  ///< submits issued
  std::uint64_t succeeded = 0;  ///< reports without error or rejection
  std::uint64_t failed = 0;     ///< threw, rejected, timed out or error
  std::uint64_t reports = 0;    ///< get calls that returned a report
  std::uint64_t mismatches = 0; ///< inline payload mismatches (pool inputs)
  double elapsed_seconds = 0.0;
  Clock::time_point start;  ///< when the clients started sending
  std::vector<double> latencies;  ///< submit->report seconds, successes
  /// Seconds from the loop's start to each success's report, in the
  /// order of latencies.
  std::vector<double> finish_times;
  /// Served reports, verified after the loop (non-pool inputs).
  std::vector<Served> served;
  std::vector<Span> spans;  ///< client-side spans (traced runs only)

  void absorb(LoopResult&& other);
};

struct LoopOptions {
  std::size_t clients = 1;
  double seconds = 1.0;
  /// Stop after this many submits over all clients (0: when time is up).
  std::size_t requests = 0;
  /// Record client.request/client.submit/client.get spans.
  bool traced = false;
};

/// Runs the closed loop against \p port. Pool workloads cycle (client c
/// starts at c * size / clients) and compare every report inline with
/// \p references; the others take the next unused index from
/// \p next_index and keep the report for later verification.
[[nodiscard]] LoopResult run_closed_loop(
    const Workload& workload, std::uint16_t port, const LoopOptions& options,
    const std::vector<ssa::SolveReport>& references,
    std::atomic<std::size_t>& next_index);

/// Before/after telemetry of the door (the exact merge of both backends'
/// registries with the door's own).
struct CounterDiff {
  ssa::obs::TelemetrySnapshot before;
  ssa::obs::TelemetrySnapshot after;

  [[nodiscard]] std::uint64_t delta(const std::string& counter) const;
  /// after - before of a histogram, bucket by bucket.
  [[nodiscard]] ssa::LatencyHistogram histogram_delta(
      const std::string& name) const;
};

[[nodiscard]] ssa::obs::TelemetrySnapshot door_telemetry(std::uint16_t port);

}  // namespace perfbench
