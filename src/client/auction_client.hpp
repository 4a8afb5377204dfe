#pragma once
/// \file auction_client.hpp
/// The transport-agnostic serving API: every way to reach an auction
/// service -- in-process, over a socket to one ServiceServer, or through a
/// FrontDoor splitting the keyspace across N service processes -- is an
/// ssa::client::AuctionClient with the same five calls:
///
///     std::unique_ptr<AuctionClient> client = ...;   // Local or Tcp
///     RequestId id = client->submit(instance);       // "auto" selection
///     SolveReport report = client->get(id);          // blocking claim
///     client->stats();                               // service counters
///     client->shutdown();                            // drain + stop
///
/// Implementations:
///  - LocalClient (local_client.hpp): wraps an in-process AuctionService;
///    zero serialization, the PR-3/PR-4 behavior verbatim.
///  - TcpClient (tcp_client.hpp): speaks the versioned wire protocol
///    (wire/protocol.hpp) to a ServiceServer or a FrontDoor.
///
/// The contract is location transparency with a bitwise payload
/// guarantee: for the same request stream, a TcpClient (through any
/// topology) and a LocalClient over equally-configured backends produce
/// SolveReports whose payloads -- allocation, welfare, bounds, LP and
/// mechanism payloads, error strings, provenance verdicts -- are
/// bitwise identical (wire::reports_payload_equal); only the two
/// wall-clock measurements (wall_time_seconds, queue_wait_seconds)
/// re-measure per run. Exceptions cross the wire by kind: a bad request
/// id throws std::invalid_argument and a shut-down service throws
/// std::runtime_error from every implementation alike.

#include <optional>
#include <string>

#include "api/any_instance.hpp"
#include "api/solver.hpp"
#include "obs/telemetry.hpp"
#include "service/auction_service.hpp"
#include "service/selection_policy.hpp"

namespace ssa::client {

using service::kAutoSolver;
using service::RequestId;
using service::ServiceStats;

/// Abstract serving client; see the file comment for the contract.
/// Implementations are thread-safe unless their header says otherwise.
class AuctionClient {
 public:
  virtual ~AuctionClient() = default;

  /// Enqueues one request; the instance is copied (locally or into a wire
  /// frame), so the caller's object may die immediately after. Throws
  /// std::invalid_argument for an empty instance and std::runtime_error
  /// once the service shut down.
  [[nodiscard]] virtual RequestId submit(
      const AnyInstance& instance, const std::string& solver = kAutoSolver,
      const SolveOptions& options = {}) = 0;

  /// Blocks until \p id completes and claims its report (one claim per
  /// id; a second claim throws std::invalid_argument).
  [[nodiscard]] virtual SolveReport get(RequestId id) = 0;

  /// Non-blocking poll: claims and returns the report when done, nullopt
  /// while still queued/running. Unknown or already-claimed ids throw
  /// std::invalid_argument.
  [[nodiscard]] virtual std::optional<SolveReport> try_get(RequestId id) = 0;

  /// Service counters, derived from telemetry() by service::stats_from;
  /// through a FrontDoor they are every backend's counters summed.
  [[nodiscard]] ServiceStats stats() {
    return service::stats_from(telemetry());
  }

  /// Telemetry export (obs/telemetry.hpp): the serviced side's metrics
  /// registry snapshot plus its recent spans. Through a FrontDoor this is
  /// the EXACT merge of every backend's snapshot with the door's own
  /// (counters/histograms sum precisely; see obs/registry.hpp).
  [[nodiscard]] virtual obs::TelemetrySnapshot telemetry() = 0;

  /// Stops the serviced side: completes everything queued or in flight,
  /// writes snapshots where configured, rejects further submissions.
  /// Through a FrontDoor this fans out to every backend. Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace ssa::client
