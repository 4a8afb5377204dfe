#pragma once
/// \file front_door.hpp
/// The cross-process sharding front door: a wire-protocol server that owns
/// no solver at all. It decodes each submit just far enough to compute the
/// canonical 128-bit instance fingerprint (support/fingerprint.hpp), picks
/// the backend that owns that slice of the keyspace (fingerprint.hi mod
/// backend count -- the same consistent-split discipline the service uses
/// for its internal shards), and forwards the original frame bytes
/// untouched. Equal instances therefore always meet the same backend
/// process, which is what keeps the per-backend result caches and
/// coalescing tables effective with zero cross-process coordination --
/// exactly the role the in-process shard routing plays one level down.
///
/// Per backend the door keeps ONE multiplexed connection
/// (net/mux_connection.hpp): every forwarded call is a pipelined request
/// correlated by the v3 wire request id, so a blocking get parks a map
/// entry -- not a connection, not a thread -- and any number of calls
/// share the channel. The door itself serves its clients from one epoll
/// event loop (net/event_loop.hpp); responses are relayed as
/// continuations with the envelope id rewritten to the client's and the
/// payload bytes untouched, so a TcpClient behind the door receives
/// byte-for-byte what the backend produced, and kError frames pass
/// through with their "<solver-key>: <reason>"-pinned messages intact.
/// Door-level failures (unknown id, unreachable backend) use the
/// "front-door" key. Routing decisions are memoized by submit payload
/// bytes, so the cache-warm steady state skips the instance decode.
///
/// Request ids are door-assigned: the door maps its id to (backend,
/// backend id) at submit, routes get/try_get by the map, and drops the
/// entry once the report is claimed. kGetTelemetry merges every backend's
/// snapshot with the door's own (so client-side stats, derived from it,
/// sum all backends). A wire kShutdown fans out to every backend, then
/// stops the door.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace ssa::net {

/// One backend address (ServiceServer processes on this machine or
/// elsewhere; the demo and tests use loopback ports).
struct Endpoint {
  std::string host = kLoopbackHost;
  std::uint16_t port = 0;
};

struct FrontDoorOptions {
  /// Backend wire servers, in keyspace order: backend i owns the
  /// fingerprints with hi % backends.size() == i. The list must not be
  /// empty and its ORDER is the routing contract -- permuting it re-keys
  /// the split (caches go cold), exactly like changing a shard count.
  std::vector<Endpoint> backends;
  /// Loopback port to listen on; 0 picks an ephemeral port (port()).
  std::uint16_t port = 0;
};

/// Routing front door over N backend service processes. Thread-safe; the
/// destructor performs a full stop() (the backends keep running unless a
/// wire kShutdown reached them).
class FrontDoor {
 public:
  explicit FrontDoor(FrontDoorOptions options);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] std::size_t backend_count() const noexcept;

  /// Blocks until a wire kShutdown arrives or stop() is called.
  void wait();

  /// Stops the door: no new connections, backend channels closed (every
  /// in-flight forward fails fast -- a stalled backend cannot wedge the
  /// stop), event loop joined. Does NOT shut the backends down (only a
  /// wire kShutdown does).
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ssa::net
