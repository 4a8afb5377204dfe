#pragma once
/// \file tcp_client.hpp
/// The remote AuctionClient: speaks the versioned wire protocol
/// (wire/protocol.hpp) over one TCP connection to a ServiceServer or a
/// FrontDoor -- the two are indistinguishable from here, which is the
/// point of the transport-agnostic API.
///
/// Concurrency model: one connection, MANY in-flight calls. Every call is
/// a pipelined request on the shared multiplexed connection
/// (net/mux_connection.hpp), correlated by the v3 wire request id, so a
/// blocking get() no longer serializes the other calls of this client --
/// submit/stats/try_get from other threads proceed concurrently on the
/// same stream, and the *_async variants let ONE thread keep a deep
/// window of requests in flight (the wire-path analogue of batch
/// submission). Thread-safe throughout.
///
/// Failure model: transport errors and protocol anomalies throw
/// std::runtime_error and poison the connection (every pending and later
/// call fails with the original reason -- reconnect by constructing a new
/// client); server-reported errors rethrow as the exception kind the
/// in-process call would have thrown, with the server's message
/// (solver-layer messages keep their "<solver-key>: <reason>" pin). For
/// the async variants both arrive through the returned future.

#include <cstdint>
#include <future>
#include <string>

#include "client/auction_client.hpp"
#include "net/mux_connection.hpp"
#include "net/socket.hpp"
#include "wire/protocol.hpp"

namespace ssa::client {

class TcpClient final : public AuctionClient {
 public:
  /// Connects immediately; throws std::runtime_error when nobody listens
  /// on \p host:\p port.
  TcpClient(const std::string& host, std::uint16_t port);

  /// Loopback convenience (the demo/test topology).
  explicit TcpClient(std::uint16_t port)
      : TcpClient(net::kLoopbackHost, port) {}

  /// Every submit mints a fresh root span context {trace id, root span id}
  /// and stamps it into the frame envelope: the door (or a directly
  /// connected backend) parents its spans under it, so one client request
  /// yields one causally-linked span tree retrievable via telemetry().
  [[nodiscard]] RequestId submit(const AnyInstance& instance,
                                 const std::string& solver = kAutoSolver,
                                 const SolveOptions& options = {}) override;
  [[nodiscard]] SolveReport get(RequestId id) override;
  [[nodiscard]] std::optional<SolveReport> try_get(RequestId id) override;
  [[nodiscard]] obs::TelemetrySnapshot telemetry() override;
  void shutdown() override;

  /// Pipelined submit: returns immediately with a future for the server's
  /// id. Encoding errors (empty instance view) still throw inline, before
  /// any bytes move; everything the blocking submit would THROW arrives
  /// through the future instead. Any number may be outstanding.
  [[nodiscard]] std::future<RequestId> submit_async(
      const AnyInstance& instance, const std::string& solver = kAutoSolver,
      const SolveOptions& options = {});

  /// Pipelined blocking-get: the future resolves when the server answers
  /// (the request completed server-side and was claimed). Exceptions
  /// mirror get(). Many gets may be in flight; the server answers each as
  /// its id completes, in any order.
  [[nodiscard]] std::future<SolveReport> get_async(RequestId id);

 private:
  net::MuxConnection mux_;
};

}  // namespace ssa::client
