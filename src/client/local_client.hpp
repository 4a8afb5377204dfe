#pragma once
/// \file local_client.hpp
/// The in-process AuctionClient: a thin adapter over an owned (or shared)
/// AuctionService. Zero serialization, zero transport -- submit/get/
/// try_get forward directly, so this is byte-for-byte the PR-3/PR-4
/// service behavior behind the transport-agnostic interface, and the
/// reference implementation the cross-process paths are pinned against
/// (wire::reports_payload_equal on the same request stream).

#include <memory>
#include <utility>

#include "client/auction_client.hpp"

namespace ssa::client {

class LocalClient final : public AuctionClient {
 public:
  /// Owns a fresh AuctionService built from \p options.
  explicit LocalClient(service::ServiceOptions options = {})
      : service_(std::make_shared<service::AuctionService>(
            std::move(options))) {}

  /// Shares an existing service (several clients, one serving core).
  explicit LocalClient(std::shared_ptr<service::AuctionService> service)
      : service_(std::move(service)) {}

  [[nodiscard]] RequestId submit(const AnyInstance& instance,
                                 const std::string& solver = kAutoSolver,
                                 const SolveOptions& options = {}) override {
    return service_->submit(instance, solver, options);
  }

  [[nodiscard]] SolveReport get(RequestId id) override {
    return service_->get(id);
  }

  [[nodiscard]] std::optional<SolveReport> try_get(RequestId id) override {
    return service_->try_get(id);
  }

  [[nodiscard]] obs::TelemetrySnapshot telemetry() override {
    return service_->telemetry();
  }

  void shutdown() override { service_->shutdown(); }

  /// The wrapped service, for call sites that need the full surface
  /// (drain(), save_snapshot(), shards()).
  [[nodiscard]] service::AuctionService& service() noexcept {
    return *service_;
  }

 private:
  std::shared_ptr<service::AuctionService> service_;
};

}  // namespace ssa::client
