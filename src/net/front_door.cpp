#include "net/front_door.hpp"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/event_loop.hpp"
#include "net/mux_connection.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "support/fingerprint.hpp"
#include "wire/protocol.hpp"
#include "wire/telemetry_codec.hpp"

namespace ssa::net {

namespace {

using wire::ErrorKind;
using wire::MessageType;

/// Routing decisions memoized by the fingerprint of the raw submit
/// payload bytes: repeats of an identical submit (the cache-warm steady
/// state) skip the instance decode entirely. Equal payloads always map to
/// one backend, so the consistent-split contract holds; distinct payloads
/// of one instance (different options) still meet the same backend
/// through the full decode + instance-fingerprint path.
constexpr std::size_t kRouteCacheEntries = std::size_t{1} << 16;

std::string error_frame(std::uint64_t request_id, ErrorKind kind,
                        const std::string& message) {
  return wire::encode_frame(MessageType::kError, request_id,
                            wire::encode_error(kind, message));
}

}  // namespace

struct FrontDoor::Impl {
  /// Where a door-assigned request id lives.
  struct Route {
    std::size_t backend = 0;
    std::uint64_t remote_id = 0;
  };

  /// The single multiplexed connection to one backend, created on first
  /// use and recreated after poisoning (a backend restart costs one
  /// failed call, not a dead door). close() is terminal: the stop
  /// sequence must not race a handler into resurrecting a channel whose
  /// reader thread nobody would join.
  struct Channel {
    Endpoint endpoint;
    std::mutex mutex;
    std::shared_ptr<MuxConnection> mux;
    bool closed = false;

    [[nodiscard]] std::shared_ptr<MuxConnection> get() {
      const std::lock_guard<std::mutex> lock(mutex);
      if (closed) throw std::runtime_error("front door is stopping");
      if (!mux || mux->poisoned()) {
        mux = std::make_shared<MuxConnection>(endpoint.host, endpoint.port);
      }
      return mux;
    }

    void close() {
      std::shared_ptr<MuxConnection> victim;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        closed = true;
        victim = std::move(mux);
      }
      // Outside the lock: close() fires every pending continuation and
      // joins the reader thread.
      if (victim) victim->close();
    }
  };

  explicit Impl(FrontDoorOptions options) {
    if (options.backends.empty()) {
      throw std::invalid_argument("FrontDoor: no backends configured");
    }
    channels.reserve(options.backends.size());
    for (Endpoint& endpoint : options.backends) {
      auto channel = std::make_unique<Channel>();
      channel->endpoint = std::move(endpoint);
      channels.push_back(std::move(channel));
    }
    EventLoopOptions loop_options;
    loop_options.error_key = "front-door";
    loop.emplace(TcpListener::bind_loopback(options.port),
                 [this](const EventConnectionPtr& connection,
                        wire::Frame frame) {
                   handle_frame(connection, std::move(frame));
                 },
                 std::move(loop_options));
  }

  void request_stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (stopping) return;
      stopping = true;
    }
    loop->shutdown_listener();
    stopped_cv.notify_all();
  }

  void stop() {
    request_stop();
    // Close the backend channels BEFORE the loop: every in-flight
    // continuation fires (with the poison reason), posts its door-keyed
    // error reply, and the loop's stop flush delivers what it can. A
    // stalled backend therefore cannot wedge the stop -- its calls fail
    // fast instead of being waited out.
    for (const std::unique_ptr<Channel>& channel : channels) {
      channel->close();
    }
    loop->stop();
  }

  [[nodiscard]] std::string backend_failure(std::size_t index,
                                            const std::string& what) const {
    const Endpoint& endpoint = channels[index]->endpoint;
    return "front-door: backend " + std::to_string(index) + " (" +
           endpoint.host + ":" + std::to_string(endpoint.port) +
           ") failed: " + what;
  }

  /// Continuation-style forward: sends (type, payload) to backend
  /// \p index over its multiplexed channel and invokes \p callback with
  /// the response -- or with a door-keyed failure message. The callback
  /// runs on the channel's reader thread (or inline on connect failure).
  /// \p context is stamped into the forwarded frame's v6 envelope: for
  /// submits it carries {trace, door span}, which is what makes backend
  /// spans children of the door span.
  void forward(std::size_t index, MessageType type, std::string_view payload,
               MuxConnection::Callback callback,
               obs::SpanContext context = {}) {
    std::shared_ptr<MuxConnection> mux;
    try {
      mux = channels[index]->get();
    } catch (const std::exception& e) {
      backend_failures.add();
      callback(std::nullopt, backend_failure(index, e.what()));
      return;
    }
    mux->call(type, payload,
              [this, index, callback = std::move(callback)](
                  std::optional<wire::Frame> response,
                  const std::string& error) mutable {
                if (!response) {
                  backend_failures.add();
                  callback(std::nullopt, backend_failure(index, error));
                } else {
                  callback(std::move(response), std::string());
                }
              },
              context);
  }

  void handle_submit(const EventConnectionPtr& connection,
                     const wire::Frame& frame) {
    submits.add();
    // Door span: opened here, recorded when the backend's submit ack (or
    // failure) comes back, so its duration is the forwarding round trip.
    // The forwarded envelope carries {trace, door span id}: the backend's
    // spans parent to this span, which is the causal link of the tree. A
    // client that sent no context gets a fresh trace minted at the door.
    obs::SpanContext inbound = frame.context;
    if (!inbound.traced()) {
      inbound = obs::SpanContext{obs::next_trace_id(), 0};
    }
    const std::uint64_t door_span_id = obs::next_span_id();
    const double span_start = obs::unix_now_seconds();
    // Route by instance fingerprint (key.hi mod backend count -- the same
    // consistent-split discipline the service shards use), memoized by
    // payload bytes so the warm path never re-decodes the instance.
    FingerprintHasher payload_hasher;
    payload_hasher.mix(std::string_view(frame.payload));
    const Fingerprint payload_key = payload_hasher.digest();
    std::optional<std::size_t> backend;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      const auto it = route_cache.find(payload_key);
      if (it != route_cache.end()) backend = it->second;
    }
    if (backend) route_cache_hits.add();
    if (!backend) {
      // Decode only to fingerprint: the forwarded bytes are the ORIGINAL
      // payload, so the backend decodes exactly what the client encoded.
      const std::optional<wire::SubmitRequest> request =
          wire::decode_submit(frame.payload);
      if (!request) {
        connection->send(error_frame(frame.request_id,
                                     ErrorKind::kInvalidArgument,
                                     "front-door: malformed submit payload"));
        return;
      }
      const Fingerprint key = fingerprint(request->instance.view());
      backend = static_cast<std::size_t>(
          key.hi % static_cast<std::uint64_t>(channels.size()));
      const std::lock_guard<std::mutex> lock(mutex);
      if (route_cache.size() >= kRouteCacheEntries) route_cache.clear();
      route_cache.emplace(payload_key, *backend);
    }
    const std::uint64_t client_id = frame.request_id;
    forward(
        *backend, MessageType::kSubmit, frame.payload,
        [this, connection, client_id, chosen = *backend, inbound,
         door_span_id, span_start](
            std::optional<wire::Frame> response, const std::string& error) {
          registry.spans().record(obs::SpanRecord{
              inbound.trace_id, door_span_id, inbound.parent_span_id,
              "door/submit",
              response ? "backend=" + std::to_string(chosen)
                       : "backend=" + std::to_string(chosen) + " failed",
              span_start, obs::unix_now_seconds() - span_start});
          if (!response) {
            connection->send(
                error_frame(client_id, ErrorKind::kRuntime, error));
            return;
          }
          if (response->type != MessageType::kSubmitOk) {
            // Backend-side error (shut down, rejected submit, ...):
            // payload verbatim under the client's envelope id.
            connection->send(wire::encode_frame(response->type, client_id,
                                                response->payload));
            return;
          }
          wire::Reader reader(response->payload);
          const std::uint64_t remote_id = reader.u64();
          if (reader.failed()) {
            connection->send(
                error_frame(client_id, ErrorKind::kRuntime,
                            "front-door: malformed backend submit ack"));
            return;
          }
          std::uint64_t door_id = 0;
          {
            const std::lock_guard<std::mutex> lock(mutex);
            door_id = next_id++;
            routes.emplace(door_id, Route{chosen, remote_id});
          }
          wire::Writer writer;
          writer.u64(door_id);
          connection->send(wire::encode_frame(MessageType::kSubmitOk,
                                              client_id, writer.buffer()));
        },
        obs::SpanContext{inbound.trace_id, door_span_id});
  }

  void handle_get(const EventConnectionPtr& connection,
                  const wire::Frame& frame) {
    gets.add();
    wire::Reader reader(frame.payload);
    const std::uint64_t door_id = reader.u64();
    const bool blocking = reader.boolean();
    if (reader.failed() || !reader.exhausted()) {
      connection->send(error_frame(frame.request_id,
                                   ErrorKind::kInvalidArgument,
                                   "front-door: malformed get payload"));
      return;
    }
    Route route;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      const auto it = routes.find(door_id);
      if (it == routes.end()) {
        // Match the in-process wording so client-visible behavior is
        // identical whichever side detects the bad id.
        connection->send(
            error_frame(frame.request_id, ErrorKind::kInvalidArgument,
                        "front-door: unknown or already-claimed request id"));
        return;
      }
      route = it->second;
    }
    wire::Writer writer;
    writer.u64(route.remote_id);
    writer.boolean(blocking);
    const std::uint64_t client_id = frame.request_id;
    forward(
        route.backend, MessageType::kGet, writer.buffer(),
        [this, connection, client_id, door_id](
            std::optional<wire::Frame> response, const std::string& error) {
          if (!response) {
            // Door-level transport failure: the route survives
            // (retryable).
            connection->send(
                error_frame(client_id, ErrorKind::kRuntime, error));
            return;
          }
          // The route is spent once the backend delivered the report
          // (claimed remotely) or rejected the id; it survives only a
          // "still pending" try_get answer.
          bool spent = false;
          if (response->type == MessageType::kReport) {
            wire::Reader report_reader(response->payload);
            spent = report_reader.u8() == 1;
          } else if (response->type == MessageType::kError) {
            const std::optional<wire::WireError> wire_error =
                wire::decode_error(response->payload);
            spent =
                wire_error && wire_error->kind == ErrorKind::kInvalidArgument;
          }
          if (spent) {
            const std::lock_guard<std::mutex> lock(mutex);
            routes.erase(door_id);
          }
          connection->send(wire::encode_frame(response->type, client_id,
                                              response->payload));  // verbatim
        });
  }

  void handle_telemetry(const EventConnectionPtr& connection,
                        std::uint64_t client_id) {
    telemetry_requests.add();
    // Concurrent fan-out with a counted aggregation: the reply goes out
    // when the LAST backend answered; the first failure wins verbatim. The
    // aggregation is the EXACT snapshot merge (obs/telemetry.hpp):
    // counters and gauges sum by name, histograms fold bucket-for-bucket,
    // spans concatenate. The door's own registry (door.* counters,
    // door/submit spans) merges in last, so one kGetTelemetry answers for
    // the whole deployment.
    struct Aggregation {
      std::mutex mutex;
      bool done = false;
      std::size_t remaining = 0;
      obs::TelemetrySnapshot total;
    };
    auto aggregation = std::make_shared<Aggregation>();
    aggregation->remaining = channels.size();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      forward(
          i, MessageType::kGetTelemetry, {},
          [this, connection, client_id, aggregation](
              std::optional<wire::Frame> response, const std::string& error) {
            const std::lock_guard<std::mutex> lock(aggregation->mutex);
            if (aggregation->done) return;
            if (!response) {
              aggregation->done = true;
              connection->send(
                  error_frame(client_id, ErrorKind::kRuntime, error));
              return;
            }
            if (response->type != MessageType::kTelemetryOk) {
              aggregation->done = true;
              connection->send(wire::encode_frame(response->type, client_id,
                                                  response->payload));
              return;
            }
            const std::optional<obs::TelemetrySnapshot> snapshot =
                wire::decode_telemetry(response->payload);
            if (!snapshot) {
              aggregation->done = true;
              connection->send(
                  error_frame(client_id, ErrorKind::kRuntime,
                              "front-door: malformed backend telemetry"));
              return;
            }
            obs::merge(aggregation->total, *snapshot);
            if (--aggregation->remaining == 0) {
              aggregation->done = true;
              obs::merge(aggregation->total, registry.snapshot());
              wire::Writer writer;
              wire::write_telemetry(writer, aggregation->total);
              connection->send(wire::encode_frame(MessageType::kTelemetryOk,
                                                  client_id,
                                                  writer.buffer()));
            }
          });
    }
  }

  void handle_shutdown(const EventConnectionPtr& connection,
                       std::uint64_t client_id) {
    // Fan out to every backend; ack the client only when ALL answered, so
    // a client that saw the ack knows every backend drained and
    // snapshotted. A backend that is already gone counts as shut down.
    struct Countdown {
      std::mutex mutex;
      std::size_t remaining = 0;
    };
    auto countdown = std::make_shared<Countdown>();
    countdown->remaining = channels.size();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      forward(i, MessageType::kShutdown, {},
              [this, connection, client_id, countdown](
                  std::optional<wire::Frame>, const std::string&) {
                bool last = false;
                {
                  const std::lock_guard<std::mutex> lock(countdown->mutex);
                  last = --countdown->remaining == 0;
                }
                if (!last) return;
                connection->send(wire::encode_frame(MessageType::kShutdownOk,
                                                    client_id, {}));
                connection->close_after_flush();
                request_stop();
              });
    }
  }

  void handle_frame(const EventConnectionPtr& connection, wire::Frame frame) {
    switch (frame.type) {
      case MessageType::kSubmit:
        handle_submit(connection, frame);
        break;
      case MessageType::kGet:
        handle_get(connection, frame);
        break;
      case MessageType::kGetTelemetry:
        handle_telemetry(connection, frame.request_id);
        break;
      case MessageType::kShutdown:
        handle_shutdown(connection, frame.request_id);
        break;
      default:
        connection->send(error_frame(frame.request_id, ErrorKind::kRuntime,
                                     "front-door: unexpected message type"));
        break;
    }
  }

  std::vector<std::unique_ptr<Channel>> channels;

  /// The door's own registry: routing/forwarding metrics plus the
  /// door/submit spans. Merged into the deployment-wide snapshot by
  /// handle_telemetry, AFTER the backend snapshots -- merge order cannot
  /// change the totals (the exactness contract in obs/registry.hpp).
  obs::Registry registry;
  obs::Counter& submits = registry.counter("door.submits");
  obs::Counter& gets = registry.counter("door.gets");
  obs::Counter& route_cache_hits = registry.counter("door.route_cache_hits");
  obs::Counter& telemetry_requests =
      registry.counter("door.telemetry_requests");
  obs::Counter& backend_failures = registry.counter("door.backend_failures");

  std::mutex mutex;
  std::condition_variable stopped_cv;
  bool stopping = false;
  std::unordered_map<std::uint64_t, Route> routes;
  std::uint64_t next_id = 1;
  std::unordered_map<Fingerprint, std::size_t> route_cache;

  /// Last member: quiesced before the rest dies.
  std::optional<EventLoop> loop;
};

FrontDoor::FrontDoor(FrontDoorOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

FrontDoor::~FrontDoor() {
  if (impl_) impl_->stop();
}

std::uint16_t FrontDoor::port() const noexcept { return impl_->loop->port(); }

std::size_t FrontDoor::backend_count() const noexcept {
  return impl_->channels.size();
}

void FrontDoor::wait() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->stopped_cv.wait(lock, [this] { return impl_->stopping; });
}

void FrontDoor::stop() { impl_->stop(); }

}  // namespace ssa::net
