#pragma once
/// \file protocol.hpp
/// The versioned binary wire protocol of the cross-process serving path:
/// the request/response vocabulary TcpClient speaks to a ServiceServer or
/// a FrontDoor (client/tcp_client.hpp, net/service_server.hpp,
/// net/front_door.hpp).
///
/// Framing: every message travels as one length-prefixed frame,
///
///     u32 body_length | body
///     body := u32 kWireMagic | u16 kWireVersion | u8 MessageType
///             | u64 request_id | u64 trace_id | u64 parent_span_id
///             | payload
///
/// body_length counts the body bytes only and is capped at kMaxFrameBytes;
/// scalars are little-endian (wire/codec.hpp). A peer that receives a
/// frame with the wrong magic, an unknown version, an oversized length or
/// a payload its parser rejects answers kError (when it can still write)
/// and closes the connection -- malformed bytes never crash a peer and
/// never leave a partially-applied request behind.
///
/// request_id is the multiplexing correlation id: a client stamps every
/// request frame with a connection-unique id and the server stamps the
/// matching response with the SAME id, so many requests may be in flight
/// on one connection and responses may return in ANY order. Ids are
/// opaque to the server (it never interprets them) and scoped to one
/// connection. A response whose id matches no in-flight request is a
/// protocol violation: the receiving client poisons the connection, which
/// also covers duplicated ids (the first response consumes the pending
/// entry, the second finds nothing). Error frames answering bytes whose
/// envelope could not be parsed carry id 0 -- the stream is untrustworthy
/// after a framing error, so precise correlation no longer matters.
///
/// trace_id/parent_span_id are the v6 obs::SpanContext (obs/span.hpp):
/// which request tree this frame belongs to and the sender's span id, so
/// every hop can open a causally-linked child span. Both zero = untraced.
/// The context is observability-only: servers never branch on it, it
/// enters no cache key, and responses need not echo it (correlation is
/// the request id's job).
///
/// Versioning mirrors the snapshot discipline (ResultCache::
/// kSnapshotVersion): kWireVersion covers the framing AND every payload
/// codec it carries (codec.hpp, instance_codec.hpp) -- bump it on any
/// layout change so old peers reject new bytes cleanly instead of
/// misparsing them. tests/test_wire.cpp pins golden frame bytes.
///
/// Message flows (client drives; one request frame, one response frame):
///     kSubmit        -> kSubmitOk | kError
///     kGet           -> kReport   | kError     (blocking when asked)
///     kShutdown      -> kShutdownOk | kError
///     kGetTelemetry  -> kTelemetryOk | kError   (ServiceStats derive from
///                                                it: service::stats_from)
/// Errors carry a kind so the client can rethrow the same exception type
/// the in-process AuctionService would have thrown, and a message pinned
/// to the library-wide "<solver-key>: <reason>" format whenever it
/// originates from a solver layer (protocol-level failures use the
/// "front-door"/"service-server" keys).

#include <cstdint>
#include <optional>
#include <string>

#include "api/solver.hpp"
#include "obs/span.hpp"
#include "wire/codec.hpp"
#include "wire/instance_codec.hpp"

namespace ssa::wire {

/// First body field of every frame ("SSAW", little-endian).
inline constexpr std::uint32_t kWireMagic = 0x57415353u;

/// Protocol schema version; see the file comment for when to bump.
/// History: 2 added ServiceStats::timed_out to the stats codec; 3 added
/// the u64 request_id to the frame envelope (request multiplexing); 4
/// added SolveOptions::warm_start, SolveReport::warm_started/pivots and
/// ServiceStats::warm_starts (warm-start observability); 5 added
/// SolveReport::oracle_rounds/columns_generated and
/// ServiceStats::colgen_warm (column-generation observability); 6 added
/// the obs::SpanContext (trace_id + parent_span_id) to the frame envelope
/// and the kGetTelemetry/kTelemetryOk registry-export flow; 7 removed the
/// stats request/response pair and the ServiceStats codec (stats derive
/// from the telemetry snapshot).
inline constexpr std::uint16_t kWireVersion = 7;

/// Upper bound on one frame's body (64 MiB): far above any real request
/// or report, small enough that a corrupt length cannot drive a huge
/// allocation on a peer.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class MessageType : std::uint8_t {
  kSubmit = 1,        ///< str solver | SolveOptions | instance
  kSubmitOk = 2,      ///< u64 request id
  kGet = 3,           ///< u64 request id | u8 blocking
  kReport = 4,        ///< u8 ready | SolveReport (ready = 1 only)
  // 5 and 6 were the v6 stats request/response pair; peers answer kError.
  kShutdown = 7,      ///< (empty)
  kShutdownOk = 8,    ///< (empty)
  kError = 9,         ///< u8 ErrorKind | str message
  kGetTelemetry = 10, ///< (empty)
  kTelemetryOk = 11,  ///< TelemetrySnapshot (wire/telemetry_codec.hpp)
};

/// Which exception a kError maps back to on the client side, so the
/// remote API surface throws exactly like the in-process one.
enum class ErrorKind : std::uint8_t {
  kInvalidArgument = 1,  ///< std::invalid_argument (bad id, empty instance)
  kRuntime = 2,          ///< std::runtime_error (shut down, transport, ...)
};

/// A parsed frame body: its type, correlation id, trace context and the
/// payload bytes after the header.
struct Frame {
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  /// v6 trace coordinates ({0, 0} = untraced); see the file comment.
  obs::SpanContext context;
  std::string payload;
};

/// Encodes a complete frame (length prefix + header + payload) ready to
/// send. Throws std::invalid_argument when the payload would overflow
/// kMaxFrameBytes. The two-argument form sends an untraced frame
/// (context {0, 0}); responses always may, requests should carry the
/// caller's context when one exists.
[[nodiscard]] std::string encode_frame(MessageType type,
                                       std::uint64_t request_id,
                                       std::string_view payload,
                                       obs::SpanContext context = {});

/// Encodes a frame BODY only (header + payload, no length prefix) -- the
/// form recv_frame returns and the forwarding layers pass around.
[[nodiscard]] std::string encode_frame_body(MessageType type,
                                            std::uint64_t request_id,
                                            std::string_view payload,
                                            obs::SpanContext context = {});

/// Parses one frame BODY (the bytes after the length prefix): checks
/// magic, version and type range. nullopt on any anomaly.
[[nodiscard]] std::optional<Frame> decode_frame_body(std::string_view body);

/// Re-attaches the length prefix to a frame BODY (as returned by
/// TcpConnection::recv_frame), producing a sendable frame again -- the
/// forwarding path of the FrontDoor, which relays backend responses
/// verbatim without re-encoding them. Throws std::invalid_argument
/// beyond kMaxFrameBytes.
[[nodiscard]] std::string reframe_body(std::string_view body);

// -- payload builders/parsers (thin wrappers over the codecs) ---------------

struct SubmitRequest {
  std::string solver;
  SolveOptions options;
  OwnedInstance instance;  ///< decode side; encode takes a view
};

[[nodiscard]] std::string encode_submit(const AnyInstance& instance,
                                        const std::string& solver,
                                        const SolveOptions& options);
/// nullopt on malformed payload (including an instance a constructor
/// rejected).
[[nodiscard]] std::optional<SubmitRequest> decode_submit(
    std::string_view payload);

[[nodiscard]] std::string encode_error(ErrorKind kind,
                                       const std::string& message);
struct WireError {
  ErrorKind kind = ErrorKind::kRuntime;
  std::string message;
};
[[nodiscard]] std::optional<WireError> decode_error(std::string_view payload);

}  // namespace ssa::wire
