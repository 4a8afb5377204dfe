#include "client/tcp_client.hpp"

#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"
#include "wire/telemetry_codec.hpp"

namespace ssa::client {

namespace {

using wire::ErrorKind;
using wire::MessageType;

/// Rethrows a server-reported error as the exception kind the in-process
/// call would have thrown.
[[noreturn]] void throw_wire_error(const std::string& payload) {
  const std::optional<wire::WireError> error = wire::decode_error(payload);
  if (!error) {
    throw std::runtime_error("tcp-client: malformed error frame");
  }
  if (error->kind == ErrorKind::kInvalidArgument) {
    throw std::invalid_argument(error->message);
  }
  throw std::runtime_error(error->message);
}

/// Response parsers, shared by the blocking and async paths so both
/// surface bit-identical results and exceptions.

RequestId parse_submit_ack(const wire::Frame& response) {
  if (response.type == MessageType::kError) {
    throw_wire_error(response.payload);
  }
  if (response.type != MessageType::kSubmitOk) {
    throw std::runtime_error("tcp-client: unexpected submit response");
  }
  wire::Reader reader(response.payload);
  const std::uint64_t id = reader.u64();
  if (reader.failed()) {
    throw std::runtime_error("tcp-client: malformed submit ack");
  }
  return id;
}

/// Parses a kReport answer; nullopt means "still queued/running" (only a
/// non-blocking get may produce it).
std::optional<SolveReport> parse_report(const wire::Frame& response) {
  if (response.type == MessageType::kError) {
    throw_wire_error(response.payload);
  }
  if (response.type != MessageType::kReport) {
    throw std::runtime_error("tcp-client: unexpected get response");
  }
  wire::Reader reader(response.payload);
  if (reader.u8() == 0) {
    if (reader.failed() || !reader.exhausted()) {
      throw std::runtime_error("tcp-client: malformed report payload");
    }
    return std::nullopt;
  }
  SolveReport report = wire::read_report(reader);
  if (reader.failed() || !reader.exhausted()) {
    throw std::runtime_error("tcp-client: malformed report payload");
  }
  return report;
}

std::string encode_get(RequestId id, bool blocking) {
  wire::Writer writer;
  writer.u64(id);
  writer.boolean(blocking);
  return writer.buffer();
}

/// Root span context of one client request: a fresh trace with the
/// client's root span id as the parent of whatever the serving side opens.
obs::SpanContext fresh_root_context() {
  return obs::SpanContext{obs::next_trace_id(), obs::next_span_id()};
}

}  // namespace

TcpClient::TcpClient(const std::string& host, std::uint16_t port)
    : mux_(host, port) {}

RequestId TcpClient::submit(const AnyInstance& instance,
                            const std::string& solver,
                            const SolveOptions& options) {
  // Encoding rejects empty views (std::invalid_argument) before any bytes
  // move, mirroring the in-process submit precondition.
  const std::string payload = wire::encode_submit(instance, solver, options);
  return parse_submit_ack(
      mux_.call_sync(MessageType::kSubmit, payload, fresh_root_context()));
}

std::future<RequestId> TcpClient::submit_async(const AnyInstance& instance,
                                               const std::string& solver,
                                               const SolveOptions& options) {
  const std::string payload = wire::encode_submit(instance, solver, options);
  auto promise = std::make_shared<std::promise<RequestId>>();
  std::future<RequestId> future = promise->get_future();
  mux_.call(MessageType::kSubmit, payload,
            [promise](std::optional<wire::Frame> response,
                      const std::string& error) {
              try {
                if (!response) throw std::runtime_error(error);
                promise->set_value(parse_submit_ack(*response));
              } catch (...) {
                promise->set_exception(std::current_exception());
              }
            },
            fresh_root_context());
  return future;
}

SolveReport TcpClient::get(RequestId id) {
  const std::optional<SolveReport> report =
      parse_report(mux_.call_sync(MessageType::kGet, encode_get(id, true)));
  if (!report) {
    throw std::runtime_error("tcp-client: blocking get returned no report");
  }
  return *report;
}

std::future<SolveReport> TcpClient::get_async(RequestId id) {
  auto promise = std::make_shared<std::promise<SolveReport>>();
  std::future<SolveReport> future = promise->get_future();
  mux_.call(MessageType::kGet, encode_get(id, true),
            [promise](std::optional<wire::Frame> response,
                      const std::string& error) {
              try {
                if (!response) throw std::runtime_error(error);
                std::optional<SolveReport> report = parse_report(*response);
                if (!report) {
                  throw std::runtime_error(
                      "tcp-client: blocking get returned no report");
                }
                promise->set_value(*std::move(report));
              } catch (...) {
                promise->set_exception(std::current_exception());
              }
            });
  return future;
}

std::optional<SolveReport> TcpClient::try_get(RequestId id) {
  return parse_report(mux_.call_sync(MessageType::kGet, encode_get(id, false)));
}

obs::TelemetrySnapshot TcpClient::telemetry() {
  const wire::Frame response = mux_.call_sync(MessageType::kGetTelemetry, {});
  if (response.type == MessageType::kError) {
    throw_wire_error(response.payload);
  }
  if (response.type != MessageType::kTelemetryOk) {
    throw std::runtime_error("tcp-client: unexpected telemetry response");
  }
  std::optional<obs::TelemetrySnapshot> snapshot =
      wire::decode_telemetry(response.payload);
  if (!snapshot) {
    throw std::runtime_error("tcp-client: malformed telemetry payload");
  }
  return *std::move(snapshot);
}

void TcpClient::shutdown() {
  const wire::Frame response = mux_.call_sync(MessageType::kShutdown, {});
  if (response.type == MessageType::kError) {
    throw_wire_error(response.payload);
  }
  if (response.type != MessageType::kShutdownOk) {
    throw std::runtime_error("tcp-client: unexpected shutdown response");
  }
}

}  // namespace ssa::client
