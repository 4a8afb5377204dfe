#include "net/service_server.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "wire/protocol.hpp"
#include "wire/telemetry_codec.hpp"

namespace ssa::net {

namespace {

using wire::ErrorKind;
using wire::MessageType;

std::string error_frame(std::uint64_t request_id, ErrorKind kind,
                        const std::string& message) {
  return wire::encode_frame(MessageType::kError, request_id,
                            wire::encode_error(kind, message));
}

}  // namespace

/// Fixed worker pool pulling decoded frames off the loop thread. The loop
/// must never block, and submit decoding (instance reconstruction) is the
/// expensive step of the backend path -- pumping it here keeps the loop
/// at wire speed and lets one connection's pipelined submits decode in
/// parallel. Frames may complete out of order across workers; responses
/// correlate by wire request id, which is the whole point of v3.
struct ServiceServer::Pump {
  struct Job {
    EventConnectionPtr connection;
    wire::Frame frame;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool stopping = false;
  std::vector<std::thread> workers;

  void start(int threads, ServiceServer* owner) {
    workers.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([owner, this] {
        for (;;) {
          Job job;
          {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [this] { return stopping || !jobs.empty(); });
            if (jobs.empty()) return;  // stopping and drained
            job = std::move(jobs.front());
            jobs.pop_front();
          }
          owner->process(job.connection, job.frame);
        }
      });
    }
  }

  void post(Job job) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (stopping) return;  // late frame during stop: the client is gone
      jobs.push_back(std::move(job));
    }
    cv.notify_one();
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    cv.notify_all();
    for (std::thread& worker : workers) {
      if (worker.joinable()) worker.join();
    }
  }
};

ServiceServer::ServiceServer(ServiceServerOptions options)
    : service_(std::move(options.service)), pump_(std::make_unique<Pump>()) {
  pump_->start(std::max(1, options.pump_threads), this);
  EventLoopOptions loop_options;
  loop_options.error_key = "service-server";
  loop_.emplace(TcpListener::bind_loopback(options.port),
                [this](const EventConnectionPtr& connection,
                       wire::Frame frame) {
                  handle_frame(connection, std::move(frame));
                },
                std::move(loop_options));
}

ServiceServer::~ServiceServer() { stop(); }

std::uint16_t ServiceServer::port() const noexcept { return loop_->port(); }

service::AuctionService& ServiceServer::service() noexcept { return service_; }

void ServiceServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_cv_.wait(lock, [this] { return stopping_; });
}

void ServiceServer::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Completes everything queued/in flight and writes the snapshot when
  // configured -- the remote analogue of an in-process shutdown(). Every
  // parked blocking-get watcher fires during this drain, so their
  // responses are queued before the shutdown ack that follows.
  service_.shutdown();
  loop_->shutdown_listener();
  stopped_cv_.notify_all();
}

void ServiceServer::stop() {
  request_stop();
  pump_->stop();
  loop_->stop();
}

void ServiceServer::handle_frame(const EventConnectionPtr& connection,
                                 wire::Frame frame) {
  // Loop thread: hand off immediately.
  pump_->post(Pump::Job{connection, std::move(frame)});
}

void ServiceServer::process_submit(const EventConnectionPtr& connection,
                                   const wire::Frame& frame) {
  const std::optional<wire::SubmitRequest> request =
      wire::decode_submit(frame.payload);
  if (!request) {
    connection->send(error_frame(frame.request_id, ErrorKind::kInvalidArgument,
                                 "service-server: malformed submit payload"));
    return;
  }
  try {
    // The envelope's span context rides into the service through the
    // runtime-only SolveOptions field (never serialized, never a cache
    // key): backend spans parent to the caller's span -- the door's
    // forwarding span, or the client's root span on a direct connection.
    SolveOptions options = request->options;
    options.span_context = frame.context;
    const service::RequestId id =
        service_.submit(request->instance.view(), request->solver, options);
    wire::Writer writer;
    writer.u64(id);
    connection->send(wire::encode_frame(MessageType::kSubmitOk,
                                        frame.request_id, writer.buffer()));
  } catch (const std::invalid_argument& e) {
    connection->send(
        error_frame(frame.request_id, ErrorKind::kInvalidArgument, e.what()));
  } catch (const std::exception& e) {
    connection->send(
        error_frame(frame.request_id, ErrorKind::kRuntime, e.what()));
  }
}

void ServiceServer::process_get(const EventConnectionPtr& connection,
                                const wire::Frame& frame) {
  wire::Reader reader(frame.payload);
  const std::uint64_t id = reader.u64();
  const bool blocking = reader.boolean();
  if (reader.failed() || !reader.exhausted()) {
    connection->send(error_frame(frame.request_id, ErrorKind::kInvalidArgument,
                                 "service-server: malformed get payload"));
    return;
  }
  const auto answer = [this, connection, wire_id = frame.request_id, id] {
    try {
      const std::optional<SolveReport> report = service_.try_get(id);
      wire::Writer writer;
      writer.u8(report.has_value() ? 1 : 0);
      if (report) wire::write_report(writer, *report);
      connection->send(
          wire::encode_frame(MessageType::kReport, wire_id, writer.buffer()));
    } catch (const std::invalid_argument& e) {
      connection->send(error_frame(wire_id, ErrorKind::kInvalidArgument,
                                   e.what()));
    } catch (const std::exception& e) {
      connection->send(error_frame(wire_id, ErrorKind::kRuntime, e.what()));
    }
  };
  if (blocking) {
    // No parked thread: the watcher fires when the id completes (inline
    // when it already did) and the response travels through the
    // thread-safe connection handle. A concurrent claim between the
    // watcher firing and try_get surfaces as the same invalid_argument
    // the in-process racer would see.
    service_.watch(id, answer);
  } else {
    answer();
  }
}

void ServiceServer::process(const EventConnectionPtr& connection,
                            wire::Frame& frame) {
  switch (frame.type) {
    case MessageType::kSubmit:
      process_submit(connection, frame);
      break;
    case MessageType::kGet:
      process_get(connection, frame);
      break;
    case MessageType::kGetTelemetry: {
      wire::Writer writer;
      wire::write_telemetry(writer, service_.telemetry());
      connection->send(wire::encode_frame(MessageType::kTelemetryOk,
                                          frame.request_id, writer.buffer()));
      break;
    }
    case MessageType::kShutdown: {
      // Ack AFTER the service drained: when the client sees the reply,
      // every previously submitted request has completed and the
      // snapshot (when configured) is on disk.
      request_stop();
      connection->send(
          wire::encode_frame(MessageType::kShutdownOk, frame.request_id, {}));
      connection->close_after_flush();
      break;
    }
    default:
      connection->send(error_frame(frame.request_id, ErrorKind::kRuntime,
                                   "service-server: unexpected message type"));
      break;
  }
}

}  // namespace ssa::net
