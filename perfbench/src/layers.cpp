#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "api/registry.hpp"
#include "client/local_client.hpp"
#include "client/tcp_client.hpp"
#include "core/auction_lp.hpp"
#include "core/rounding.hpp"
#include "support/fingerprint.hpp"
#include "wire/codec.hpp"
#include "wire/protocol.hpp"

#ifdef SSA_HAVE_OPENMP
#include <omp.h>
#endif

namespace perfbench {

using namespace ssa;

namespace {

/// The served-path tree, in print order, with each span's depth.
constexpr std::pair<const char*, int> kTree[] = {
    {"net.door", 0},
    {"net.backend", 1},
    {"wire.encode_submit", 2},
    {"wire.decode_submit", 2},
    {"service.local", 2},
    {"service.fingerprint", 3},
    {"service.structural_fingerprint", 3},
    {"api.solve", 3},
    {"core.lp", 4},
    {"core.rounding", 4},
    {"wire.report_codec", 2},
};

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Durations and self times (seconds) by span name, over the requests;
/// tree_self keeps only the spans inside a net.door span's tree.
struct SelfTimes {
  std::map<std::string, std::vector<double>> duration;
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, std::vector<double>> tree_self;
};

SelfTimes self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, double> child_seconds;
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    child_seconds[span.parent] += span.seconds();
    by_id[span.id] = &span;
  }
  const auto under_door = [&](const Span* span) {
    while (std::string(span->name) != "net.door") {
      if (span->parent == 0) return false;
      span = by_id.at(span->parent);
    }
    return true;
  };
  SelfTimes times;
  for (const Span& span : spans) {
    const double self = span.seconds() - child_seconds[span.id];
    times.duration[span.name].push_back(span.seconds());
    times.self[span.name].push_back(self);
    if (under_door(&span)) times.tree_self[span.name].push_back(self);
  }
  return times;
}

/// Per request, the share of its net.door time that the calls below
/// net.backend do not cover: door routing, the loopback hops and backend
/// queueing, which only the parents' self times hold. \p requests pairs
/// each request's net.door span id with its net.backend span id.
std::vector<double> uncovered_shares(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& requests) {
  std::map<std::uint64_t, double> child_seconds, seconds;
  for (const Span& span : spans) {
    child_seconds[span.parent] += span.seconds();
    seconds[span.id] = span.seconds();
  }
  std::vector<double> shares;
  for (const auto& [door, backend] : requests) {
    shares.push_back(1.0 - child_seconds[backend] / seconds.at(door));
  }
  return shares;
}

}  // namespace

ReplayResult replay_layers(const Workload& workload, const Topology& topology,
                           const std::vector<ReplayItem>& items) {
  // Service workers run each solve on one thread; so do the direct calls.
#ifdef SSA_HAVE_OPENMP
  omp_set_num_threads(1);
#endif
  ReplayResult result;
  SpanRecorder recorder;
  const std::string solver = workload.solver();
  const SolveOptions options = workload.options();

  client::TcpClient door(topology.door_port());
  std::vector<std::unique_ptr<client::TcpClient>> backends;
  for (std::size_t b = 0; b < Topology::kBackends; ++b) {
    backends.push_back(
        std::make_unique<client::TcpClient>(topology.backend_port(b)));
  }
  service::ServiceOptions local_options;
  local_options.shards = 2;
  local_options.threads_per_shard = 1;
  client::LocalClient local(local_options);

  // Pool workloads are served as cache hits: hand the in-process service
  // the same warmth the backends have.
  std::optional<gen::NamedInstance> scratch;
  for (std::size_t i = 0; i < workload.prewarm_count(); ++i) {
    (void)local.get(local.submit(workload.input(i, scratch), solver, options));
  }

  std::vector<double> submit_bytes, pivots, oracle_rounds, columns;
  std::vector<double> us_per_pivot;
  std::vector<double> service_self, pipeline_self;
  long long warm_pivots = 0, cold_twin_pivots = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> request_spans;
  std::map<std::size_t, WarmStartContext> chains;

  // One Solver::solve with the chain's warm-start export as its hint; the
  // fresh export replaces the chain's afterwards.
  const auto solve_in_chain = [&](const std::string& key,
                                  const AnyInstance& view,
                                  const std::optional<std::size_t>& chain,
                                  WarmStartContext& context) {
    SolveOptions warm = options;
    if (chain) {
      const WarmStartContext& previous = chains[*chain];
      if (previous.has_export) context.hint = &previous.exported;
      if (previous.has_pool_export) context.pool_hint = &previous.pool_exported;
      warm.warm_context = &context;
    }
    return make_solver(key)->solve(view, warm);
  };
  const auto keep_export = [&](const std::optional<std::size_t>& chain,
                               WarmStartContext& context) {
    if (!chain || (!context.has_export && !context.has_pool_export)) return;
    context.hint = nullptr;
    context.pool_hint = nullptr;
    chains[*chain] = std::move(context);
  };

  for (const ReplayItem& item : items) {
    for (const std::size_t donor : item.donors) {
      const AnyInstance view = workload.input(donor, scratch);
      const SolveReport served = door.get(door.submit(view, solver, options));
      (void)local.get(local.submit(view, solver, options));
      for (auto& backend : backends) {
        (void)backend->get(backend->submit(view, solver, options));
      }
      WarmStartContext context;
      (void)solve_in_chain(served.solver_selected, view, item.chain, context);
      keep_export(item.chain, context);
    }

    const AnyInstance view = workload.input(item.index, scratch);
    const std::uint64_t request = item.index;
    const std::size_t owner = owning_backend(view);
    client::TcpClient& backend = *backends[
        workload.cycles() ? owner : (owner + 1) % Topology::kBackends];

    // Door and direct backend calls alternate which goes first, so
    // neither always pays for a cold processor cache.
    SolveReport door_report, backend_report, local_report;
    const std::uint64_t door_span = recorder.reserve();
    const std::uint64_t backend_span = recorder.reserve();
    request_spans.emplace_back(door_span, backend_span);
    const auto door_call = [&] {
      recorder.record(door_span, "net.door", 0, request, [&] {
        door_report = door.get(door.submit(view, solver, options));
      });
    };
    const auto backend_call = [&] {
      recorder.record(backend_span, "net.backend", door_span, request, [&] {
        backend_report = backend.get(backend.submit(view, solver, options));
      });
    };
    if (result.requests % 2 == 0) {
      door_call();
      backend_call();
    } else {
      backend_call();
      door_call();
    }
    std::string bytes;
    recorder.record("wire.encode_submit", backend_span, request, [&] {
      bytes = wire::encode_submit(view, solver, options);
    });
    submit_bytes.push_back(static_cast<double>(bytes.size()));
    recorder.record("wire.decode_submit", backend_span, request,
                    [&] { (void)wire::decode_submit(bytes); });
    const std::uint64_t local_span = recorder.reserve();
    recorder.record(local_span, "service.local", backend_span, request, [&] {
      local_report = local.get(local.submit(view, solver, options));
    });
    const double local_seconds = recorder.last_seconds();
    recorder.record("service.local_hit", 0, request, [&] {
      (void)local.get(local.submit(view, solver, options));
    });
    recorder.record("service.fingerprint", local_span, request,
                    [&] { (void)fingerprint(view); });
    recorder.record("service.structural_fingerprint", local_span, request,
                    [&] { (void)structural_fingerprint(view); });
    recorder.record("wire.report_codec", backend_span, request, [&] {
      wire::Writer writer;
      wire::write_report(writer, door_report);
      wire::Reader reader(writer.buffer());
      (void)wire::read_report(reader);
    });
    if (!wire::reports_payload_equal(door_report, local_report) ||
        !wire::reports_payload_equal(backend_report, local_report)) {
      ++result.mismatches;
    }

    // The solve the service ran for this request (or, for a cache hit,
    // what it would cost): under service.local only when it really ran.
    const std::string& key = door_report.solver_selected;
    WarmStartContext context;
    SolveReport solved;
    const std::uint64_t api_span = recorder.reserve();
    recorder.record(api_span, "api.solve",
                    door_report.cache_hit ? 0 : local_span, request, [&] {
                      solved = solve_in_chain(key, view, item.chain, context);
                    });
    const double api_seconds = recorder.last_seconds();
    if (solved.warm_started) {
      warm_pivots += solved.pivots;
      cold_twin_pivots += make_solver(key)->solve(view, options).pivots;
    }
    if (key == "lp-rounding" && view.is_symmetric()) {
      const AuctionInstance& instance = view.symmetric();
      FractionalSolution fractional;
      LpWarmStart lp_warm;
      lp_warm.hint = context.hint;
      recorder.record("core.lp", api_span, request, [&] {
        fractional = solve_auction_lp(
            instance, {}, lp_warm.hint != nullptr ? &lp_warm : nullptr);
      });
      const double lp_seconds = recorder.last_seconds();
      recorder.record("core.rounding", api_span, request, [&] {
        (void)best_of_rounds(instance, fractional,
                             options.pipeline.rounding_repetitions,
                             options.seed);
      });
      const double rounding_seconds = recorder.last_seconds();
      if (fractional.pivots > 0) {
        us_per_pivot.push_back(1e6 * lp_seconds /
                               static_cast<double>(fractional.pivots));
      }
      pipeline_self.push_back(api_seconds - lp_seconds - rounding_seconds);
    }
    keep_export(item.chain, context);

    pivots.push_back(static_cast<double>(door_report.pivots));
    if (door_report.oracle_rounds > 0) {
      oracle_rounds.push_back(door_report.oracle_rounds);
      columns.push_back(door_report.columns_generated);
    }
    service_self.push_back(local_seconds -
                           (door_report.cache_hit ? 0.0 : api_seconds));
    ++result.requests;
  }

  const SelfTimes times = self_times(recorder.spans());
  const auto duration = [&](const char* name) {
    const auto it = times.duration.find(name);
    return it == times.duration.end() ? 0.0 : median_of(it->second);
  };
  const auto self = [&](const char* name) {
    const auto it = times.self.find(name);
    return it == times.self.end() ? 0.0 : median_of(it->second);
  };

  // The self-time table over the served-path tree.
  char line[160];
  result.table +=
      "  span                                 samples   median us    self us\n";
  double self_sum = 0.0;
  for (const auto& [name, depth] : kTree) {
    const auto all = times.self.find(name);
    if (all == times.self.end()) continue;
    // api.solve and below count only where they ran inside the request.
    const auto in_tree = times.tree_self.find(name);
    const bool counted = in_tree != times.tree_self.end();
    if (counted) self_sum += median_of(in_tree->second);
    std::snprintf(line, sizeof line, "  %*s%-*s %7zu %11.1f %10.1f%s\n",
                  2 * depth, "", 36 - 2 * depth, name, all->second.size(),
                  1e6 * duration(name), 1e6 * self(name),
                  counted ? "" : "  (outside the served path)");
    result.table += line;
  }
  const double request_seconds = duration("net.door");
  std::snprintf(line, sizeof line,
                "  request (net.door) median %.1f us = sum of median self "
                "times %.1f us + unexplained remainder %.1f us\n",
                1e6 * request_seconds, 1e6 * self_sum,
                1e6 * (request_seconds - self_sum));
  result.table += line;
  std::vector<double> uncovered =
      uncovered_shares(recorder.spans(), request_spans);
  std::sort(uncovered.begin(), uncovered.end());
  std::snprintf(line, sizeof line,
                "  share of net.door not covered by the calls below "
                "net.backend, per request: min %.3f, median %.3f, max %.3f\n",
                uncovered.front(), median_sorted(uncovered), uncovered.back());
  result.table += line;

  auto& m = result.metrics;
  m.emplace_back("net.door_rtt_us", 1e6 * duration("net.door"));
  m.emplace_back("net.backend_rtt_us", 1e6 * duration("net.backend"));
  m.emplace_back("net.door_self_us", 1e6 * self("net.door"));
  m.emplace_back("net.backend_self_us", 1e6 * self("net.backend"));
  m.emplace_back("wire.encode_submit_us", 1e6 * duration("wire.encode_submit"));
  m.emplace_back("wire.decode_submit_us", 1e6 * duration("wire.decode_submit"));
  m.emplace_back("wire.submit_bytes", median_of(submit_bytes));
  m.emplace_back("wire.report_codec_us", 1e6 * duration("wire.report_codec"));
  m.emplace_back("service.local_ms", 1e3 * duration("service.local"));
  m.emplace_back("service.local_hit_us", 1e6 * duration("service.local_hit"));
  m.emplace_back("service.fingerprint_us",
                 1e6 * duration("service.fingerprint"));
  m.emplace_back("service.structural_fingerprint_us",
                 1e6 * duration("service.structural_fingerprint"));
  m.emplace_back("api.solve_ms", 1e3 * duration("api.solve"));
  m.emplace_back("api.service_self_ms", 1e3 * median_of(service_self));
  m.emplace_back("core.lp_ms", 1e3 * duration("core.lp"));
  m.emplace_back("core.rounding_ms", 1e3 * duration("core.rounding"));
  m.emplace_back("core.pipeline_self_ms", 1e3 * median_of(pipeline_self));
  m.emplace_back("lp.pivots_per_solve", mean_of(pivots));
  m.emplace_back("lp.us_per_pivot", median_of(us_per_pivot));
  m.emplace_back("lp.warm_pivot_ratio",
                 warm_pivots == 0 && cold_twin_pivots == 0
                     ? 0.0
                     : static_cast<double>(cold_twin_pivots) /
                           static_cast<double>(std::max(1LL, warm_pivots)));
  m.emplace_back("lp.oracle_rounds", mean_of(oracle_rounds));
  m.emplace_back("lp.columns_generated", mean_of(columns));
  m.emplace_back("trace.unexplained_us", 1e6 * (request_seconds - self_sum));
  m.emplace_back("trace.uncovered_share", median_sorted(uncovered));

  result.spans = recorder.spans();
  return result;
}

}  // namespace perfbench
