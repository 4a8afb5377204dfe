#pragma once
/// \file layers.hpp
/// The traced replay: for a sample of a workload's requests, call each
/// layer's public entry points from outside, one after another, and
/// record a span around every call. Nothing inside the library is
/// instrumented. The spans of one request form the tree of its served
/// path:
///
///   net.door                      TcpClient -> door submit + get
///     net.backend                 TcpClient -> one backend submit + get
///       wire.encode_submit        encode_submit
///       wire.decode_submit        decode_submit
///       service.local             LocalClient submit + get
///         service.fingerprint     fingerprint
///         service.structural_fingerprint
///         api.solve               Solver::solve (only when the served
///           core.lp               solve_auction_lp   request solved)
///           core.rounding         best_of_rounds
///       wire.report_codec         write_report + read_report
///
/// Children are replayed one after another after their parent returns,
/// not inside its interval. A span's self time is its duration minus its
/// children's durations, so the self times of one request add up to its
/// net.door time by construction; a parent's self time is a difference of
/// separate calls and can be negative. The medians of the self times need
/// not add up, and the difference is reported as the unexplained
/// remainder (trace.unexplained_us). Latency that no wrapped call covers
/// -- door routing, the loopback hops, backend queueing -- is reported per
/// request as the share of net.door that the calls below net.backend do
/// not cover (trace.uncovered_share, the median over requests); being a
/// ratio of separate calls, it is negative for a request whose calls
/// below net.backend took longer than its door call. The direct backend
/// call goes to the backend that owns the input on warm_door (a cache
/// hit, as served) and to the other backend elsewhere, whose result cache
/// has not seen the input.

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "load.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One sampled request. \p donors are sent first (untimed) through every
/// path so structural warm-start caches hold the input's structure, as
/// they do in the served stream; \p chain groups samples that share one
/// structure, whose warm-start export feeds the next Solver::solve.
struct ReplayItem {
  std::size_t index = 0;
  std::vector<std::size_t> donors;
  std::optional<std::size_t> chain;
};

struct ReplayResult {
  std::vector<Span> spans;
  /// Per-layer metrics measured by the replay, (name, value).
  std::vector<std::pair<std::string, double>> metrics;
  /// Human-readable self-time table.
  std::string table;
  std::size_t requests = 0;
  /// Door or backend reports whose payload differed from the in-process
  /// LocalClient's.
  std::size_t mismatches = 0;
};

[[nodiscard]] ReplayResult replay_layers(const Workload& workload,
                                         const Topology& topology,
                                         const std::vector<ReplayItem>& items);

}  // namespace perfbench
