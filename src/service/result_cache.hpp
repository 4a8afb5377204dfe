#pragma once
/// \file result_cache.hpp
/// Per-shard LRU result cache of the AuctionService, keyed by the canonical
/// request fingerprint (instance content + solver request + options, see
/// support/fingerprint.hpp). Each shard owns one ResultCache guarded by the
/// shard's own mutex, so cache traffic never takes a service-global lock.
/// It is the shared LruCache (service/lru_cache.hpp) with a byte budget:
/// every stored SolveReport is costed with estimated_report_bytes and
/// least-recently-used entries are dropped until the shard is back under
/// budget.
///
/// Snapshot format (write_snapshot/read_snapshot): a versioned binary dump
/// of every cached (fingerprint, report) pair so a service restart resumes
/// with its prior hit rate. Layout: an 8-byte magic, a u32
/// kSnapshotVersion, a u64 entry count, then the entries least-recently
/// used first (replaying the file in order through insert() reproduces the
/// recency order). The per-report byte layout is the shared codec of
/// wire/codec.hpp -- the same bytes the network wire protocol ships -- so
/// the two formats cannot drift apart; this file owns only the snapshot
/// envelope. Readers treat ANY anomaly (wrong magic, other version,
/// truncation, implausible sizes) as "no snapshot" and return nullopt, so
/// a corrupt file costs a cold start, never a crash. Bump kSnapshotVersion
/// whenever the serialized SolveReport layout or the fingerprint scheme
/// changes (tests/test_fingerprint.cpp pins golden fingerprint values and
/// tests/test_wire.cpp pins golden report bytes, so silent drift of either
/// fails loudly).
///
/// The snapshot carries RESULTS only. Warm-start bases and column pools
/// (the per-shard hint caches of service/auction_service.hpp) are
/// deliberately excluded: a basis is a runtime hint tied to this build's
/// simplex internals, worthless if wrong and cheap to regenerate, so after
/// a restore the basis caches start cold and the first solve of each
/// structure re-banks one (tests/test_service.cpp pins that contract).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "api/solver.hpp"
#include "service/lru_cache.hpp"
#include "support/fingerprint.hpp"

namespace ssa::service {

/// Approximate heap footprint of a stored report (allocation, strings, LP
/// columns, mechanism payload). Used for the cache byte budget; exact
/// accounting is not required, consistent accounting is.
[[nodiscard]] std::size_t estimated_report_bytes(const SolveReport& report);

/// Weighs a report by estimated_report_bytes: the result cache's budget is
/// a byte budget.
struct ReportBytesWeigher {
  [[nodiscard]] std::size_t operator()(const SolveReport& report) const {
    return estimated_report_bytes(report);
  }
};

/// Single-shard LRU result cache (service/lru_cache.hpp); a byte budget of
/// 0 disables caching entirely. NOT thread-safe: the owning shard
/// serializes access (one mutex per shard, by design -- see the file
/// comment).
class ResultCache : public LruCache<SolveReport, ReportBytesWeigher> {
 public:
  /// Schema version of the snapshot files; see the file comment for when
  /// to bump it. History: 2 added SolveReport::warm_started/pivots to the
  /// shared report codec; 3 added SolveReport::oracle_rounds/
  /// columns_generated.
  static constexpr std::uint32_t kSnapshotVersion = 3;

  using LruCache::LruCache;
};

/// One (key, report) pair of a snapshot.
struct SnapshotEntry {
  Fingerprint key;
  SolveReport report;
};

/// Copies every entry of \p cache, least-recently used first (snapshot
/// order: replaying through insert() reproduces the recency), onto
/// \p entries. Callers snapshot under their own locks, then serialize the
/// copies with write_snapshot after releasing them -- the disk write must
/// never run inside a shard lock.
void append_snapshot_entries(const ResultCache& cache,
                             std::vector<SnapshotEntry>& entries);

/// Writes \p entries as one snapshot stream (see the format notes in the
/// file comment).
void write_snapshot(std::ostream& out,
                    const std::vector<SnapshotEntry>& entries);

/// Parses a snapshot stream. Returns nullopt -- never throws, never
/// returns a partial prefix -- on wrong magic, version mismatch,
/// truncation or any other corruption: the caller cold-starts.
[[nodiscard]] std::optional<std::vector<SnapshotEntry>> read_snapshot(
    std::istream& in);

}  // namespace ssa::service
