#include "service/result_cache.hpp"

#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <string>

#include "wire/codec.hpp"

namespace ssa::service {

std::size_t estimated_report_bytes(const SolveReport& report) {
  std::size_t bytes = sizeof(SolveReport);
  bytes += report.allocation.bundles.capacity() * sizeof(Bundle);
  bytes += report.solver.size() + report.params.size() + report.error.size() +
           report.solver_selected.size();
  if (report.fractional) {
    bytes += report.fractional->columns.capacity() * sizeof(FractionalColumn);
  }
  if (report.mechanism) {
    const MechanismOutcome& m = *report.mechanism;
    bytes += m.vcg.optimum.columns.capacity() * sizeof(FractionalColumn);
    bytes += (m.vcg.bidder_value.capacity() + m.vcg.payments.capacity() +
              m.payments.capacity() + m.expected_payments.capacity()) *
             sizeof(double);
    for (const DecompositionEntry& entry : m.decomposition.entries) {
      bytes += sizeof(DecompositionEntry) +
               entry.allocation.bundles.capacity() * sizeof(Bundle);
    }
  }
  return bytes;
}

// ---------------------------------------------------------------- snapshots
// The report byte layout itself lives in wire/codec.cpp now -- one codec
// shared by the snapshot files and the network wire protocol, so the two
// formats can never drift apart field by field. This file only owns the
// snapshot envelope (magic, kSnapshotVersion, entry list).

namespace {

/// First 8 bytes of every snapshot file.
constexpr char kSnapshotMagic[8] = {'S', 'S', 'A', 'R', 'C', 'S', 'N', 'P'};

}  // namespace

void append_snapshot_entries(const ResultCache& cache,
                             std::vector<SnapshotEntry>& entries) {
  cache.for_each_lru_first(
      [&](const Fingerprint& key, const SolveReport& report) {
        entries.push_back(SnapshotEntry{key, report});
      });
}

void write_snapshot(std::ostream& out,
                    const std::vector<SnapshotEntry>& entries) {
  wire::Writer writer;
  writer.bytes(std::string_view(kSnapshotMagic, sizeof kSnapshotMagic));
  writer.u32(ResultCache::kSnapshotVersion);
  writer.u64(entries.size());
  for (const SnapshotEntry& entry : entries) {
    writer.u64(entry.key.hi);
    writer.u64(entry.key.lo);
    wire::write_report(writer, entry.report);
  }
  const std::string& buffer = writer.buffer();
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

std::optional<std::vector<SnapshotEntry>> read_snapshot(std::istream& in) {
  // Fail fast on the envelope BEFORE loading anything: a wrong or
  // foreign file pointed at snapshot_path must cost a 12-byte read, not
  // a whole-file slurp into RAM.
  char header[sizeof kSnapshotMagic + sizeof(std::uint32_t)] = {};
  in.read(header, sizeof header);
  if (static_cast<std::size_t>(in.gcount()) != sizeof header ||
      std::memcmp(header, kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return std::nullopt;
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + sizeof kSnapshotMagic, sizeof version);
  if (version != ResultCache::kSnapshotVersion) return std::nullopt;
  // The envelope checks out: load the body and parse with the shared
  // bounds-checked reader. Any anomaly -- truncation, implausible sizes,
  // out-of-range enums (wire::read_report validates them), trailing
  // garbage -- is "no snapshot" and the caller cold-starts.
  const std::string data(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>{});
  wire::Reader reader(data);
  const std::uint64_t total = reader.count();
  if (reader.failed()) return std::nullopt;  // implausible entry count
  // No reserve(total): a corrupt entry count must not allocate ahead of
  // what the buffer actually holds (see wire::Reader::vec).
  std::vector<SnapshotEntry> entries;
  for (std::uint64_t i = 0; i < total; ++i) {
    SnapshotEntry entry;
    entry.key.hi = reader.u64();
    entry.key.lo = reader.u64();
    entry.report = wire::read_report(reader);
    if (reader.failed()) return std::nullopt;
    entries.push_back(std::move(entry));
  }
  if (!reader.exhausted()) return std::nullopt;  // trailing garbage
  return entries;
}

}  // namespace ssa::service
