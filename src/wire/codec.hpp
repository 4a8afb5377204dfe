#pragma once
/// \file codec.hpp
/// The binary serialization core shared by every byte format in the
/// library: the buffer-backed Writer/Reader pair plus the codecs for the
/// solving vocabulary (SolveOptions, SolveReport). The
/// result-cache snapshot files (service/result_cache.cpp) and the network
/// wire protocol (wire/protocol.hpp) are both built on these primitives,
/// so the versioning discipline -- magic + version up front, bounds-checked
/// reads, any anomaly = clean failure, golden byte-layout pins in
/// tests/test_wire.cpp -- is implemented once and inherited everywhere.
///
/// Layout rules (shared by snapshot and wire):
///  - scalars are little-endian, fixed width; doubles travel as their
///    IEEE-754 bit pattern, so a decoded report is bitwise the encoded one;
///  - strings and vectors are u64 length + elements;
///  - optional fields are a u8 presence flag + payload;
///  - every length is sanity-capped (kMaxCount) AND capped by the bytes
///    actually remaining in the buffer, so corrupt or hostile counts can
///    never drive a large speculative allocation or a long parse loop.
///
/// Compatibility policy: any layout change to a codec below MUST bump the
/// containing format's version (ResultCache::kSnapshotVersion for
/// snapshots, wire::kWireVersion for the protocol) -- old bytes are then
/// rejected cleanly instead of misparsed. tests/test_wire.cpp pins golden
/// hex dumps so silent drift fails loudly.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/solver.hpp"

namespace ssa::wire {

// The codecs memcpy scalars; the declared byte order is little-endian.
// Every deployment target of this library is little-endian; a big-endian
// port would add byte swaps here (one place), not in the codecs.
static_assert(std::endian::native == std::endian::little,
              "ssa::wire: scalar codecs assume a little-endian host");

/// Upper bound on any serialized count (entries, vector sizes, string
/// lengths). Far above anything a real payload holds; its only job is to
/// stop a corrupt length field from driving a huge allocation.
inline constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 26;

/// Scalar-by-scalar binary writer appending to an owned buffer.
class Writer {
 public:
  void u8(std::uint8_t value) { raw(&value, sizeof value); }
  void u16(std::uint16_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { raw(&value, sizeof value); }
  void boolean(bool value) { u8(value ? 1 : 0); }

  void str(std::string_view text) {
    u64(text.size());
    raw(text.data(), text.size());
  }

  /// Raw bytes with NO length prefix (magic tags, pre-encoded payloads).
  void bytes(std::string_view data) { raw(data.data(), data.size()); }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& values, Fn&& element) {
    u64(values.size());
    for (const T& value : values) element(value);
  }

  [[nodiscard]] const std::string& buffer() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void raw(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  std::string out_;
};

/// Bounds-checked reader over a caller-owned byte buffer: any short read
/// or implausible size latches failed() and every subsequent read returns
/// a zero value, so parsers run straight through and check once at the
/// end. Decoding never throws and never over-reads, whatever the bytes.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Latches the failure state from parser-level validation (a constructor
  /// rejected decoded data, an enum was out of range, ...).
  void fail() noexcept { failed_ = true; }

  /// Bytes not yet consumed (0 once failed).
  [[nodiscard]] std::size_t remaining() const noexcept {
    return failed_ ? 0 : data_.size() - pos_;
  }
  /// True when the buffer was consumed exactly (trailing garbage fails
  /// strict formats).
  [[nodiscard]] bool exhausted() const noexcept {
    return !failed_ && pos_ == data_.size();
  }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return scalar<double>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t size = count();
    std::string text(static_cast<std::size_t>(size), '\0');
    raw(text.data(), text.size());
    if (failed_) return {};
    return text;
  }

  /// Raw bytes with NO length prefix (magic tags).
  std::string bytes(std::size_t size) {
    std::string data(size, '\0');
    raw(data.data(), data.size());
    if (failed_) return {};
    return data;
  }

  /// A size field sanity-capped at kMaxCount AND at the bytes remaining
  /// (every element costs at least one byte, so a count beyond the buffer
  /// can only be corruption -- failing here keeps parse loops short).
  std::uint64_t count() {
    const std::uint64_t value = u64();
    if (value > kMaxCount || value > remaining()) failed_ = true;
    return failed_ ? 0 : value;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& element) {
    const std::uint64_t size = count();
    std::vector<T> values;
    // Deliberately no reserve(size): the count came off the buffer, and a
    // corrupt value below the caps could still drive a large speculative
    // allocation. Growing as elements actually parse bounds memory by the
    // real buffer length (a short read fails fast).
    for (std::uint64_t i = 0; i < size && !failed_; ++i) {
      values.push_back(element());
    }
    return values;
  }

 private:
  template <typename T>
  T scalar() {
    T value{};
    raw(&value, sizeof value);
    return failed_ ? T{} : value;
  }

  void raw(void* data, std::size_t size) {
    if (failed_) return;
    if (data_.size() - pos_ < size) {
      failed_ = true;
      return;
    }
    std::char_traits<char>::copy(static_cast<char*>(data),
                                 data_.data() + pos_, size);
    pos_ += size;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// -- solving-vocabulary codecs ----------------------------------------------
// Every read_* returns a value-initialized object once the reader failed;
// callers check reader.failed() after parsing (the latched-failure
// discipline). read_report validates decoded enums itself, so every
// consumer (snapshot restore, wire protocol) inherits the range checks.

/// Length-prefixed vector of doubles -- the one layout both the report
/// codec and the instance codec use for every double sequence.
void write_doubles(Writer& writer, const std::vector<double>& values);
[[nodiscard]] std::vector<double> read_doubles(Reader& reader);

/// Full SolveOptions, including the per-solver sections. The cooperative
/// ExactOptions::deadline is runtime state, not data -- deadlines travel
/// as time budgets and are re-armed by the executing process.
void write_options(Writer& writer, const SolveOptions& options);
[[nodiscard]] SolveOptions read_options(Reader& reader);

/// Full SolveReport: diagnostics, provenance (cache_hit/admission/
/// coalesced), and the optional LP/mechanism payloads, bit-for-bit.
void write_report(Writer& writer, const SolveReport& report);
[[nodiscard]] SolveReport read_report(Reader& reader);

/// Payload equality for reports: bitwise over every field except the
/// timing-class diagnostics (wall_time_seconds, queue_wait_seconds,
/// warm_started, pivots), which re-measure per run by design. This is the
/// invariant the cross-process serving path guarantees against an
/// in-process LocalClient run of the same request stream (see
/// client/auction_client.hpp) -- and the invariant the warm-start path
/// guarantees against a cold solve of the same instance.
[[nodiscard]] bool reports_payload_equal(const SolveReport& a,
                                         const SolveReport& b);

}  // namespace ssa::wire
