// Wire-format coverage: round-trips for every SolveReport variant and both
// instance types, golden byte-layout pins (the format cannot drift without
// failing here and forcing a kWireVersion/kSnapshotVersion bump), and a
// truncation/bit-flip fuzz loop asserting decode never crashes, throws or
// returns a partially-built object. Runs under the sanitizer CI cells via
// the `net` ctest label.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/valuation.hpp"
#include "gen/scenario.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "service/result_cache.hpp"
#include "support/fingerprint.hpp"
#include "support/histogram.hpp"
#include "wire/codec.hpp"
#include "wire/instance_codec.hpp"
#include "wire/protocol.hpp"
#include "wire/telemetry_codec.hpp"

namespace ssa {
namespace {

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += digits[byte >> 4];
    out += digits[byte & 15];
  }
  return out;
}

std::string encode_report_bytes(const SolveReport& report) {
  wire::Writer writer;
  wire::write_report(writer, report);
  return writer.take();
}

/// Round-trips a report and requires bitwise payload identity INCLUDING
/// the timing fields (the codec itself is lossless; only the cross-process
/// guarantee excludes timings, because they re-measure).
void expect_roundtrip(const SolveReport& report) {
  const std::string bytes = encode_report_bytes(report);
  wire::Reader reader(bytes);
  const SolveReport decoded = wire::read_report(reader);
  ASSERT_FALSE(reader.failed());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(encode_report_bytes(decoded), bytes);
}

SolveReport lp_report() {
  SolveReport report;
  report.solver = "lp-rounding";
  report.params = "reps=16 lp=explicit";
  report.allocation.bundles = {1, 0, 3, 2};
  report.welfare = 7.25;
  report.feasible = true;
  report.guarantee = 1.5;
  report.factor = 8.0;
  report.lp_upper_bound = 9.75;
  report.wall_time_seconds = 0.125;
  report.solver_selected = "lp-rounding";
  FractionalSolution fractional;
  fractional.status = lp::SolveStatus::kOptimal;
  fractional.objective = 9.75;
  fractional.columns = {FractionalColumn{0, 1, 0.5},
                        FractionalColumn{2, 3, 0.25}};
  report.fractional = fractional;
  return report;
}

SolveReport mechanism_report() {
  SolveReport report;
  report.solver = "mechanism";
  report.params = "alpha=8";
  report.allocation.bundles = {1, 0};
  report.welfare = 3.0;
  report.feasible = true;
  report.factor = 8.0;
  report.solver_selected = "mechanism";
  MechanismOutcome outcome;
  outcome.vcg.optimum.status = lp::SolveStatus::kOptimal;
  outcome.vcg.optimum.objective = 4.0;
  outcome.vcg.optimum.columns = {FractionalColumn{0, 1, 1.0}};
  outcome.vcg.bidder_value = {3.0, 1.0};
  outcome.vcg.payments = {0.5, 0.0};
  outcome.decomposition.entries = {
      {Allocation{{1, 0}}, 0.75}, {Allocation{{0, 1}}, 0.25}};
  outcome.decomposition.alpha = 8.0;
  outcome.decomposition.residual = 1e-9;
  outcome.decomposition.rounds = 3;
  outcome.decomposition.columns_generated = 5;
  outcome.used_colgen = true;
  outcome.sampled_index = 1;
  outcome.allocation.bundles = {1, 0};
  outcome.payments = {0.25, 0.0};
  outcome.expected_payments = {0.0625, 0.0};
  report.mechanism = outcome;
  return report;
}

// ---------------------------------------------------------------- reports

TEST(WireReport, RoundTripsEveryVariant) {
  expect_roundtrip(SolveReport{});  // all defaults
  expect_roundtrip(lp_report());
  expect_roundtrip(mechanism_report());

  SolveReport error_only;  // failed run: error string, empty payloads
  error_only.solver = "exact";
  error_only.error = "exact: instance outside the solver domain";
  error_only.solver_selected = "exact";
  expect_roundtrip(error_only);

  SolveReport degraded = lp_report();  // admission-degraded, truncated
  degraded.admission = Admission::kDegraded;
  degraded.timed_out = true;
  expect_roundtrip(degraded);

  SolveReport rejected;  // never executed
  rejected.admission = Admission::kRejected;
  rejected.error = "auction-service: admission rejected: unmeetable";
  expect_roundtrip(rejected);

  SolveReport coalesced = lp_report();  // follower provenance
  coalesced.coalesced = true;
  coalesced.queue_wait_seconds = 0.5;
  expect_roundtrip(coalesced);

  SolveReport cached = mechanism_report();  // cache-hit provenance
  cached.cache_hit = true;
  expect_roundtrip(cached);
}

TEST(WireReport, PayloadEqualIgnoresOnlyTimings) {
  SolveReport a = lp_report();
  SolveReport b = a;
  b.wall_time_seconds = 99.0;
  b.queue_wait_seconds = 42.0;
  // The warm-start diagnostics are timing-class: a warm re-solve of the
  // same instance must compare payload-equal to the cold run it replays.
  b.warm_started = !a.warm_started;
  b.pivots = a.pivots + 17;
  // ...as are the v5 column-generation run-shape diagnostics: a pool-warm
  // colgen solve may converge in fewer oracle rounds with fewer generated
  // columns, yet must replay the cold payload bit for bit.
  b.oracle_rounds = a.oracle_rounds + 5;
  b.columns_generated = a.columns_generated + 12;
  EXPECT_TRUE(wire::reports_payload_equal(a, b));
  b.welfare = a.welfare + 1e-12;  // any payload bit differs -> unequal
  EXPECT_FALSE(wire::reports_payload_equal(a, b));
}

TEST(WireReport, RejectsOutOfRangeEnums) {
  // Admission byte beyond kRejected must fail the decode, not poison the
  // process (the byte offset is found by scanning, keeping the test
  // independent of the exact layout).
  const SolveReport report = lp_report();
  std::string bytes = encode_report_bytes(report);
  bool rejected_some = false;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(0xee);
    wire::Reader reader(mutated);
    (void)wire::read_report(reader);
    rejected_some = rejected_some || reader.failed();
  }
  EXPECT_TRUE(rejected_some);
}

// ---------------------------------------------------------------- options

TEST(WireOptions, RoundTripsNonDefaults) {
  SolveOptions options;
  options.seed = 0xfeedface;
  options.time_budget_seconds = 1.5;
  options.threads = 3;
  options.pipeline.rounding_repetitions = 128;
  options.pipeline.derandomize = true;
  options.pipeline.force_column_generation = true;
  options.pipeline.explicit_limit = 7;
  options.pipeline.time_budget_seconds = 0.75;
  options.exact.node_budget = 123456789;
  options.exact.max_channels = 5;
  options.mechanism.use_colgen = true;
  options.mechanism.explicit_limit = 9;
  options.mechanism.decomposition.alpha = 12.0;
  options.mechanism.decomposition.rounding_repetitions = 33;
  options.mechanism.decomposition.max_rounds = 44;
  options.mechanism.decomposition.use_exact_pricing = false;
  options.mechanism.sample_seed = 0xabcd;
  options.warm_start = false;

  wire::Writer writer;
  wire::write_options(writer, options);
  wire::Reader reader(writer.buffer());
  const SolveOptions decoded = wire::read_options(reader);
  ASSERT_FALSE(reader.failed());
  EXPECT_TRUE(reader.exhausted());

  wire::Writer rewritten;
  wire::write_options(rewritten, decoded);
  EXPECT_EQ(rewritten.buffer(), writer.buffer());
}

// -------------------------------------------------------------- instances

AuctionInstance tiny_symmetric() {
  const std::vector<std::pair<int, int>> edges = {{0, 1}};
  ConflictGraph graph = ConflictGraph::from_edges(2, edges);
  std::vector<ValuationPtr> valuations = {
      std::make_shared<AdditiveValuation>(std::vector<double>{1.0}),
      std::make_shared<AdditiveValuation>(std::vector<double>{2.0})};
  return AuctionInstance(std::move(graph), identity_ordering(2), 1,
                         std::move(valuations), 1.0);
}

/// Every concrete valuation class over 2 channels, one bidder each.
std::vector<ValuationPtr> one_of_each_valuation() {
  return {
      std::make_shared<ExplicitValuation>(
          2, std::vector<double>{0.0, 1.0, 2.0, 2.5}),
      std::make_shared<AdditiveValuation>(std::vector<double>{1.0, 2.0}),
      std::make_shared<UnitDemandValuation>(std::vector<double>{3.0, 1.0}),
      std::make_shared<SingleMindedValuation>(2, 0b11u, 4.0),
      std::make_shared<BudgetAdditiveValuation>(std::vector<double>{2.0, 2.0},
                                                3.0),
      std::make_shared<XorValuation>(
          2, std::vector<XorValuation::Atom>{{0b01u, 1.5}, {0b10u, 2.5}}),
      std::make_shared<CoverageValuation>(
          std::vector<double>{1.0, 2.0, 3.0},
          std::vector<std::vector<int>>{{0, 1}, {1, 2}}),
  };
}

std::string encode_instance_bytes(const AnyInstance& instance) {
  wire::Writer writer;
  wire::write_instance(writer, instance);
  return writer.take();
}

TEST(WireInstance, SymmetricRoundTripPreservesEverything) {
  std::vector<ValuationPtr> valuations = one_of_each_valuation();
  const std::size_t n = valuations.size();
  ConflictGraph graph(n);
  graph.add_edge(0, 1);
  graph.add_edge(2, 3);
  graph.set_weight(4, 5, 0.25);  // weighted pair
  graph.set_weight(5, 4, 0.75);
  const AuctionInstance original(std::move(graph),
                                 ordering_by_key(
                                     std::vector<double>{7, 6, 5, 4, 3, 2, 1},
                                     /*descending=*/false),
                                 2, std::move(valuations), 1.5);

  const std::string bytes = encode_instance_bytes(AnyInstance(original));
  wire::Reader reader(bytes);
  const wire::OwnedInstance decoded = wire::read_instance(reader);
  ASSERT_FALSE(reader.failed());
  ASSERT_TRUE(reader.exhausted());
  ASSERT_FALSE(decoded.empty());

  // Structure: fingerprint-identical (the cache/routing invariant), and
  // re-encoding reproduces the exact bytes (lossless codec).
  EXPECT_EQ(fingerprint(decoded.view()), fingerprint(AnyInstance(original)));
  EXPECT_EQ(encode_instance_bytes(decoded.view()), bytes);
  EXPECT_EQ(decoded.view().num_bidders(), original.num_bidders());
  EXPECT_EQ(decoded.view().num_channels(), original.num_channels());
  EXPECT_EQ(decoded.view().rho(), original.rho());
  EXPECT_EQ(decoded.view().unweighted(), original.unweighted());

  // Polymorphic reconstruction: the decoded valuations are the same
  // concrete classes (same closed-form demand/max_value code paths).
  const AuctionInstance& copy = decoded.view().symmetric();
  EXPECT_NE(dynamic_cast<const ExplicitValuation*>(&copy.valuation(0)),
            nullptr);
  EXPECT_NE(dynamic_cast<const AdditiveValuation*>(&copy.valuation(1)),
            nullptr);
  EXPECT_NE(dynamic_cast<const UnitDemandValuation*>(&copy.valuation(2)),
            nullptr);
  EXPECT_NE(dynamic_cast<const SingleMindedValuation*>(&copy.valuation(3)),
            nullptr);
  EXPECT_NE(dynamic_cast<const BudgetAdditiveValuation*>(&copy.valuation(4)),
            nullptr);
  EXPECT_NE(dynamic_cast<const XorValuation*>(&copy.valuation(5)), nullptr);
  EXPECT_NE(dynamic_cast<const CoverageValuation*>(&copy.valuation(6)),
            nullptr);
  for (std::size_t v = 0; v < original.num_bidders(); ++v) {
    for (Bundle t = 0; t < num_bundles(2); ++t) {
      EXPECT_EQ(copy.value(v, t), original.value(v, t));
    }
  }
}

TEST(WireInstance, AsymmetricRoundTripPreservesEverything) {
  const AsymmetricInstance original =
      gen::make_random_asymmetric(10, 3, 0.3, gen::ValuationMix::kMixed, 77);
  const std::string bytes = encode_instance_bytes(AnyInstance(original));
  wire::Reader reader(bytes);
  const wire::OwnedInstance decoded = wire::read_instance(reader);
  ASSERT_FALSE(reader.failed());
  ASSERT_FALSE(decoded.empty());
  EXPECT_EQ(fingerprint(decoded.view()), fingerprint(AnyInstance(original)));
  EXPECT_EQ(encode_instance_bytes(decoded.view()), bytes);
  EXPECT_EQ(decoded.view().rho(), original.rho());
}

TEST(WireInstance, UnknownSubclassFallsBackToExplicitTable) {
  class CustomValuation final : public Valuation {
   public:
    CustomValuation() : Valuation(2) {}
    double value(Bundle bundle) const override {
      return static_cast<double>(bundle_size(bundle)) * 1.25;
    }
  };
  ConflictGraph graph(1);
  std::vector<ValuationPtr> valuations = {std::make_shared<CustomValuation>()};
  const AuctionInstance original(std::move(graph), identity_ordering(1), 2,
                                 std::move(valuations), 1.0);
  const std::string bytes = encode_instance_bytes(AnyInstance(original));
  wire::Reader reader(bytes);
  const wire::OwnedInstance decoded = wire::read_instance(reader);
  ASSERT_FALSE(reader.failed());
  const AuctionInstance& copy = decoded.view().symmetric();
  EXPECT_NE(dynamic_cast<const ExplicitValuation*>(&copy.valuation(0)),
            nullptr);
  for (Bundle t = 0; t < num_bundles(2); ++t) {
    EXPECT_EQ(copy.value(0, t), original.value(0, t));
  }
  // Value-table hashing makes the fallback fingerprint-transparent.
  EXPECT_EQ(fingerprint(decoded.view()), fingerprint(AnyInstance(original)));
}

TEST(WireInstance, EncodeRejectsEmptyView) {
  wire::Writer writer;
  EXPECT_THROW(wire::write_instance(writer, AnyInstance()),
               std::invalid_argument);
}

// ----------------------------------------------------------------- frames

TEST(WireFrame, RoundTripAndHeaderChecks) {
  const std::string frame =
      wire::encode_frame(wire::MessageType::kGetTelemetry,
                         0xdeadbeefcafef00dull, "xy");
  // Body starts after the u32 length prefix. v3 body layout:
  // magic[0..3] version[4..5] type[6] request_id[7..14] payload[15..].
  const std::string body = frame.substr(4);
  const auto decoded = wire::decode_frame_body(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, wire::MessageType::kGetTelemetry);
  EXPECT_EQ(decoded->request_id, 0xdeadbeefcafef00dull);
  EXPECT_EQ(decoded->payload, "xy");

  std::string bad_magic = body;
  bad_magic[0] ^= 1;
  EXPECT_FALSE(wire::decode_frame_body(bad_magic).has_value());

  std::string bad_version = body;
  bad_version[4] ^= 1;
  EXPECT_FALSE(wire::decode_frame_body(bad_version).has_value());

  std::string bad_type = body;
  bad_type[6] = 99;
  EXPECT_FALSE(wire::decode_frame_body(bad_type).has_value());

  // A body that ends inside the request id is truncated, not id 0.
  EXPECT_FALSE(wire::decode_frame_body(body.substr(0, 10)).has_value());
}

TEST(WireFrame, RequestIdRoundTripsEveryValue) {
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 32,
        ~std::uint64_t{0}}) {
    const std::string frame =
        wire::encode_frame(wire::MessageType::kGet, id, "p");
    const auto decoded = wire::decode_frame_body(frame.substr(4));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->request_id, id);
    EXPECT_EQ(decoded->payload, "p");
  }
}

TEST(WireFrame, RejectsVersion2FramesStrictly) {
  // A v2 peer framed magic + version + type + payload, with NO request id.
  // Both disagreements -- the version word itself and the 8 missing
  // envelope bytes -- must reject cleanly; nothing may misparse the first
  // payload bytes as an id.
  wire::Writer v2_body;
  v2_body.u32(wire::kWireMagic);
  v2_body.u16(2);
  v2_body.u8(1);  // kSubmit
  v2_body.bytes("abc");
  EXPECT_FALSE(wire::decode_frame_body(v2_body.buffer()).has_value());

  // A current-shaped body whose version word was rewound to an older
  // version (2 .. 6) or bumped past the current one must also reject: the
  // check is equality, not >=.
  const std::string current =
      wire::encode_frame(wire::MessageType::kSubmit, 7, "abc").substr(4);
  for (const std::uint16_t version :
       {std::uint16_t{2}, std::uint16_t{3}, std::uint16_t{4},
        std::uint16_t{5}, std::uint16_t{6}, std::uint16_t{8}}) {
    std::string patched = current;
    patched[4] = static_cast<char>(version & 0xff);
    patched[5] = static_cast<char>(version >> 8);
    EXPECT_FALSE(wire::decode_frame_body(patched).has_value());
  }
}

TEST(WireFrame, EnvelopeBitFlipsNeverCrashAndNeverTouchThePayload) {
  // Deterministic xorshift so failures reproduce.
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string body =
      wire::encode_frame(wire::MessageType::kSubmit, 0x0102030405060708ull,
                         "payload-bytes")
          .substr(4);
  // magic+version+type+id+trace id+parent span id (v6 envelope)
  constexpr std::size_t kEnvelopeBytes = 31;
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = body;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % kEnvelopeBytes] ^= static_cast<char>(1u << (next() % 8));
    }
    // Never crashes, never throws. When the flips landed only in the
    // request id (the one mutable envelope field), the frame still
    // decodes -- with the payload untouched; any magic/version flip or
    // out-of-range type must reject.
    const auto decoded = wire::decode_frame_body(mutated);
    if (decoded.has_value()) {
      EXPECT_EQ(mutated.substr(0, 4), body.substr(0, 4));  // magic intact
      EXPECT_EQ(mutated.substr(4, 2), body.substr(4, 2));  // version intact
      EXPECT_EQ(decoded->payload, "payload-bytes");
    }
  }
}

// ------------------------------------------------------------ golden pins
// These hex strings ARE the byte layout. A mismatch means the wire format
// (and the snapshot format sharing the report codec) changed: bump
// wire::kWireVersion / ResultCache::kSnapshotVersion and re-pin.

TEST(WireGolden, FrameLayout) {
  // v7: u32 len | u32 magic "SSAW" | u16 version=7 | u8 type | u64 id |
  //     u64 trace id | u64 parent span id | payload
  EXPECT_EQ(to_hex(wire::encode_frame(wire::MessageType::kSubmit,
                                      0x0102030405060708ull, "abc")),
            "2200000053534157070001" "0807060504030201"
            "0000000000000000" "0000000000000000" "616263");
  // A traced frame stamps the context little-endian after the id.
  EXPECT_EQ(to_hex(wire::encode_frame(
                wire::MessageType::kSubmit, 0x0102030405060708ull, "abc",
                obs::SpanContext{0x1112131415161718ull,
                                 0x2122232425262728ull})),
            "2200000053534157070001" "0807060504030201"
            "1817161514131211" "2827262524232221" "616263");
}

TEST(WireGolden, DefaultOptionsLayout) {
  wire::Writer writer;
  wire::write_options(writer, SolveOptions{});
  EXPECT_EQ(to_hex(writer.buffer()),
            "010000000000000000000000000000000000000040000000000100000000000"
            "000000a000000000000000000000080f0fa020000000006000000000c000000"
            "0000000000000000600000002c01000001ed5e0000000000001ca10000000000"
            "0001");  // trailing 01 = v4 warm_start default (true)
}

TEST(WireGolden, ReportLayout) {
  SolveReport report;
  report.solver = "s";
  report.params = "p";
  report.allocation.bundles = {1, 0, 3};
  report.welfare = 2.5;
  report.feasible = true;
  report.guarantee = 1.25;
  report.factor = 2.0;
  report.lp_upper_bound = 3.5;
  report.timed_out = true;
  report.wall_time_seconds = 0.5;
  report.warm_started = true;
  report.pivots = 7;
  report.oracle_rounds = 3;
  report.columns_generated = 9;
  report.solver_selected = "s";
  report.cache_hit = true;
  report.queue_wait_seconds = 0.25;
  report.admission = Admission::kDegraded;
  report.coalesced = true;
  FractionalSolution fractional;
  fractional.status = lp::SolveStatus::kOptimal;
  fractional.objective = 3.5;
  fractional.columns = {FractionalColumn{0, 1, 0.5}};
  report.fractional = fractional;
  EXPECT_EQ(
      to_hex(encode_report_bytes(report)),
      "0100000000000000730100000000000000700300000000000000010000000000000003"
      "000000000000000000044001000000000000f43f000000000000004001000000000000"
      "0c400001000000000000e03f0107000000000000000300000009000000000000000000"
      "000001000000000000007301000000000000d03f010101000000000000000c40010000"
      "00000000000000000001000000000000000000e03f00");
}

TEST(WireGolden, SnapshotLayoutTwoEntriesLruFirst) {
  // The result-cache snapshot envelope (magic, kSnapshotVersion = 3, u64
  // count) around two entries written least-recently used first -- b,
  // then a after its lookup refreshed it. Recorded before ResultCache
  // moved onto the shared LruCache.
  service::ResultCache cache(1 << 20);
  SolveReport a;
  a.solver = "a";
  a.allocation.bundles = {1, 0};
  a.welfare = 1.5;
  SolveReport b;
  b.solver = "b";
  b.allocation.bundles = {2};
  b.welfare = 2.0;
  cache.insert(Fingerprint{1, 2}, a);
  cache.insert(Fingerprint{3, 4}, b);
  ASSERT_NE(cache.lookup(Fingerprint{1, 2}), nullptr);  // a is MRU now
  std::vector<service::SnapshotEntry> entries;
  service::append_snapshot_entries(cache, entries);
  std::ostringstream out;
  service::write_snapshot(out, entries);
  EXPECT_EQ(
      to_hex(out.str()),
      "5353415243534e50030000000200000000000000030000000000000004000000"
      "0000000001000000000000006200000000000000000100000000000000020000"
      "0000000000000000400000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000001000000000000000200000000"
      "0000000100000000000000610000000000000000020000000000000001000000"
      "00000000000000000000f83f0000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000");
}

TEST(WireGolden, InstanceLayoutAndFingerprint) {
  const AuctionInstance instance = tiny_symmetric();
  EXPECT_EQ(to_hex(encode_instance_bytes(AnyInstance(instance))),
            "010200000000000000020000000000000000000000010000000000000000"
            "00f03f0100000000000000000000000000f03f02000000000000000000000"
            "00100000001000000000000000000f03f020000000000000002010000000"
            "0000000000000000000f03f0201000000000000000000000000000040");
  // The codec is fingerprint-transparent; this pin also guards the hash
  // scheme from the wire side (tests/test_fingerprint.cpp pins it from
  // the cache side).
  EXPECT_EQ(fingerprint(AnyInstance(instance)).hex(),
            "15bd7e62da8a14bf17c6451df8923c19");
}

// -------------------------------------------------------------- telemetry

/// A small but fully-populated snapshot: every section non-empty so the
/// round-trip and truncation loops cover every decoder branch.
obs::TelemetrySnapshot tiny_snapshot() {
  obs::TelemetrySnapshot snapshot;
  snapshot.counters = {{"service.completed", 7}, {"service.submitted", 9}};
  snapshot.gauges = {{"scheduler.queue_depth", -3}};
  LatencyHistogram histogram;
  histogram.add(1e-3);
  histogram.add(2e-3);
  histogram.add(0.5);
  snapshot.histograms = {{"service.solve_seconds", histogram}};
  obs::SpanRecord span;
  span.trace_id = 0x11;
  span.span_id = 0x22;
  span.parent_span_id = 0x33;
  span.name = "door/submit";
  span.note = "backend=0";
  span.start_unix_seconds = 1.5;
  span.duration_seconds = 0.25;
  snapshot.spans = {span};
  return snapshot;
}

std::string encode_telemetry_bytes(const obs::TelemetrySnapshot& snapshot) {
  wire::Writer writer;
  wire::write_telemetry(writer, snapshot);
  return writer.take();
}

TEST(WireTelemetry, RoundTripsEverySection) {
  const obs::TelemetrySnapshot snapshot = tiny_snapshot();
  const std::string bytes = encode_telemetry_bytes(snapshot);
  const std::optional<obs::TelemetrySnapshot> decoded =
      wire::decode_telemetry(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->counters, snapshot.counters);
  EXPECT_EQ(decoded->gauges, snapshot.gauges);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].first, "service.solve_seconds");
  EXPECT_EQ(decoded->histograms[0].second, snapshot.histograms[0].second);
  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].trace_id, 0x11u);
  EXPECT_EQ(decoded->spans[0].span_id, 0x22u);
  EXPECT_EQ(decoded->spans[0].parent_span_id, 0x33u);
  EXPECT_EQ(decoded->spans[0].name, "door/submit");
  EXPECT_EQ(decoded->spans[0].note, "backend=0");
  EXPECT_EQ(decoded->spans[0].start_unix_seconds, 1.5);
  EXPECT_EQ(decoded->spans[0].duration_seconds, 0.25);
  // Canonical encoding: re-encoding the decoded snapshot is bit-identical.
  EXPECT_EQ(encode_telemetry_bytes(*decoded), bytes);
}

TEST(WireTelemetry, RejectsTrailingBytesAndEveryTruncation) {
  std::string bytes = encode_telemetry_bytes(tiny_snapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wire::decode_telemetry(bytes.substr(0, len)).has_value())
        << "prefix of length " << len << " decoded";
  }
  bytes.push_back('\0');
  EXPECT_FALSE(wire::decode_telemetry(bytes).has_value());
}

TEST(WireTelemetry, RejectsInconsistentHistogramCount) {
  // The histogram count field must equal its bucket sum; a mismatch is a
  // corrupt snapshot, not a quietly-wrong quantile source.
  obs::TelemetrySnapshot snapshot;
  LatencyHistogram histogram;
  histogram.add(1e-3);
  snapshot.histograms = {{"h", histogram}};
  std::string bytes = encode_telemetry_bytes(snapshot);
  // Locate the u64 count right after the name "h": sections are
  // counters(8) | gauges(8) | histo n(8) | name len(8)+1 | count(8).
  const std::size_t count_offset = 8 + 8 + 8 + 8 + 1;
  ASSERT_EQ(static_cast<unsigned char>(bytes[count_offset]), 1u);
  bytes[count_offset] = 2;  // count=2, bucket sum=1
  EXPECT_FALSE(wire::decode_telemetry(bytes).has_value());
}

TEST(WireFrame, CarriesSpanContextThroughEnvelope) {
  const obs::SpanContext context{0xAABBu, 0xCCDDu};
  const std::string frame =
      wire::encode_frame(wire::MessageType::kSubmit, 42, "p", context);
  const std::optional<wire::Frame> decoded =
      wire::decode_frame_body(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->context, context);
  EXPECT_EQ(decoded->payload, "p");
  // The two-argument form stays untraced.
  const std::optional<wire::Frame> untraced = wire::decode_frame_body(
      std::string_view(wire::encode_frame(wire::MessageType::kGet, 1, ""))
          .substr(4));
  ASSERT_TRUE(untraced.has_value());
  EXPECT_EQ(untraced->context, obs::SpanContext{});
  EXPECT_FALSE(untraced->context.traced());
}

// ------------------------------------------------------------------- fuzz

TEST(WireFuzz, TruncationNeverCrashesAnyDecoder) {
  const AuctionInstance instance = tiny_symmetric();
  const std::string submit =
      wire::encode_submit(AnyInstance(instance), "auto", SolveOptions{});
  for (std::size_t len = 0; len < submit.size(); ++len) {
    // Every strict prefix must decode to "malformed", never to a value.
    EXPECT_FALSE(wire::decode_submit(submit.substr(0, len)).has_value());
  }
  const std::string report_bytes = encode_report_bytes(mechanism_report());
  for (std::size_t len = 0; len < report_bytes.size(); ++len) {
    const std::string prefix = report_bytes.substr(0, len);
    wire::Reader reader(prefix);  // Reader views the buffer; keep it alive
    (void)wire::read_report(reader);
    EXPECT_TRUE(reader.failed());
  }
}

TEST(WireFuzz, BitFlipsNeverCrashOrLeak) {
  // Deterministic xorshift so failures reproduce.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const AuctionInstance instance = tiny_symmetric();
  const std::string submit =
      wire::encode_submit(AnyInstance(instance), "lp-rounding",
                          SolveOptions{});
  const std::string report_bytes = encode_report_bytes(lp_report());
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = (round % 2 == 0) ? submit : report_bytes;
    const int flips = 1 + static_cast<int>(next() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    if (round % 2 == 0) {
      // Either cleanly rejected or a fully-formed request -- never a
      // crash, never an exception, never a half-built instance.
      const auto decoded = wire::decode_submit(mutated);
      if (decoded) EXPECT_FALSE(decoded->instance.empty());
    } else {
      wire::Reader reader(mutated);
      (void)wire::read_report(reader);  // must not crash/throw (ASan/UBSan)
    }
  }
}

}  // namespace
}  // namespace ssa
