// Tests for the long-lived AuctionService (service/auction_service.hpp):
// cache-hit equivalence (a cached report equals a fresh one modulo
// provenance/timing fields, allocations bitwise-equal), determinism of
// results across 1/4/16 shards, selection-policy fallback chains when the
// primary solver rejects or times out, clean shutdown with in-flight
// requests, the request-claim lifecycle (get/try_get), request coalescing
// (N identical in-flight submissions -> one solve), deadline-aware
// admission (degrade/reject), and result-cache snapshot persistence
// (restart warm, corruption = cold start).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "gen/scenario.hpp"
#include "service/service.hpp"
#include "wire/codec.hpp"

namespace ssa {
namespace {

using service::AuctionService;
using service::kAutoSolver;
using service::RequestId;
using service::ServiceOptions;
using service::ServiceStats;

/// Test policy: the same fixed chain for every request.
class FixedChainPolicy final : public service::SelectionPolicy {
 public:
  explicit FixedChainPolicy(std::vector<std::string> chain)
      : chain_(std::move(chain)) {}
  std::string name() const override { return "fixed"; }
  std::vector<std::string> chain(const std::string&, const AnyInstance&,
                                 const SolveOptions&) const override {
    return chain_;
  }

 private:
  std::vector<std::string> chain_;
};

ServiceOptions single_shard() {
  ServiceOptions options;
  options.shards = 1;
  options.threads_per_shard = 1;
  return options;
}

/// A weighted asymmetric instance (k = 2): the Section 6 rounding rejects
/// it, so the auto policy must route it to the greedy baselines.
AsymmetricInstance weighted_asymmetric(std::size_t n) {
  std::vector<ConflictGraph> graphs;
  for (int channel = 0; channel < 2; ++channel) {
    ConflictGraph graph(n);
    for (std::size_t u = 0; u + 1 < n; ++u) {
      graph.set_weight(u, u + 1, 0.4);
      graph.set_weight(u + 1, u, 0.4);
    }
    graphs.push_back(std::move(graph));
  }
  std::vector<ValuationPtr> valuations;
  for (std::size_t v = 0; v < n; ++v) {
    valuations.push_back(std::make_shared<AdditiveValuation>(
        std::vector<double>{3.0 + static_cast<double>(v), 2.0}));
  }
  return AsymmetricInstance(std::move(graphs), identity_ordering(n),
                            std::move(valuations));
}

/// Support-preserving valuation churn: rescales every positive bundle
/// value of one bidder (zeros stay zero), so the structural fingerprint --
/// the basis-cache key -- is unchanged while the full fingerprint moves
/// and the result cache misses.
AuctionInstance rescale_bidder(const AuctionInstance& instance,
                               std::size_t v, double factor) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * factor;
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

TEST(AuctionService, ChurnStreamWarmStartsAfterTheFirstSolve) {
  // The E14 workload through the front door: same structure, rescaled
  // values. The first solve banks a basis; every later variant reuses it.
  // The control service runs the identical stream with the basis cache
  // disabled and must produce bitwise-identical payloads -- warm starting
  // is a latency lever, never a result change.
  AuctionService warm_service(single_shard());
  ServiceOptions control_config = single_shard();
  control_config.basis_cache_entries_per_shard = 0;
  AuctionService control_service(control_config);

  const AuctionInstance base =
      gen::make_disk_auction(16, 2, gen::ValuationMix::kMixed, 808);
  SolveOptions options;
  options.seed = 3;
  options.pipeline.rounding_repetitions = 8;

  constexpr int kVariants = 200;  // the E14-sized churn stream
  for (int i = 0; i < kVariants; ++i) {
    const AuctionInstance churned = rescale_bidder(
        base, static_cast<std::size_t>(i) % base.num_bidders(),
        1.0 + 0.03 * static_cast<double>(i + 1));
    const SolveReport warm =
        warm_service.get(warm_service.submit(churned, "lp-rounding", options));
    const SolveReport cold = control_service.get(
        control_service.submit(churned, "lp-rounding", options));
    ASSERT_TRUE(warm.error.empty()) << warm.error;
    EXPECT_FALSE(cold.warm_started);
    if (i == 0) {
      EXPECT_FALSE(warm.warm_started);  // nothing banked yet
    } else {
      EXPECT_TRUE(warm.warm_started) << "variant " << i;
    }
    EXPECT_TRUE(wire::reports_payload_equal(warm, cold)) << "variant " << i;
  }
  EXPECT_EQ(warm_service.stats().warm_starts,
            static_cast<std::uint64_t>(kVariants - 1));
  EXPECT_EQ(control_service.stats().warm_starts, 0u);
}

TEST(AuctionService, BasesStartColdAfterSnapshotRestore) {
  // The snapshot carries RESULTS only (service/result_cache.hpp): after a
  // restore the result cache is warm but the basis caches are empty, so
  // the first post-restore solve of a structure runs cold and re-banks.
  const std::string path = "test_service_basis_snapshot.bin";
  const AuctionInstance base =
      gen::make_disk_auction(14, 2, gen::ValuationMix::kMixed, 909);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;

  const AuctionInstance variant0 = rescale_bidder(base, 0, 1.1);
  const AuctionInstance variant1 = rescale_bidder(base, 1, 1.2);
  const AuctionInstance variant2 = rescale_bidder(base, 2, 1.3);
  const AuctionInstance variant3 = rescale_bidder(base, 3, 1.4);
  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService service(config);
    const SolveReport first =
        service.get(service.submit(variant0, "lp-rounding", options));
    EXPECT_FALSE(first.warm_started);
    const SolveReport second =
        service.get(service.submit(variant1, "lp-rounding", options));
    EXPECT_TRUE(second.warm_started);
    service.shutdown();  // writes the snapshot
  }

  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService restarted(config);
    EXPECT_GE(restarted.stats().snapshot_restored, 2u);
    // A new variant misses the (restored) result cache AND runs cold.
    const SolveReport after =
        restarted.get(restarted.submit(variant2, "lp-rounding", options));
    EXPECT_FALSE(after.cache_hit);
    EXPECT_FALSE(after.warm_started);
    // ...and that solve re-banked a basis for the structure.
    const SolveReport rewarmed =
        restarted.get(restarted.submit(variant3, "lp-rounding", options));
    EXPECT_TRUE(rewarmed.warm_started);
    EXPECT_EQ(restarted.stats().warm_starts, 1u);
  }  // the destructor's shutdown rewrites the snapshot; remove it last
  std::remove(path.c_str());
}

TEST(ServiceStats, DerivedFromTelemetrySnapshotCoversEveryField) {
  // stats_from is the one ServiceStats channel: every field must come
  // from its own registry instrument. Distinct values per field catch a
  // dropped or crossed field; the door.* entries must be ignored.
  obs::TelemetrySnapshot snapshot;
  snapshot.counters = {{"door.submits", 999},
                       {"service.admission_degraded", 5},
                       {"service.admission_rejected", 2},
                       {"service.cache_hits", 40},
                       {"service.coalesced", 7},
                       {"service.colgen_warm", 9},
                       {"service.completed", 95},
                       {"service.fallbacks", 3},
                       {"service.snapshot_restored", 11},
                       {"service.submitted", 101},
                       {"service.timed_out", 4},
                       {"service.warm_starts", 6}};
  snapshot.gauges = {{"service.basis_entries", 888},
                     {"service.cache_bytes", 4096},
                     {"service.cache_entries", 23}};
  const ServiceStats stats = service::stats_from(snapshot);
  EXPECT_EQ(stats.submitted, 101u);
  EXPECT_EQ(stats.completed, 95u);
  EXPECT_EQ(stats.cache_hits, 40u);
  EXPECT_EQ(stats.fallbacks, 3u);
  EXPECT_EQ(stats.coalesced, 7u);
  EXPECT_EQ(stats.admission_degraded, 5u);
  EXPECT_EQ(stats.admission_rejected, 2u);
  EXPECT_EQ(stats.timed_out, 4u);
  EXPECT_EQ(stats.warm_starts, 6u);
  EXPECT_EQ(stats.colgen_warm, 9u);
  EXPECT_EQ(stats.snapshot_restored, 11u);
  EXPECT_EQ(stats.cache_entries, 23u);
  EXPECT_EQ(stats.cache_bytes, 4096u);

  // An empty snapshot reads as all zeros.
  const ServiceStats empty = service::stats_from(obs::TelemetrySnapshot{});
  EXPECT_EQ(empty.submitted, 0u);
  EXPECT_EQ(empty.cache_bytes, 0u);
}

/// Weighs a string by its length: a byte budget with predictable sizes.
struct LengthWeigher {
  std::size_t operator()(const std::string& value) const {
    return value.size();
  }
};

TEST(LruCache, RecencyReplaceZeroCapacityAndBothWeighers) {
  const Fingerprint a{1, 1}, b{2, 2}, c{3, 3};

  // Count weigher (the basis and column-pool caches): an entry budget.
  service::BasisCache bases(2);
  const auto entry = [](std::uint32_t n) {
    service::BasisCacheEntry e;
    e.num_bidders = n;
    return e;
  };
  bases.insert(a, entry(1));
  bases.insert(b, entry(2));
  ASSERT_NE(bases.lookup(a), nullptr);  // refreshes a's recency
  bases.insert(c, entry(3));            // evicts b, the LRU entry
  EXPECT_EQ(bases.lookup(b), nullptr);
  ASSERT_NE(bases.lookup(a), nullptr);
  EXPECT_EQ(bases.lookup(a)->num_bidders, 1u);
  ASSERT_NE(bases.lookup(c), nullptr);
  EXPECT_EQ(bases.entries(), 2u);
  bases.insert(c, entry(4));  // same key: replace, no eviction
  EXPECT_EQ(bases.entries(), 2u);
  EXPECT_EQ(bases.lookup(c)->num_bidders, 4u);
  EXPECT_NE(bases.lookup(a), nullptr);

  // Zero capacity disables the cache.
  service::ColumnPoolCache pools(0);
  pools.insert(a, AsymmetricColumnPool{});
  EXPECT_EQ(pools.lookup(a), nullptr);
  EXPECT_EQ(pools.entries(), 0u);

  // Byte weigher: eviction runs until the summed weight fits, LRU first,
  // and the visitor walks least-recently used first.
  service::LruCache<std::string, LengthWeigher> bytes(10);
  bytes.insert(a, "aaaa");
  bytes.insert(b, "bbbb");
  EXPECT_EQ(bytes.weight(), 8u);
  ASSERT_NE(bytes.lookup(a), nullptr);  // b is now least recently used
  bytes.insert(c, "cc");                // 10 bytes: fits exactly
  EXPECT_EQ(bytes.entries(), 3u);
  bytes.insert(a, "aaaaaa");  // heavier replace: evicts b, keeps c
  EXPECT_EQ(bytes.lookup(b), nullptr);
  ASSERT_NE(bytes.lookup(a), nullptr);
  EXPECT_EQ(*bytes.lookup(a), "aaaaaa");
  EXPECT_EQ(bytes.weight(), 8u);
  std::vector<std::string> order;
  bytes.for_each_lru_first(
      [&](const Fingerprint&, const std::string& value) {
        order.push_back(value);
      });
  EXPECT_EQ(order, (std::vector<std::string>{"cc", "aaaaaa"}));
  bytes.insert(b, std::string(11, 'b'));  // heavier than the budget
  EXPECT_EQ(bytes.lookup(b), nullptr);
  EXPECT_EQ(bytes.entries(), 2u);
}

TEST(ResultCache, OversizedReplaceDropsOnlyTheStaleEntry) {
  // Replacing a key with a report heavier than the whole budget must act
  // like a fresh oversized insert: nothing cached for that key, every
  // other entry kept. (It used to evict the whole shard, then the report.)
  SolveReport small;
  small.solver = "small";
  const std::size_t small_bytes = service::estimated_report_bytes(small);
  service::ResultCache cache(3 * small_bytes);
  const Fingerprint a{1, 1}, b{2, 2};
  cache.insert(a, small);
  cache.insert(b, small);
  SolveReport huge = small;
  huge.allocation.bundles.assign(4 * small_bytes, 1);
  ASSERT_GT(service::estimated_report_bytes(huge), 3 * small_bytes);

  cache.insert(Fingerprint{9, 9}, huge);  // fresh oversized: rejected
  EXPECT_EQ(cache.entries(), 2u);
  cache.insert(a, huge);  // oversized replace: a goes, b stays
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.lookup(a), nullptr);
  EXPECT_NE(cache.lookup(b), nullptr);
  EXPECT_EQ(cache.weight(), small_bytes);
}

/// Support-preserving churn on the asymmetric family: rescale one
/// bidder's positive bundle values (zeros stay zero) so the structural
/// fingerprint -- the column-pool key -- is unchanged while the full
/// fingerprint moves and the result cache misses.
AsymmetricInstance rescale_asym_bidder(const AsymmetricInstance& instance,
                                       std::size_t v, double factor) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * factor;
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

TEST(AuctionService, AsymmetricChurnStreamWarmStartsTheColumnPool) {
  // The E15 workload through the service: a weighted asymmetric structure
  // under valuation churn, solved by asymmetric-colgen. The first solve
  // banks its generated columns; every later variant seeds its restricted
  // master from the pool. The control service runs the identical stream
  // with the column-pool cache disabled and must produce bitwise-identical
  // payloads -- pool reuse is a latency lever, never a result change.
  AuctionService warm_service(single_shard());
  ServiceOptions control_config = single_shard();
  control_config.column_pool_entries_per_shard = 0;
  AuctionService control_service(control_config);

  const AsymmetricInstance base = weighted_asymmetric(12);
  SolveOptions options;
  options.seed = 17;
  options.pipeline.rounding_repetitions = 8;

  constexpr int kVariants = 200;  // the E15-sized churn stream
  for (int i = 0; i < kVariants; ++i) {
    const AsymmetricInstance churned = rescale_asym_bidder(
        base, static_cast<std::size_t>(i) % base.num_bidders(),
        1.0 + 0.03 * static_cast<double>(i + 1));
    const SolveReport warm = warm_service.get(
        warm_service.submit(churned, "asymmetric-colgen", options));
    const SolveReport cold = control_service.get(
        control_service.submit(churned, "asymmetric-colgen", options));
    ASSERT_TRUE(warm.error.empty()) << warm.error;
    EXPECT_FALSE(cold.warm_started);
    EXPECT_GE(warm.oracle_rounds, 1u) << "variant " << i;
    if (i == 0) {
      EXPECT_FALSE(warm.warm_started);  // nothing banked yet
    } else {
      EXPECT_TRUE(warm.warm_started) << "variant " << i;
    }
    EXPECT_TRUE(wire::reports_payload_equal(warm, cold)) << "variant " << i;
  }
  EXPECT_EQ(warm_service.stats().colgen_warm,
            static_cast<std::uint64_t>(kVariants - 1));
  EXPECT_EQ(control_service.stats().colgen_warm, 0u);
}

TEST(AuctionService, ColumnPoolsStartColdAfterSnapshotRestore) {
  // The snapshot carries RESULTS only: after a restore the column-pool
  // caches are empty (like the basis caches), so the first post-restore
  // colgen solve of a structure runs cold and re-banks.
  const std::string path = "test_service_pool_snapshot.bin";
  const AsymmetricInstance base = weighted_asymmetric(10);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;

  const AsymmetricInstance variant0 = rescale_asym_bidder(base, 0, 1.1);
  const AsymmetricInstance variant1 = rescale_asym_bidder(base, 1, 1.2);
  const AsymmetricInstance variant2 = rescale_asym_bidder(base, 2, 1.3);
  const AsymmetricInstance variant3 = rescale_asym_bidder(base, 3, 1.4);
  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService service(config);
    const SolveReport first =
        service.get(service.submit(variant0, "asymmetric-colgen", options));
    EXPECT_FALSE(first.warm_started);
    const SolveReport second =
        service.get(service.submit(variant1, "asymmetric-colgen", options));
    EXPECT_TRUE(second.warm_started);
    EXPECT_EQ(service.stats().colgen_warm, 1u);
    service.shutdown();  // writes the snapshot
  }

  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService restarted(config);
    EXPECT_GE(restarted.stats().snapshot_restored, 2u);
    const SolveReport after =
        restarted.get(restarted.submit(variant2, "asymmetric-colgen", options));
    EXPECT_FALSE(after.cache_hit);
    EXPECT_FALSE(after.warm_started);
    const SolveReport rewarmed =
        restarted.get(restarted.submit(variant3, "asymmetric-colgen", options));
    EXPECT_TRUE(rewarmed.warm_started);
    EXPECT_EQ(restarted.stats().colgen_warm, 1u);
  }  // the destructor's shutdown rewrites the snapshot; remove it last
  std::remove(path.c_str());
}

TEST(AuctionService, CacheHitEquivalence) {
  AuctionService service(single_shard());
  const AuctionInstance instance =
      gen::make_disk_auction(16, 2, gen::ValuationMix::kMixed, 501);
  SolveOptions options;
  options.seed = 9;
  options.pipeline.rounding_repetitions = 16;

  const SolveReport fresh =
      service.get(service.submit(instance, "lp-rounding", options));
  ASSERT_TRUE(fresh.error.empty()) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);

  const SolveReport cached =
      service.get(service.submit(instance, "lp-rounding", options));
  EXPECT_TRUE(cached.cache_hit);
  // Bitwise-equal payload, fresh provenance: only cache_hit and the
  // queue-wait timing may differ.
  EXPECT_EQ(cached.allocation.bundles, fresh.allocation.bundles);
  EXPECT_EQ(cached.solver, fresh.solver);
  EXPECT_EQ(cached.solver_selected, fresh.solver_selected);
  EXPECT_EQ(cached.params, fresh.params);
  EXPECT_DOUBLE_EQ(cached.welfare, fresh.welfare);
  EXPECT_DOUBLE_EQ(cached.guarantee, fresh.guarantee);
  EXPECT_DOUBLE_EQ(cached.factor, fresh.factor);
  ASSERT_EQ(cached.lp_upper_bound.has_value(), fresh.lp_upper_bound.has_value());
  EXPECT_DOUBLE_EQ(*cached.lp_upper_bound, *fresh.lp_upper_bound);
  EXPECT_EQ(cached.feasible, fresh.feasible);
  EXPECT_EQ(cached.timed_out, fresh.timed_out);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_entries, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

TEST(AuctionService, DifferentOptionsOrSolverNeverHitTheSameEntry) {
  AuctionService service(single_shard());
  const AuctionInstance instance =
      gen::make_disk_auction(12, 2, gen::ValuationMix::kMixed, 502);
  SolveOptions options;
  options.seed = 1;
  (void)service.get(service.submit(instance, "lp-rounding", options));

  // Same instance, different seed: a different run, not a cache hit.
  SolveOptions reseeded = options;
  reseeded.seed = 2;
  EXPECT_FALSE(
      service.get(service.submit(instance, "lp-rounding", reseeded)).cache_hit);
  // Same instance and options, different solver: also distinct.
  EXPECT_FALSE(
      service.get(service.submit(instance, "greedy-value", options)).cache_hit);
  // The original request still hits.
  EXPECT_TRUE(
      service.get(service.submit(instance, "lp-rounding", options)).cache_hit);
}

TEST(AuctionService, DeterministicAcrossShardCounts) {
  // The same request stream through 1-, 4- and 16-shard services yields
  // identical reports (allocations, welfare, selected solvers): sharding
  // changes placement and latency, never results.
  const std::vector<gen::NamedInstance> suite =
      gen::mixed_scenario_suite(10, 2, 5100);
  SolveOptions options;
  options.seed = 2028;
  options.pipeline.rounding_repetitions = 12;

  std::vector<std::vector<SolveReport>> runs;
  for (const int shard_count : {1, 4, 16}) {
    ServiceOptions config;
    config.shards = shard_count;
    config.threads_per_shard = 1;
    AuctionService service(config);
    std::vector<RequestId> ids;
    for (int rotation = 0; rotation < 2; ++rotation) {
      for (const gen::NamedInstance& named : suite) {
        ids.push_back(service.submit(named.view(), kAutoSolver, options));
      }
    }
    std::vector<SolveReport> reports;
    for (const RequestId id : ids) reports.push_back(service.get(id));
    runs.push_back(std::move(reports));
  }

  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    for (std::size_t other : {1ul, 2ul}) {
      EXPECT_EQ(runs[0][i].allocation.bundles, runs[other][i].allocation.bundles)
          << "request " << i;
      EXPECT_DOUBLE_EQ(runs[0][i].welfare, runs[other][i].welfare);
      EXPECT_EQ(runs[0][i].solver_selected, runs[other][i].solver_selected);
      EXPECT_EQ(runs[0][i].error, runs[other][i].error);
    }
  }
}

TEST(AuctionService, AutoSelectionPicksByInstanceFeatures) {
  AuctionService service(single_shard());
  // Small symmetric -> exact; large symmetric -> lp-rounding.
  const AuctionInstance small_sym =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 601);
  const AuctionInstance large_sym =
      gen::make_disk_auction(24, 2, gen::ValuationMix::kMixed, 602);
  // Small asymmetric -> asymmetric-exact; weighted -> the decomposition
  // solver (the Section 6 rounding is unweighted-only and the policy
  // knows it; asymmetric-colgen admits weighted graphs, so it outranks
  // the greedy baselines there).
  const AsymmetricInstance small_asym =
      gen::make_random_asymmetric(10, 2, 0.3, gen::ValuationMix::kMixed, 603);
  const AsymmetricInstance weighted = weighted_asymmetric(20);

  EXPECT_EQ(service.get(service.submit(small_sym)).solver_selected, "exact");
  EXPECT_EQ(service.get(service.submit(large_sym)).solver_selected,
            "lp-rounding");
  EXPECT_EQ(service.get(service.submit(small_asym)).solver_selected,
            "asymmetric-exact");
  const SolveReport weighted_report = service.get(service.submit(weighted));
  EXPECT_EQ(weighted_report.solver_selected, "asymmetric-colgen");
  EXPECT_TRUE(weighted_report.error.empty()) << weighted_report.error;
  EXPECT_TRUE(weighted_report.feasible);
}

TEST(AuctionService, FallbackChainAdvancesOnError) {
  // local-ratio-k1 rejects k = 2, so the chain's second entry serves.
  ServiceOptions config = single_shard();
  config.policy = std::make_shared<FixedChainPolicy>(
      std::vector<std::string>{"local-ratio-k1", "greedy-value"});
  AuctionService service(config);
  const AuctionInstance instance =
      gen::make_disk_auction(12, 2, gen::ValuationMix::kMixed, 604);

  const SolveReport report = service.get(service.submit(instance));
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.solver, "greedy-value");
  EXPECT_EQ(report.solver_selected, "greedy-value");
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(service.stats().fallbacks, 1u);
}

TEST(AuctionService, FallbackChainAdvancesOnTimeout) {
  // A tiny budget truncates the exact search (timed_out); the greedy
  // fallback ignores the budget and finishes cleanly.
  ServiceOptions config = single_shard();
  config.policy = std::make_shared<FixedChainPolicy>(
      std::vector<std::string>{"exact", "greedy-value"});
  AuctionService service(config);
  const AuctionInstance instance =
      gen::make_disk_auction(40, 6, gen::ValuationMix::kMixed, 605);
  SolveOptions options;
  options.time_budget_seconds = 1e-7;

  const SolveReport report =
      service.get(service.submit(instance, kAutoSolver, options));
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(report.solver_selected, "greedy-value");
}

TEST(AuctionService, ExhaustedChainPrefersTruncatedOverError) {
  // A chain that only times out still returns the feasible truncated
  // report; a chain that only errors surfaces the primary failure in the
  // pinned "<solver-key>: <reason>" format.
  ServiceOptions timeout_config = single_shard();
  timeout_config.policy = std::make_shared<FixedChainPolicy>(
      std::vector<std::string>{"exact"});
  AuctionService timeout_service(timeout_config);
  const AuctionInstance big =
      gen::make_disk_auction(40, 6, gen::ValuationMix::kMixed, 606);
  SolveOptions tiny_budget;
  tiny_budget.time_budget_seconds = 1e-7;
  const SolveReport truncated =
      timeout_service.get(timeout_service.submit(big, kAutoSolver, tiny_budget));
  EXPECT_TRUE(truncated.error.empty()) << truncated.error;
  EXPECT_TRUE(truncated.timed_out);
  EXPECT_TRUE(truncated.feasible);
  EXPECT_EQ(truncated.solver_selected, "exact");

  AuctionService explicit_service(single_shard());
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(8, 2, 0.3, gen::ValuationMix::kMixed, 607);
  const SolveReport mismatch =
      explicit_service.get(explicit_service.submit(asymmetric, "lp-rounding"));
  EXPECT_EQ(mismatch.error,
            "lp-rounding: expected a symmetric AuctionInstance, got "
            "asymmetric instance");
  EXPECT_EQ(mismatch.solver_selected, "lp-rounding");
  EXPECT_FALSE(mismatch.feasible);
}

TEST(AuctionService, TimedOutAndErroredRunsAreNeverCached) {
  ServiceOptions config = single_shard();
  config.policy = std::make_shared<FixedChainPolicy>(
      std::vector<std::string>{"exact"});
  AuctionService service(config);
  const AuctionInstance big =
      gen::make_disk_auction(40, 6, gen::ValuationMix::kMixed, 608);
  SolveOptions tiny_budget;
  tiny_budget.time_budget_seconds = 1e-7;
  const SolveReport first =
      service.get(service.submit(big, kAutoSolver, tiny_budget));
  EXPECT_TRUE(first.timed_out);
  const SolveReport second =
      service.get(service.submit(big, kAutoSolver, tiny_budget));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

TEST(AuctionService, CleanShutdownCompletesInFlightRequests) {
  // Queue up more work than the workers can start, shut down immediately,
  // and verify every request still completes with a valid report.
  ServiceOptions config;
  config.shards = 2;
  config.threads_per_shard = 1;
  AuctionService service(config);
  const std::vector<gen::NamedInstance> suite =
      gen::mixed_scenario_suite(12, 2, 5200);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 24;

  std::vector<RequestId> ids;
  for (int rotation = 0; rotation < 4; ++rotation) {
    for (const gen::NamedInstance& named : suite) {
      ids.push_back(service.submit(named.view(), kAutoSolver, options));
    }
  }
  service.shutdown();  // drains the queues and joins the workers

  for (const RequestId id : ids) {
    const SolveReport report = service.get(id);
    EXPECT_TRUE(report.error.empty()) << report.error;
    EXPECT_TRUE(report.feasible);
  }
  EXPECT_EQ(service.stats().completed, ids.size());
  EXPECT_THROW((void)service.submit(suite[0].view()), std::runtime_error);
}

TEST(AuctionService, ThrowingPolicyCompletesWithErrorInsteadOfHanging) {
  // A user-installed policy that throws must not strand the request:
  // get(id) still returns, carrying the failure as a structured error.
  class ThrowingPolicy final : public service::SelectionPolicy {
   public:
    std::string name() const override { return "throwing"; }
    std::vector<std::string> chain(const std::string&, const AnyInstance&,
                                   const SolveOptions&) const override {
      throw std::runtime_error("policy exploded");
    }
  };
  ServiceOptions config = single_shard();
  config.policy = std::make_shared<ThrowingPolicy>();
  AuctionService service(config);
  const AuctionInstance instance =
      gen::make_disk_auction(6, 2, gen::ValuationMix::kMixed, 610);
  const SolveReport report = service.get(service.submit(instance));
  EXPECT_EQ(report.error, "auction-service: policy exploded");
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(AuctionService, CoalescingRunsOneSolveAndFansTheReportOut) {
  // Hold the leader inside the solve hook, pile up identical submissions,
  // then release: exactly one solver run must serve all of them.
  constexpr int kFollowers = 5;
  std::atomic<int> solve_count{0};
  auto leader_entered = std::make_shared<std::promise<void>>();
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> release_future(release->get_future());

  ServiceOptions config = single_shard();
  config.on_solve = [&, release_future](const Fingerprint&) {
    if (solve_count.fetch_add(1) == 0) leader_entered->set_value();
    release_future.wait();
  };
  AuctionService service(config);
  const AuctionInstance instance =
      gen::make_disk_auction(14, 2, gen::ValuationMix::kMixed, 701);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;

  const RequestId leader = service.submit(instance, "lp-rounding", options);
  leader_entered->get_future().wait();  // the leader is now mid-solve
  std::vector<RequestId> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.push_back(service.submit(instance, "lp-rounding", options));
  }
  release->set_value();

  const SolveReport lead_report = service.get(leader);
  ASSERT_TRUE(lead_report.error.empty()) << lead_report.error;
  EXPECT_FALSE(lead_report.cache_hit);
  EXPECT_FALSE(lead_report.coalesced);
  for (const RequestId id : followers) {
    const SolveReport fanned = service.get(id);
    // Bitwise the leader's payload; only the coalescing provenance and
    // the follower's own queue wait are fresh.
    EXPECT_TRUE(fanned.coalesced);
    EXPECT_FALSE(fanned.cache_hit);
    EXPECT_EQ(fanned.allocation.bundles, lead_report.allocation.bundles);
    EXPECT_EQ(fanned.solver_selected, lead_report.solver_selected);
    EXPECT_EQ(fanned.params, lead_report.params);
    EXPECT_DOUBLE_EQ(fanned.welfare, lead_report.welfare);
    EXPECT_DOUBLE_EQ(fanned.wall_time_seconds, lead_report.wall_time_seconds);
  }
  EXPECT_EQ(solve_count.load(), 1);  // the whole point of coalescing

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kFollowers) + 1);

  // After completion the leader's report is cached: the next identical
  // submission is a plain cache hit, not a coalesce.
  EXPECT_TRUE(
      service.get(service.submit(instance, "lp-rounding", options)).cache_hit);
  EXPECT_EQ(service.stats().coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(solve_count.load(), 1);
}

TEST(AuctionService, SnapshotRestartKeepsTheCacheWarmAcrossShardLayouts) {
  const std::string path = "test_service_snapshot.bin";
  const std::vector<gen::NamedInstance> suite =
      gen::mixed_scenario_suite(10, 2, 5300);
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;

  std::vector<SolveReport> fresh_reports;
  {
    ServiceOptions config;
    config.shards = 2;
    config.snapshot_path = path;
    AuctionService warm(config);
    std::vector<RequestId> ids;
    for (const gen::NamedInstance& named : suite) {
      ids.push_back(warm.submit(named.view(), kAutoSolver, options));
    }
    for (const RequestId id : ids) fresh_reports.push_back(warm.get(id));
    warm.shutdown();  // writes the snapshot
  }

  // Restart with a DIFFERENT shard count: entries must be re-routed by
  // the new layout and every replayed request must hit.
  ServiceOptions config;
  config.shards = 3;
  config.snapshot_path = path;
  AuctionService restarted(config);
  EXPECT_GE(restarted.stats().snapshot_restored, suite.size());
  // Restored warmth, clean baseline: the hit/miss counters start at zero
  // after a restore, so the post-restore hit rate measures THIS process
  // life's traffic only (the E11c bench asserts the same invariant).
  EXPECT_EQ(restarted.stats().cache_hits, 0u);
  EXPECT_EQ(restarted.stats().submitted, 0u);
  EXPECT_EQ(restarted.stats().completed, 0u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const SolveReport replay =
        restarted.get(restarted.submit(suite[i].view(), kAutoSolver, options));
    EXPECT_TRUE(replay.cache_hit) << suite[i].label;
    EXPECT_EQ(replay.allocation.bundles, fresh_reports[i].allocation.bundles);
    EXPECT_DOUBLE_EQ(replay.welfare, fresh_reports[i].welfare);
    EXPECT_EQ(replay.solver_selected, fresh_reports[i].solver_selected);
  }
  EXPECT_EQ(restarted.stats().cache_hits, suite.size());
  std::remove(path.c_str());
}

TEST(AuctionService, CorruptSnapshotsAreACleanColdStart) {
  const std::string path = "test_service_snapshot_corrupt.bin";
  const AuctionInstance instance =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 702);

  // Build one valid snapshot to mutilate.
  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService service(config);
    (void)service.get(service.submit(instance, "greedy-value"));
    service.shutdown();
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string snapshot((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(snapshot.size(), 16u);

  const auto cold_start_with = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.close();
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    // Caching off keeps the shutdown-time snapshot empty; shutdown still
    // rewrites the file with that valid empty snapshot, which is fine --
    // every case below writes its own contents first.
    config.cache_bytes_per_shard = 0;
    AuctionService service(config);
    EXPECT_EQ(service.stats().snapshot_restored, 0u);
    // The service still works; the snapshot was simply ignored.
    const SolveReport report =
        service.get(service.submit(instance, "greedy-value"));
    EXPECT_TRUE(report.error.empty()) << report.error;
  };

  cold_start_with(snapshot.substr(0, snapshot.size() / 2));  // truncated
  cold_start_with("not a snapshot at all");                  // garbage magic
  std::string version_bumped = snapshot;
  version_bumped[8] = static_cast<char>(version_bumped[8] + 1);  // version
  cold_start_with(version_bumped);
  std::string bad_count = snapshot;
  bad_count[15] = static_cast<char>(0x7f);  // implausible entry count
  cold_start_with(bad_count);
  std::string inflated_count = snapshot;
  // A large-but-plausible count (below the reader's sanity cap) with no
  // data behind it: must fail on the missing entries without ballooning
  // memory first, not crash with bad_alloc.
  inflated_count[14] = static_cast<char>(0x01);  // count |= 1 << 16
  cold_start_with(inflated_count);

  // A missing file is the everyday cold start.
  std::remove(path.c_str());
  {
    ServiceOptions config = single_shard();
    config.snapshot_path = path;
    AuctionService service(config);
    EXPECT_EQ(service.stats().snapshot_restored, 0u);
  }  // the destructor's shutdown recreates the file; clean it up last
  std::remove(path.c_str());
}

TEST(AuctionService, UnmeetableDeadlinesDegradeByDefault) {
  // Prime the cost estimate with one real solve, hold the worker, stack
  // the queue, then submit a hopeless 1ms budget: the default policy
  // degrades it -- it still completes, clamped, and is never cached.
  auto gate_on = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> release_future(release->get_future());
  auto blocked = std::make_shared<std::promise<void>>();
  std::atomic<bool> blocked_signalled{false};

  ServiceOptions config = single_shard();
  config.on_solve = [=, &blocked_signalled](const Fingerprint&) {
    if (gate_on->load()) {
      if (!blocked_signalled.exchange(true)) blocked->set_value();
      release_future.wait();
    }
  };
  AuctionService service(config);

  const AuctionInstance slow =
      gen::make_disk_auction(40, 2, gen::ValuationMix::kMixed, 703);
  SolveOptions slow_options;
  slow_options.pipeline.rounding_repetitions = 48;
  (void)service.get(service.submit(slow, "lp-rounding", slow_options));

  gate_on->store(true);
  SolveOptions variant = slow_options;
  variant.seed = 2;  // distinct fingerprints so nothing coalesces
  const RequestId holder = service.submit(slow, "lp-rounding", variant);
  blocked->get_future().wait();
  std::vector<RequestId> queued;
  for (std::uint64_t seed = 3; seed < 7; ++seed) {
    SolveOptions filler = slow_options;
    filler.seed = seed;
    queued.push_back(service.submit(slow, "lp-rounding", filler));
  }

  SolveOptions hopeless = slow_options;
  hopeless.seed = 99;
  hopeless.time_budget_seconds = 1e-4;
  const std::size_t cached_before = service.stats().cache_entries;
  const RequestId tight = service.submit(slow, kAutoSolver, hopeless);
  gate_on->store(false);
  release->set_value();

  const SolveReport report = service.get(tight);
  EXPECT_EQ(report.admission, Admission::kDegraded)
      << "verdict: " << to_string(report.admission);
  // Degraded = clamped budget: the budget-aware head truncates and the
  // chain still produces a feasible answer (greedy tail or truncated LP).
  EXPECT_TRUE(report.error.empty()) << report.error;
  (void)service.get(holder);
  for (const RequestId id : queued) (void)service.get(id);
  EXPECT_GE(service.stats().admission_degraded, 1u);
  // Degraded runs must not poison the cache (their payload depends on
  // queue timing): the entry count cannot have grown by this request.
  EXPECT_EQ(service.stats().cache_entries, cached_before + 5u);
}

TEST(AuctionService, RejectPolicyCompletesUnmeetableDeadlinesImmediately) {
  auto gate_on = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> release_future(release->get_future());
  auto blocked = std::make_shared<std::promise<void>>();
  std::atomic<bool> blocked_signalled{false};

  ServiceOptions config = single_shard();
  config.admission = AdmissionPolicy::kReject;
  config.on_solve = [=, &blocked_signalled](const Fingerprint&) {
    if (gate_on->load()) {
      if (!blocked_signalled.exchange(true)) blocked->set_value();
      release_future.wait();
    }
  };
  AuctionService service(config);

  const AuctionInstance slow =
      gen::make_disk_auction(40, 2, gen::ValuationMix::kMixed, 704);
  SolveOptions slow_options;
  slow_options.pipeline.rounding_repetitions = 48;
  (void)service.get(service.submit(slow, "lp-rounding", slow_options));

  gate_on->store(true);
  SolveOptions variant = slow_options;
  variant.seed = 2;
  const RequestId holder = service.submit(slow, "lp-rounding", variant);
  blocked->get_future().wait();
  std::vector<RequestId> queued;
  for (std::uint64_t seed = 3; seed < 7; ++seed) {
    SolveOptions filler = slow_options;
    filler.seed = seed;
    queued.push_back(service.submit(slow, "lp-rounding", filler));
  }

  SolveOptions hopeless = slow_options;
  hopeless.seed = 99;
  hopeless.time_budget_seconds = 1e-4;
  const RequestId rejected = service.submit(slow, kAutoSolver, hopeless);
  // Rejection is immediate: claimable before the queue moves at all.
  const auto polled = service.try_get(rejected);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->admission, Admission::kRejected)
      << "verdict: " << to_string(polled->admission);
  EXPECT_FALSE(polled->error.empty());
  EXPECT_NE(polled->error.find("auction-service:"), std::string::npos);
  EXPECT_NE(polled->error.find("admission rejected"), std::string::npos);
  EXPECT_FALSE(polled->feasible);

  gate_on->store(false);
  release->set_value();
  (void)service.get(holder);
  for (const RequestId id : queued) (void)service.get(id);
  EXPECT_EQ(service.stats().admission_rejected, 1u);
  // An unlimited-budget request is never rejected, whatever the queue.
  EXPECT_TRUE(
      service.get(service.submit(slow, "greedy-value")).error.empty());
}

TEST(AuctionService, RequestLifecycleClaimsAndErrors) {
  AuctionService service(single_shard());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 609);

  EXPECT_THROW((void)service.submit(AnyInstance()), std::invalid_argument);

  const RequestId id = service.submit(instance, "greedy-value");
  service.drain();
  const auto polled = service.try_get(id);
  ASSERT_TRUE(polled.has_value());
  EXPECT_TRUE(polled->error.empty());
  // A claim is final: the id is gone afterwards, for both accessors.
  EXPECT_THROW((void)service.try_get(id), std::invalid_argument);
  EXPECT_THROW((void)service.get(id), std::invalid_argument);
  // Unknown ids are rejected rather than blocking forever.
  EXPECT_THROW((void)service.get(id + 0x1000), std::invalid_argument);
}

}  // namespace
}  // namespace ssa
