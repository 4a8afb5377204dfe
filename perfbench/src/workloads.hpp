#pragma once
/// \file workloads.hpp
/// The three request streams of the benchmark, each a pure function of
/// the seed. Set-up builds every expensive part of the inputs (scenario
/// pools, conflict graphs with their measured rho, churn bases); request i
/// is then assembled from those parts and per-request numbers derived
/// from (seed, i), just before it is sent and outside its latency timer,
/// so a stream of any length holds only the inputs in flight.
///
///  - warm_door:  a fixed pool of distinct mixed scenarios (24 bidders,
///                3 channels, all five load::ScenarioPool families),
///                solved once in set-up; clients cycle through the pool,
///                so every request is a result-cache hit. Runnable by hand
///                but not listed in BENCHMARK.json: on a shared virtual
///                machine its loopback ping-pong across ~15 threads moved
///                up to 2x between runs with the host's steal time, beyond
///                the largest bound the benchmark may set.
///  - cold_lp:    distinct n = 80, k = 4 disk auctions pinned to
///                "lp-rounding", each sent once: a fresh valuation
///                population (and so a fresh bundle support) over one of
///                16 disk geometries, so every request misses the result
///                cache, the door's route memo and the basis cache.
///  - churn_warm: support-preserving churn -- one bidder's values scaled
///                by a factor in [0.5, 2) -- over interleaved symmetric
///                disk bases (n = 60, k = 3; "auto" picks lp-rounding)
///                and asymmetric bases (n = 8, k = 13; "auto" picks
///                asymmetric-colgen), three symmetric requests to one
///                asymmetric. The asymmetric solves take about six times
///                as long (~2/3 of the served time); at one to one the
///                median latency fell in the gap between the two
///                latency modes and moved by half between runs. Every
///                request misses the result cache; repeated visits to a
///                base hit the structural warm-start caches once the
///                shard it lands on has seen the base. kChurnActive slots
///                are visited round-robin; each slot's bases follow one
///                another every kChurnVisits of its visits, at times
///                staggered across the slots (see churn_position), so the
///                cold first visits and the mix of bases stay the same
///                through a run.
///
/// The seed drives everything a request carries (valuation populations,
/// churn factors, the warm_door pool). The cold_lp geometries and the
/// churn_warm bases come from the fixed kStructureSeed instead: a run
/// visits only a few dozen of them, so drawing them per seed would make
/// run-to-run differences mostly a matter of which structures were drawn.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/any_instance.hpp"
#include "api/solver.hpp"
#include "gen/scenario.hpp"

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"warm_door", "cold_lp",
                                                 "churn_warm"};

/// Seed of the cold_lp geometries and the churn_warm bases.
inline constexpr std::uint64_t kStructureSeed = 0x5ca1ab1e;

/// churn_warm: bases visited round-robin at a time, visits per base,
/// and bases per slot.
inline constexpr std::size_t kChurnActive = 32;
inline constexpr std::size_t kChurnVisits = 40;
inline constexpr std::size_t kChurnGenerations = 16;

/// Whether churn_warm slot \p slot holds asymmetric bases (one slot in
/// four; the others hold symmetric ones).
inline constexpr bool churn_asymmetric(std::size_t slot) {
  return slot % 4 == 3;
}

/// Where a churn_warm request goes: its slot, the slot's base (its
/// generation) and the visit to that base.
struct ChurnPosition {
  std::size_t slot = 0;
  std::size_t generation = 0;
  std::size_t visit = 0;
};

/// Visits slot \p slot is into its first base when the stream starts.
inline constexpr std::size_t churn_offset(std::size_t slot) {
  return slot * kChurnVisits / kChurnActive;
}

/// Request \p index goes to slot index % kChurnActive, whose visits are
/// counted from churn_offset(slot).
inline constexpr ChurnPosition churn_position(std::size_t index) {
  const std::size_t slot = index % kChurnActive;
  const std::size_t visits = index / kChurnActive + churn_offset(slot);
  return {slot, visits / kChurnVisits, visits % kChurnVisits};
}

/// The request index of \p position (its generation at least 1).
inline constexpr std::size_t churn_index(const ChurnPosition& position) {
  const std::size_t visits = position.generation * kChurnVisits +
                             position.visit - churn_offset(position.slot);
  return visits * kChurnActive + position.slot;
}

/// One request stream; see the file comment.
class Workload {
 public:
  virtual ~Workload() = default;

  /// nullptr for an unknown name.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);

  [[nodiscard]] virtual const char* name() const = 0;
  /// Registry key sent with every request ("auto" or a pinned solver).
  [[nodiscard]] virtual const char* solver() const = 0;
  [[nodiscard]] ssa::SolveOptions options() const { return {}; }

  /// Clients cycle through a fixed pool (true) or consume each input
  /// index once (false).
  [[nodiscard]] virtual bool cycles() const = 0;
  /// Number of distinct inputs (the pool size when cycling).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Input \p index as a view. Pool workloads return a view into set-up
  /// state; the others assemble the instance into \p scratch (which must
  /// outlive the use of the view).
  [[nodiscard]] virtual ssa::AnyInstance input(
      std::size_t index,
      std::optional<ssa::gen::NamedInstance>& scratch) const = 0;

  /// Input indices the prewarm phase sends through the door before the
  /// timed loop (the whole pool for warm_door, none otherwise).
  [[nodiscard]] virtual std::size_t prewarm_count() const { return 0; }
};

}  // namespace perfbench
