#include "workloads.hpp"

#include <utility>

#include "load/workload.hpp"
#include "support/random.hpp"

namespace perfbench {

using namespace ssa;

namespace {

/// Deterministic per-(seed, index) 64-bit mix (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class WarmDoor final : public Workload {
 public:
  static constexpr std::uint32_t kPoolSize = 200;

  explicit WarmDoor(std::uint64_t seed) {
    load::TraceSpec spec;
    spec.seed = seed;
    spec.pool_size = kPoolSize;
    spec.bidders = 24;
    spec.channels = 3;
    load::ScenarioPool pool(spec);
    for (std::uint32_t s = 0; s < kPoolSize; ++s) {
      pool_.push_back(pool.instance(s));
    }
  }

  const char* name() const override { return "warm_door"; }
  const char* solver() const override { return "auto"; }
  bool cycles() const override { return true; }
  std::size_t size() const override { return pool_.size(); }
  std::size_t prewarm_count() const override { return pool_.size(); }

  AnyInstance input(std::size_t index,
                    std::optional<gen::NamedInstance>&) const override {
    return pool_[index % pool_.size()].view();
  }

 private:
  std::vector<gen::NamedInstance> pool_;
};

class ColdLp final : public Workload {
 public:
  /// Disk geometries (graph, ordering, measured rho) built in set-up;
  /// each request draws a fresh valuation population over one of them.
  static constexpr std::size_t kGeometries = 16;
  static constexpr std::size_t kBidders = 80;
  static constexpr int kChannels = 4;

  explicit ColdLp(std::uint64_t seed) : seed_(seed) {
    for (std::size_t g = 0; g < kGeometries; ++g) {
      geometries_.push_back(gen::make_disk_auction(
          kBidders, kChannels, gen::ValuationMix::kMixed,
          mix_seed(kStructureSeed, g)));
    }
  }

  const char* name() const override { return "cold_lp"; }
  const char* solver() const override { return "lp-rounding"; }
  bool cycles() const override { return false; }
  std::size_t size() const override { return std::size_t{1} << 24; }

  AnyInstance input(std::size_t index,
                    std::optional<gen::NamedInstance>& scratch) const override {
    const AuctionInstance& geometry = geometries_[index % kGeometries];
    Rng rng(mix_seed(seed_ ^ 0xc01d, index));
    scratch.emplace(gen::NamedInstance{
        "cold", AuctionInstance(geometry.graph(), geometry.order(), kChannels,
                                gen::random_valuations(
                                    kBidders, kChannels,
                                    gen::ValuationMix::kMixed, 100, rng),
                                geometry.rho())});
    return scratch->view();
  }

 private:
  std::uint64_t seed_;
  std::vector<AuctionInstance> geometries_;
};

static_assert(churn_index(churn_position(1000)) == 1000);
static_assert(churn_index(churn_position(12345)) == 12345);
static_assert(churn_position(churn_index({31, 3, 0})).generation == 3);

class ChurnWarm final : public Workload {
 public:
  explicit ChurnWarm(std::uint64_t seed) : seed_(seed) {
    // Base generation * kChurnActive + slot.
    for (std::size_t b = 0; b < kChurnActive * kChurnGenerations; ++b) {
      const std::uint64_t base_seed = mix_seed(kStructureSeed, b);
      bases_.push_back(
          churn_asymmetric(b % kChurnActive)
              ? gen::NamedInstance{"churn-asym",
                                   gen::make_random_asymmetric(
                                       8, 13, 0.3, gen::ValuationMix::kMixed,
                                       base_seed)}
              : gen::NamedInstance{"churn-disk",
                                   gen::make_disk_auction(
                                       60, 3, gen::ValuationMix::kMixed,
                                       base_seed)});
    }
  }

  const char* name() const override { return "churn_warm"; }
  const char* solver() const override { return "auto"; }
  bool cycles() const override { return false; }
  /// Every slot's last base may be cut short by its offset.
  std::size_t size() const override {
    return kChurnActive * kChurnVisits * (kChurnGenerations - 1);
  }

  AnyInstance input(std::size_t index,
                    std::optional<gen::NamedInstance>& scratch) const override {
    const ChurnPosition position = churn_position(index);
    const std::size_t visit = position.visit;
    const auto& base =
        bases_[position.generation * kChurnActive + position.slot];
    Rng rng(mix_seed(seed_ ^ 0xc4a2, index));
    const double factor = rng.uniform(0.5, 2.0);
    // One bidder's values times a positive factor, as an explicit table:
    // the support (which bundles are worth anything) is unchanged, so the
    // structural fingerprint -- and with it the explicit LP's column set
    // and the colgen candidate columns -- stays that of the base.
    std::visit(
        [&](const auto& held) {
          const std::size_t bidder = visit % held.num_bidders();
          const int k = held.num_channels();
          std::vector<double> values(num_bundles(k), 0.0);
          for (Bundle t = 1; t < num_bundles(k); ++t) {
            values[t] = factor * held.value(bidder, t);
          }
          scratch.emplace(gen::NamedInstance{
              base.label,
              held.with_valuation(bidder, std::make_shared<ExplicitValuation>(
                                              k, std::move(values)))});
        },
        base.instance);
    return scratch->view();
  }

 private:
  std::uint64_t seed_;
  std::vector<gen::NamedInstance> bases_;
};

}  // namespace

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  if (name == "warm_door") return std::make_unique<WarmDoor>(seed);
  if (name == "cold_lp") return std::make_unique<ColdLp>(seed);
  if (name == "churn_warm") return std::make_unique<ChurnWarm>(seed);
  return nullptr;
}

}  // namespace perfbench
