#pragma once
/// \file lru_cache.hpp
/// The one least-recently-used cache of the service layer, keyed by
/// Fingerprint. Every per-shard cache of the AuctionService is an
/// instance: the result cache (service/result_cache.hpp, byte budget
/// through estimated_report_bytes) and the two warm-start hint caches --
/// optimal simplex bases and asymmetric-colgen column pools, keyed by the
/// STRUCTURAL fingerprint (support/fingerprint.hpp), entry budget through
/// CountWeigher.
///
/// The Weigher prices a value; the cache evicts least-recently-used
/// entries until the summed weight is back within the budget. Inserting
/// under a present key replaces that entry; a value heavier than the whole
/// budget is never cached -- and, on a replace, the stale entry goes too,
/// so a lookup can never return the superseded value -- while every other
/// entry stays.
///
/// Not thread-safe: the owning shard serializes access under its own lock.

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "support/fingerprint.hpp"

namespace ssa::service {

/// Weighs every value as 1: the budget is an entry count.
struct CountWeigher {
  template <typename Value>
  [[nodiscard]] std::size_t operator()(const Value&) const noexcept {
    return 1;
  }
};

template <typename Value, typename Weigher>
class LruCache {
 public:
  /// \p budget 0 disables the cache (lookups miss, inserts drop).
  explicit LruCache(std::size_t budget, Weigher weigher = {})
      : budget_(budget), weigher_(std::move(weigher)) {}

  /// Returns the value for \p key and marks it most recently used, or
  /// nullptr on a miss. The pointer is invalidated by the next insert().
  [[nodiscard]] const Value* lookup(const Fingerprint& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Inserts or replaces \p value under \p key as most recently used, then
  /// evicts least-recently-used entries until the budget holds.
  void insert(const Fingerprint& key, Value value) {
    if (const auto it = index_.find(key); it != index_.end()) {
      erase(it->second);
    }
    const std::size_t weight = weigher_(value);
    if (weight > budget_) return;
    order_.push_front(Entry{key, std::move(value), weight});
    index_.emplace(key, order_.begin());
    weight_ += weight;
    while (weight_ > budget_) erase(std::prev(order_.end()));
  }

  /// Visits every (key, value) pair least-recently used first, so
  /// replaying the visit through insert() reproduces the recency order.
  template <typename Fn>
  void for_each_lru_first(Fn&& fn) const {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      fn(it->key, it->value);
    }
  }

  [[nodiscard]] std::size_t entries() const noexcept { return index_.size(); }
  /// Summed weight of the cached values (bytes for the result cache).
  [[nodiscard]] std::size_t weight() const noexcept { return weight_; }

 private:
  struct Entry {
    Fingerprint key;
    Value value;
    std::size_t weight = 0;
  };
  using Iterator = typename std::list<Entry>::iterator;

  void erase(Iterator it) {
    weight_ -= it->weight;
    index_.erase(it->key);
    order_.erase(it);
  }

  std::size_t budget_;
  Weigher weigher_;
  std::size_t weight_ = 0;
  std::list<Entry> order_;  ///< front = most recently used
  std::unordered_map<Fingerprint, Iterator> index_;
};

}  // namespace ssa::service
