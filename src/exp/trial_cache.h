// Content-addressed trial cache for the experiment driver.
//
// Figure benches run the same (config, x, seed) gossip trial many times: a
// curve family shares endpoints with the critical-point bisection, fig1-style
// benches probe the same attacker fractions per attack, and bisection itself
// re-probes its brackets. TrialCache memoizes trial results within and
// across sweeps in a process, keyed on (config hash, x, seed); a scope binds
// one trial space's hash (see exp::trial_space_hash) and plugs into the
// sweep engine as a sim::TrialMemo. Cached values are the exact doubles the
// trial produced, so cached and uncached runs are bit-identical.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/sweep.h"

namespace lotus::exp {

class TrialStore;

/// Thread-safe (config_hash, x, seed) -> value memo that runs each trial
/// once, however many sweeps want it at the same time. The first lookup of
/// a key is its one miss and claims the key until the claimant store()s the
/// value (or release()s the key when its trial throws). A lookup of a
/// claimed key from another thread waits for the value and counts as a hit,
/// and contains() reports claimed keys, so speculative batches skip them.
/// Hits, misses, entries and store appends therefore match a serial run's
/// at any width and with any overlap of sweeps.
///
/// A claim is held only while its thread runs the key's trial, and trials
/// never wait on the pool or on other claims, so a waiting lookup always
/// ends. A lookup by the claiming thread itself does not wait: it claims the
/// key again and counts another miss.
class TrialCache {
 public:
  /// A sim::TrialMemo view of the cache with a fixed config hash. Cheap to
  /// create; must not outlive the cache.
  class Scope final : public sim::TrialMemo {
   public:
    Scope(TrialCache& cache, std::uint64_t config_hash) noexcept
        : cache_(&cache), config_hash_(config_hash) {}

    bool lookup(double x, std::uint64_t seed, double& value) override {
      return cache_->lookup(config_hash_, x, seed, value);
    }
    void store(double x, std::uint64_t seed, double value) override {
      cache_->store(config_hash_, x, seed, value);
    }
    void release(double x, std::uint64_t seed) override {
      cache_->release(config_hash_, x, seed);
    }
    bool contains(double x, std::uint64_t seed) override {
      return cache_->contains(config_hash_, x, seed);
    }

   private:
    TrialCache* cache_;
    std::uint64_t config_hash_;
  };

  [[nodiscard]] Scope scope(std::uint64_t config_hash) noexcept {
    return Scope{*this, config_hash};
  }

  /// Returns true and sets `value` on a hit, waiting first while another
  /// thread holds the key's claim; counts a hit or a miss. A miss claims the
  /// key: the caller must store() or release() it.
  [[nodiscard]] bool lookup(std::uint64_t config_hash, double x,
                            std::uint64_t seed, double& value);
  /// Records a value and ends the key's claim.
  void store(std::uint64_t config_hash, double x, std::uint64_t seed,
             double value);
  /// Ends the key's claim without a value (its trial threw). A waiting
  /// lookup then claims the key itself.
  void release(std::uint64_t config_hash, double x, std::uint64_t seed);
  /// True when (config_hash, x, seed) is in memory, in the attached store
  /// (merged as lookup() would merge it) or claimed. Counts nothing.
  [[nodiscard]] bool contains(std::uint64_t config_hash, double x,
                              std::uint64_t seed);

  /// Binds an on-disk spill (exp::TrialStore). Disk records are merged
  /// lazily and *per key hash*: the first lookup (or store) for a hash
  /// pulls in exactly that trial space's records, decoded in place from
  /// the shard's read-only mmap via its sidecar index — marked as
  /// disk-born for the disk_hits() counter — so a run touches only the
  /// byte ranges its scopes need, never a whole shard, and a lookup for a
  /// key the store has never seen costs one bloom probe. A shard without a
  /// usable index falls back to the one-time whole-shard merge (sequential
  /// scan). Every fresh trial stored from now on is appended to the store.
  /// The store must outlive the cache's last lookup()/store() call; call
  /// at startup, before the sweeps run (see exp::open_store for the
  /// standard wiring).
  void attach_store(TrialStore& store);

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Subset of hits() served by entries the attached store loaded from disk
  /// — a warm rerun of the same grid shows every trial here.
  [[nodiscard]] std::uint64_t disk_hits() const noexcept {
    return disk_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// One-line "trial cache: H hits, M misses (E entries)" summary. Benches
  /// print this to stderr so stdout stays byte-identical with and without
  /// the cache.
  void report(std::ostream& os) const;

  /// The bench-footer form: "[program] trial cache: ..." to stderr, or
  /// nothing when `enabled` is false (benches pass cli.cache_enabled()).
  void report(std::string_view program, bool enabled) const;

 private:
  struct Key {
    std::uint64_t config_hash;
    std::uint64_t x_bits;  // bit pattern of x: exact, no epsilon aliasing
    std::uint64_t seed;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    double value;
    bool from_disk;
  };

  /// Merges the store's records for `key_hash` into the map (first call
  /// per key hash; indexed path), or the whole shard holding it when the
  /// shard has no usable index (first call per shard; scan fallback).
  /// Caller holds mu_.
  void merge_key_locked(std::uint64_t key_hash);

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  struct Claim {
    Key key;
    std::thread::id owner;  // the thread running the key's trial
  };
  /// Claimed keys, at most one per running trial, so a scan beats a hash.
  /// Guarded by mu_.
  std::vector<Claim> in_flight_;
  std::condition_variable claim_ended_;
  /// The claim on `key`, or in_flight_.end(). Caller holds mu_.
  std::vector<Claim>::iterator find_claim_locked(const Key& key);
  /// Ends the claim on `key`, if any, and wakes its waiters. Caller holds
  /// mu_.
  void end_claim_locked(const Key& key);
  TrialStore* store_ = nullptr;           // guarded by mu_
  std::unordered_set<std::uint64_t> merged_keys_;  // guarded by mu_
  std::vector<bool> shard_merged_;        // guarded by mu_; sized at attach
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// RAII binding of a memo slot (e.g. core::CriticalQuery::memo) to a cache
/// scope: points the slot at a scope for `config_hash` on construction (or
/// at nothing when `enabled` is false) and always resets it to null on
/// destruction, so the slot can never dangle past the scope's lifetime.
class ScopedMemo {
 public:
  ScopedMemo(TrialCache& cache, std::uint64_t config_hash,
             sim::TrialMemo*& slot, bool enabled) noexcept
      : scope_(cache.scope(config_hash)), slot_(&slot) {
    *slot_ = enabled ? &scope_ : nullptr;
  }
  ~ScopedMemo() { *slot_ = nullptr; }

  ScopedMemo(const ScopedMemo&) = delete;
  ScopedMemo& operator=(const ScopedMemo&) = delete;

 private:
  TrialCache::Scope scope_;
  sim::TrialMemo** slot_;
};

}  // namespace lotus::exp
