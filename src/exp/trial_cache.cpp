#include "exp/trial_cache.h"

#include <algorithm>
#include <bit>
#include <iostream>
#include <ostream>

#include "exp/trial_store.h"

namespace lotus::exp {

std::size_t TrialCache::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(
      TrialStore::trial_key_mix(k.config_hash, k.x_bits, k.seed));
}

void TrialCache::merge_key_locked(std::uint64_t key_hash) {
  if (store_ == nullptr) return;
  const auto shard = static_cast<std::size_t>(store_->shard_of(key_hash));
  if (shard >= shard_merged_.size() || shard_merged_[shard]) return;
  if (merged_keys_.contains(key_hash)) return;
  // The zero-copy path: the store maps the shard read-only and its sidecar
  // index locates exactly this key's records (a key the store never saw is
  // one bloom probe), decoded in place — other trial spaces sharing the
  // shard are never touched. Merged disk-born, so warm hits are attributed
  // to the store.
  std::vector<TrialStore::Record> records;
  if (store_->indexed_records_for(key_hash, records)) {
    merged_keys_.insert(key_hash);
    for (const auto& record : records) {
      map_.try_emplace(Key{record.key_hash, record.x_bits, record.seed},
                       Entry{record.value, true});
    }
    return;
  }
  // No usable index (missing/stale sidecar, or the shard could not be
  // mapped): merge the whole shard once via the sequential-scan load.
  // Taken by move so the map holds the only in-memory copy.
  shard_merged_[shard] = true;
  for (const auto& record : store_->take_records_for(key_hash)) {
    map_.try_emplace(Key{record.key_hash, record.x_bits, record.seed},
                     Entry{record.value, true});
  }
}

bool TrialCache::lookup(std::uint64_t config_hash, double x,
                        std::uint64_t seed, double& value) {
  const Key key{config_hash, std::bit_cast<std::uint64_t>(x), seed};
  const auto self = std::this_thread::get_id();
  std::unique_lock lock(mu_);
  merge_key_locked(config_hash);
  for (;;) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      value = it->second.value;
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (it->second.from_disk) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    const auto claim = find_claim_locked(key);
    if (claim == in_flight_.end()) {
      in_flight_.push_back({key, self});
      break;
    }
    if (claim->owner == self) break;  // re-claimed by its own thread
    claim_ended_.wait(lock);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::vector<TrialCache::Claim>::iterator TrialCache::find_claim_locked(
    const Key& key) {
  return std::find_if(in_flight_.begin(), in_flight_.end(),
                      [&](const Claim& claim) { return claim.key == key; });
}

void TrialCache::end_claim_locked(const Key& key) {
  const auto claim = find_claim_locked(key);
  if (claim == in_flight_.end()) return;
  *claim = in_flight_.back();
  in_flight_.pop_back();
  claim_ended_.notify_all();
}

bool TrialCache::contains(std::uint64_t config_hash, double x,
                          std::uint64_t seed) {
  const Key key{config_hash, std::bit_cast<std::uint64_t>(x), seed};
  std::lock_guard lock(mu_);
  merge_key_locked(config_hash);
  return map_.contains(key) || find_claim_locked(key) != in_flight_.end();
}

void TrialCache::release(std::uint64_t config_hash, double x,
                         std::uint64_t seed) {
  const Key key{config_hash, std::bit_cast<std::uint64_t>(x), seed};
  std::lock_guard lock(mu_);
  end_claim_locked(key);
}

void TrialCache::store(std::uint64_t config_hash, double x, std::uint64_t seed,
                       double value) {
  const Key key{config_hash, std::bit_cast<std::uint64_t>(x), seed};
  std::lock_guard lock(mu_);
  // Make sure the disk shard for this key is visible first, so a record
  // already on disk is never re-appended as a duplicate.
  merge_key_locked(config_hash);
  const auto [it, inserted] = map_.try_emplace(key, Entry{value, false});
  // Only the first writer spills: a key is claimed by one lookup at a time,
  // and disk-loaded entries are already in the log.
  if (inserted && store_ != nullptr) {
    store_->append({key.config_hash, key.x_bits, key.seed, value});
  }
  end_claim_locked(key);
}

void TrialCache::attach_store(TrialStore& store) {
  std::lock_guard lock(mu_);
  if (!store.enabled()) return;
  store_ = &store;
  // Forget every merge decision made against a previously attached store:
  // a key merged from the old store must be re-merged from this one, or
  // its disk records would never load.
  merged_keys_.clear();
  shard_merged_.assign(store.shard_count(), false);
}

std::size_t TrialCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

void TrialCache::clear() {
  std::lock_guard lock(mu_);
  map_.clear();
  in_flight_.clear();
  claim_ended_.notify_all();
  // Forget which keys/shards were merged so an attached store repopulates
  // them.
  merged_keys_.clear();
  shard_merged_.assign(shard_merged_.size(), false);
  hits_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

void TrialCache::report(std::ostream& os) const {
  const TrialStore* const store = [&] {
    std::lock_guard lock(mu_);
    return store_;
  }();
  os << "trial cache: " << hits() << " hits";
  if (store != nullptr) os << " (" << disk_hits() << " from disk)";
  os << ", " << misses() << " misses (" << size() << " entries)";
  if (store != nullptr) os << "; store: " << store->summary();
  os << "\n";
}

void TrialCache::report(std::string_view program, bool enabled) const {
  if (!enabled) return;
  std::cerr << "[" << program << "] ";
  report(std::cerr);
}

}  // namespace lotus::exp
