// Stable configuration hashing for the experiment driver.
//
// The trial cache is content-addressed: a trial's key is (config hash, x,
// seed), so the hash must change whenever any field that can influence a
// trial's value changes, and must be stable for equal configurations across
// runs and thread counts. FieldHasher serialises fields one by one through
// crypto::Hasher (FNV-1a core + SplitMix finaliser) tagging each with its
// ordinal and type and folding the schema version and total field count
// into the digest — so adding, removing, or reordering a config field
// changes every downstream hash instead of silently aliasing stale cache
// entries.
#pragma once

#include <cstdint>

#include "core/critical.h"
#include "crypto/hash.h"
#include "gossip/config.h"

namespace lotus::exp {

/// Bump when the *serialisation* below changes shape (a field addition or
/// removal is already covered by the ordinal/count folding).
inline constexpr std::uint64_t kConfigSchemaVersion = 1;

/// Versioned field-by-field hasher. Each add() mixes (ordinal, type tag,
/// value bits); digest() folds in the field count.
class FieldHasher {
 public:
  explicit FieldHasher(std::uint64_t schema_version = kConfigSchemaVersion);

  FieldHasher& add(bool v) noexcept;
  FieldHasher& add(std::uint32_t v) noexcept;
  FieldHasher& add(std::uint64_t v) noexcept;
  /// Doubles are hashed by bit pattern: 0.0 and -0.0 produce different
  /// hashes (a harmless extra cache miss, never a wrong hit); NaNs are
  /// hashed by their payload.
  FieldHasher& add(double v) noexcept;

  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  FieldHasher& mix(std::uint64_t type_tag, std::uint64_t value_bits) noexcept;

  crypto::Hasher hasher_;
  std::uint64_t fields_ = 0;
};

/// Hash of every GossipConfig field.
[[nodiscard]] std::uint64_t config_hash(const gossip::GossipConfig& config);

/// Hash of every GossipConfig + AttackPlan field.
[[nodiscard]] std::uint64_t config_hash(const gossip::GossipConfig& config,
                                        const gossip::AttackPlan& plan);

/// Scope hash for a CriticalQuery's trial space: everything a single
/// (x, seed) trial's value depends on — the config, the attack kind, and the
/// satiate fraction. lo/hi/tolerance/seeds/threads shape *which* trials run,
/// never any trial's value, so they are excluded; that is what lets a
/// delivery curve and the critical-point bisection over the same query share
/// cache entries. Threads decide only which speculative bisection trials run
/// (sim::critical_point); speculative values never enter the memo or the
/// store, so the cached set is the same at any width. (config.seed is folded
/// in even though each trial overrides it — trial seeds derive from it, so
/// equal base seeds imply equal trials.)
[[nodiscard]] std::uint64_t trial_space_hash(const core::CriticalQuery& query);

}  // namespace lotus::exp
