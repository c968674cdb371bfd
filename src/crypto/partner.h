// Verifiable pseudorandom partner selection.
//
// In BAR Gossip, each round every node is assigned gossip partners by a
// verifiable pseudorandom computation so that "nodes have no control over
// who their partner will be" (paper §2). We model it as a keyed hash of
// (system seed, round, initiator, purpose): any party can recompute and
// verify the assignment, and no party can bias it.
#pragma once

#include <cstdint>

#include "crypto/hash.h"

namespace lotus::crypto {

enum class PartnerPurpose : std::uint64_t {
  kBalancedExchange = 1,
  kOptimisticPush = 2,
};

class PartnerSchedule {
 public:
  /// `system_seed` plays the role of the shared verifiable randomness.
  PartnerSchedule(std::uint64_t system_seed, std::uint32_t node_count) noexcept
      : prefix_(words_hasher().update(system_seed)), node_count_(node_count) {}

  [[nodiscard]] std::uint32_t node_count() const noexcept { return node_count_; }

  /// The partner assigned to `initiator` in `round` for `purpose`.
  /// Guaranteed != initiator when node_count >= 2.
  [[nodiscard]] std::uint32_t partner_of(std::uint32_t round,
                                         std::uint32_t initiator,
                                         PartnerPurpose purpose) const noexcept;

  /// Verification used in tests and by obedient nodes: was `claimed` really
  /// the assigned partner?
  [[nodiscard]] bool verify(std::uint32_t round, std::uint32_t initiator,
                            PartnerPurpose purpose,
                            std::uint32_t claimed) const noexcept;

 private:
  // hash_words({system_seed, ...}) with the run-constant tag and seed
  // already absorbed; each call copies it and absorbs the rest.
  Hasher prefix_;
  std::uint32_t node_count_;
};

}  // namespace lotus::crypto
