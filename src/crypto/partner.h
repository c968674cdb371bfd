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

/// One phase of the schedule: the partners every initiator is assigned in
/// one (round, purpose). It has already absorbed hash_words' tag, the seed
/// and the round, so each call hashes only the initiator and the purpose.
class PartnerPhase {
 public:
  PartnerPhase(Hasher prefix, PartnerPurpose purpose,
               std::uint32_t node_count) noexcept
      : prefix_(prefix),
        purpose_(static_cast<std::uint64_t>(purpose)),
        node_count_(node_count) {}

  /// The partner assigned to `initiator`; != initiator when node_count >= 2.
  [[nodiscard]] std::uint32_t operator()(
      std::uint32_t initiator) const noexcept {
    if (node_count_ < 2) return initiator;
    // Hash onto [0, n-1) and skip over the initiator; this keeps the
    // distribution uniform over the other n-1 nodes.
    const std::uint64_t h =
        Hasher{prefix_}.update(initiator).update(purpose_).digest();
    const auto slot = static_cast<std::uint32_t>(h % (node_count_ - 1));
    return slot >= initiator ? slot + 1 : slot;
  }

 private:
  Hasher prefix_;
  std::uint64_t purpose_;
  std::uint32_t node_count_;
};

class PartnerSchedule {
 public:
  /// `system_seed` plays the role of the shared verifiable randomness.
  PartnerSchedule(std::uint64_t system_seed, std::uint32_t node_count) noexcept
      : prefix_(words_hasher().update(system_seed)), node_count_(node_count) {}

  [[nodiscard]] std::uint32_t node_count() const noexcept { return node_count_; }

  /// The partners of every initiator in `round` for `purpose`:
  /// hash_words({system_seed, round, initiator, purpose}) onto the other
  /// nodes. Build one per interaction phase.
  [[nodiscard]] PartnerPhase phase(std::uint32_t round,
                                   PartnerPurpose purpose) const noexcept {
    return {Hasher{prefix_}.update(round), purpose, node_count_};
  }

  /// The partner assigned to `initiator` in `round` for `purpose`.
  /// Guaranteed != initiator when node_count >= 2.
  [[nodiscard]] std::uint32_t partner_of(std::uint32_t round,
                                         std::uint32_t initiator,
                                         PartnerPurpose purpose) const noexcept {
    return phase(round, purpose)(initiator);
  }

  /// Verification used in tests and by obedient nodes: was `claimed` really
  /// the assigned partner?
  [[nodiscard]] bool verify(std::uint32_t round, std::uint32_t initiator,
                            PartnerPurpose purpose,
                            std::uint32_t claimed) const noexcept {
    return partner_of(round, initiator, purpose) == claimed;
  }

 private:
  // hash_words({system_seed, ...}) with the run-constant tag and seed
  // already absorbed; each phase copies it and absorbs the round.
  Hasher prefix_;
  std::uint32_t node_count_;
};

}  // namespace lotus::crypto
