// Simulation-grade hashing.
//
// BAR Gossip relies on cryptographic primitives for two properties this
// reproduction needs: (1) partner selection is pseudorandom and verifiable,
// so an attacker cannot choose whom to talk to, and (2) exchanges produce
// non-repudiable records usable as proofs of misbehaviour. Neither property
// needs real cryptographic hardness inside a closed simulation, so we use a
// fast deterministic mixer with the same *interface* a real implementation
// would have. Swapping in a real hash/signature scheme only touches this
// module (see DESIGN.md, substitutions table).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>

namespace lotus::crypto {

/// 64-bit digest of a byte string (FNV-1a core + SplitMix64 finaliser).
[[nodiscard]] std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept;

[[nodiscard]] std::uint64_t hash_string(std::string_view s) noexcept;

/// Digest of a sequence of 64-bit words (domain-separated from hash_bytes).
[[nodiscard]] std::uint64_t hash_words(std::initializer_list<std::uint64_t> words) noexcept;

/// Incremental hasher for composite messages.
class Hasher {
 public:
  Hasher& update(std::uint64_t word) noexcept;
  Hasher& update_bytes(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// A Hasher that has absorbed hash_words' domain tag, so
/// words_hasher().update(a).update(b).digest() == hash_words({a, b}). Copy
/// one after absorbing a constant leading word to hash many messages that
/// share that prefix.
[[nodiscard]] Hasher words_hasher() noexcept;

}  // namespace lotus::crypto
