// Simulation-grade hashing.
//
// BAR Gossip relies on cryptographic primitives for two properties this
// reproduction needs: (1) partner selection is pseudorandom and verifiable,
// so an attacker cannot choose whom to talk to, and (2) exchanges produce
// non-repudiable records usable as proofs of misbehaviour. Neither property
// needs real cryptographic hardness inside a closed simulation, so we use a
// fast deterministic mixer with the same *interface* a real implementation
// would have. Swapping in a real hash/signature scheme only touches this
// module (src/crypto/).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>

#include "sim/rng.h"

namespace lotus::crypto {

/// 64-bit digest of a byte string (FNV-1a core + SplitMix64 finaliser).
[[nodiscard]] std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept;

[[nodiscard]] std::uint64_t hash_string(std::string_view s) noexcept;

/// Digest of a sequence of 64-bit words (domain-separated from hash_bytes).
[[nodiscard]] std::uint64_t hash_words(std::initializer_list<std::uint64_t> words) noexcept;

/// Incremental hasher for composite messages: FNV-1a over each word's eight
/// little-endian bytes, finalised with SplitMix64.
class Hasher {
 public:
  /// Inline: the partner schedule absorbs two words per initiation slot.
  /// FNV-1a on a zero byte is `state *= prime` (the xor is a no-op), so a
  /// word whose high 32 bits are zero absorbs its 4 low bytes and then
  /// multiplies once by prime^4 — the same state as the 8-byte loop.
  Hasher& update(std::uint64_t word) noexcept {
    absorb4(word);
    if ((word >> 32) == 0) {
      state_ *= kFnvPrime4;
    } else {
      absorb4(word >> 32);
    }
    return *this;
  }
  Hasher& update_bytes(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t s = state_;
    return sim::split_mix64(s);
  }

 private:
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  static constexpr std::uint64_t kFnvPrime4 =
      kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;  // mod 2^64

  /// FNV-1a over the 4 low bytes of `bytes`, lowest first.
  void absorb4(std::uint64_t bytes) noexcept {
    for (int i = 0; i < 4; ++i) {
      state_ ^= (bytes >> (i * 8)) & 0xff;
      state_ *= kFnvPrime;
    }
  }

  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// A Hasher that has absorbed hash_words' domain tag, so
/// words_hasher().update(a).update(b).digest() == hash_words({a, b}). Copy
/// one after absorbing a constant leading word to hash many messages that
/// share that prefix.
[[nodiscard]] Hasher words_hasher() noexcept;

}  // namespace lotus::crypto
