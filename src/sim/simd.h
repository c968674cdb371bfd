// Masked-word range kernels shared by the bitset classes.
//
// DynamicBitset and BasicWindowBitsetView both reduce to popcounts and
// masked ORs over runs of 64-bit words. The helpers below hold the
// partial-first-word / partial-last-word mask arithmetic exactly once, so
// both bitsets' range ops run one implementation. The gossip engine's slot
// loop does not split ranges per call: it runs sim::RingMask, whose masks
// are built once per phase (sim/window_bitset.h).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace lotus::sim::simd {

/// The instruction tier the kernels below were compiled for, so run
/// metadata can name what it measured: kPopcnt when std::popcount is the
/// hardware instruction (x86-64 builds enable it; see src/CMakeLists.txt),
/// kScalar when it is a library call or another target's lowering.
enum class Isa : int { kScalar = 0, kPopcnt = 1 };

[[nodiscard]] constexpr Isa active_isa() noexcept {
#if defined(__POPCNT__)
  return Isa::kPopcnt;
#else
  return Isa::kScalar;
#endif
}

[[nodiscard]] constexpr const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kPopcnt ? "popcnt" : "scalar";
}

// --- Whole-word reductions ----------------------------------------------

[[nodiscard]] inline std::size_t popcount_words(const std::uint64_t* w,
                                                std::size_t n) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return c;
}

[[nodiscard]] inline std::size_t popcount_and_words(const std::uint64_t* a,
                                                    const std::uint64_t* b,
                                                    std::size_t n) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

[[nodiscard]] inline std::size_t popcount_and_not_words(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  }
  return c;
}

namespace detail {
/// One range [lo, hi), lo < hi, split into first/last (possibly partial)
/// words with their in-range masks. When first_word == last_word the two
/// masks combine; otherwise words strictly between are whole.
struct Range {
  std::size_t first_word;
  std::size_t last_word;  // inclusive
  std::uint64_t first_mask;
  std::uint64_t last_mask;
};

[[nodiscard]] inline Range split(std::size_t lo, std::size_t hi) noexcept {
  return {lo >> 6, (hi - 1) >> 6, ~std::uint64_t{0} << (lo & 63),
          ~std::uint64_t{0} >> (63 - ((hi - 1) & 63))};
}
}  // namespace detail

// --- Shared range reductions over word arrays ---------------------------
// One implementation of the masked-word range walk, used by DynamicBitset
// and (per ring segment) by BasicWindowBitsetView: masked edge words plus
// the whole-word interior reductions above.

/// Number of set bits of `w` with bit indices in [lo, hi).
[[nodiscard]] inline std::size_t count_range_words(const std::uint64_t* w,
                                                   std::size_t lo,
                                                   std::size_t hi) noexcept {
  if (lo >= hi) return 0;
  const detail::Range r = detail::split(lo, hi);
  if (r.first_word == r.last_word) {
    return static_cast<std::size_t>(
        std::popcount(w[r.first_word] & r.first_mask & r.last_mask));
  }
  const std::size_t edges = static_cast<std::size_t>(
      std::popcount(w[r.first_word] & r.first_mask) +
      std::popcount(w[r.last_word] & r.last_mask));
  return edges +
         popcount_words(w + r.first_word + 1, r.last_word - r.first_word - 1);
}

/// |a AND NOT b| restricted to bit indices in [lo, hi).
[[nodiscard]] inline std::size_t count_and_not_range_words(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t lo,
    std::size_t hi) noexcept {
  if (lo >= hi) return 0;
  const detail::Range r = detail::split(lo, hi);
  if (r.first_word == r.last_word) {
    return static_cast<std::size_t>(std::popcount(
        a[r.first_word] & ~b[r.first_word] & r.first_mask & r.last_mask));
  }
  const std::size_t edges = static_cast<std::size_t>(
      std::popcount(a[r.first_word] & ~b[r.first_word] & r.first_mask) +
      std::popcount(a[r.last_word] & ~b[r.last_word] & r.last_mask));
  return edges + popcount_and_not_words(a + r.first_word + 1,
                                        b + r.first_word + 1,
                                        r.last_word - r.first_word - 1);
}

/// dst |= src restricted to bit indices in [lo, hi).
inline void or_range_words(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t lo, std::size_t hi) noexcept {
  if (lo >= hi) return;
  const detail::Range r = detail::split(lo, hi);
  if (r.first_word == r.last_word) {
    dst[r.first_word] |= src[r.first_word] & r.first_mask & r.last_mask;
    return;
  }
  dst[r.first_word] |= src[r.first_word] & r.first_mask;
  for (std::size_t wi = r.first_word + 1; wi < r.last_word; ++wi) {
    dst[wi] |= src[wi];
  }
  dst[r.last_word] |= src[r.last_word] & r.last_mask;
}

/// Copies up to `cap` of the lowest-index bits of (src AND NOT dst) in
/// [lo, hi) into dst; returns how many moved. The uncapped common case (the
/// whole candidate set fits under the cap) is one counted reduction plus
/// whole-word ORs; only a cap landing mid-range walks a boundary word
/// bit by bit.
inline std::size_t transfer_range_words(std::uint64_t* dst,
                                        const std::uint64_t* src,
                                        std::size_t lo, std::size_t hi,
                                        std::size_t cap) noexcept {
  if (lo >= hi || cap == 0) return 0;
  const std::size_t avail = count_and_not_range_words(src, dst, lo, hi);
  if (avail <= cap) {
    or_range_words(dst, src, lo, hi);
    return avail;
  }
  const detail::Range r = detail::split(lo, hi);
  std::size_t moved = 0;
  for (std::size_t wi = r.first_word; wi <= r.last_word; ++wi) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (wi == r.first_word) mask &= r.first_mask;
    if (wi == r.last_word) mask &= r.last_mask;
    std::uint64_t candidates = src[wi] & ~dst[wi] & mask;
    const auto c = static_cast<std::size_t>(std::popcount(candidates));
    if (moved + c < cap) {
      dst[wi] |= candidates;
      moved += c;
      continue;
    }
    // Boundary word: lowest bits first until the cap is exactly met.
    while (moved < cap) {
      const std::uint64_t bit = candidates & (~candidates + 1);
      dst[wi] |= bit;
      candidates ^= bit;
      ++moved;
    }
    return moved;
  }
  return moved;
}

/// Counts and clears the bits of `w` in [lo, hi); returns the count. The
/// fold-at-expiry primitive of the windowed engine.
inline std::size_t take_count_and_clear_range_words(std::uint64_t* w,
                                                    std::size_t lo,
                                                    std::size_t hi) noexcept {
  if (lo >= hi) return 0;
  const detail::Range r = detail::split(lo, hi);
  if (r.first_word == r.last_word) {
    const std::uint64_t mask = r.first_mask & r.last_mask;
    const auto c = static_cast<std::size_t>(std::popcount(w[r.first_word] & mask));
    w[r.first_word] &= ~mask;
    return c;
  }
  std::size_t c = static_cast<std::size_t>(
      std::popcount(w[r.first_word] & r.first_mask) +
      std::popcount(w[r.last_word] & r.last_mask));
  w[r.first_word] &= ~r.first_mask;
  w[r.last_word] &= ~r.last_mask;
  c += popcount_words(w + r.first_word + 1, r.last_word - r.first_word - 1);
  for (std::size_t wi = r.first_word + 1; wi < r.last_word; ++wi) w[wi] = 0;
  return c;
}

/// Clears the bits of `w` in [lo, hi).
inline void clear_range_words(std::uint64_t* w, std::size_t lo,
                              std::size_t hi) noexcept {
  if (lo >= hi) return;
  const detail::Range r = detail::split(lo, hi);
  if (r.first_word == r.last_word) {
    w[r.first_word] &= ~(r.first_mask & r.last_mask);
    return;
  }
  w[r.first_word] &= ~r.first_mask;
  for (std::size_t wi = r.first_word + 1; wi < r.last_word; ++wi) w[wi] = 0;
  w[r.last_word] &= ~r.last_mask;
}

}  // namespace lotus::sim::simd
