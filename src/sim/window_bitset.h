// Windowed (ring) bitset addressed by absolute ids.
//
// The gossip engine identifies updates by dense ids and gives each a bounded
// lifetime, so the ids that can still move at any instant form a sliding
// window of at most W = update_lifetime * updates_per_round ids (the IdRange
// arithmetic in gossip/update_store.h). Storing one bit per *lifetime* id
// per node is O(rounds * updates_per_round) per node — terabytes at a
// million nodes — when only the active window can ever change. A
// WindowBitset stores exactly W bits in a ring indexed by id % W: callers
// keep addressing bits by absolute id, and the owner recycles a
// generation's slots with take_count_and_clear() once that generation
// expires, folding whatever metric it needs out of the bits at that moment.
//
// Every range argument is an absolute half-open id range [lo, hi) with
// hi - lo <= W; the caller guarantees that all ids it passes are inside the
// currently live window (expired slots are cleared before their ring
// positions are reused). A range may straddle the ring seam, in which case
// it maps to two word segments that are always processed in ascending
// absolute-id order, so capped transfers keep the dense bitset's
// "oldest updates first" semantics exactly. Each segment runs through the
// shared sim::simd range kernels — the same masked-word implementation
// DynamicBitset uses.
//
// WindowBitsetView / ConstWindowBitsetView operate on caller-owned words —
// the engine packs all nodes' windows into one flat structure-of-arrays
// block and hands out views. WindowBitset owns its words (attacker pools,
// tests).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/simd.h"

namespace lotus::sim {

template <typename WordPtr>
class BasicWindowBitsetView {
 public:
  BasicWindowBitsetView() = default;
  BasicWindowBitsetView(WordPtr words, std::uint64_t window_bits) noexcept
      : words_(words), window_bits_(window_bits) {}

  /// Mutable views convert to const views.
  operator BasicWindowBitsetView<const std::uint64_t*>() const noexcept {
    return {words_, window_bits_};
  }

  [[nodiscard]] std::uint64_t window_bits() const noexcept {
    return window_bits_;
  }
  [[nodiscard]] std::size_t words() const noexcept {
    return static_cast<std::size_t>((window_bits_ + 63) / 64);
  }

  [[nodiscard]] bool test(std::uint64_t id) const noexcept {
    const std::uint64_t p = id % window_bits_;
    return (words_[p >> 6] >> (p & 63)) & 1U;
  }
  void set(std::uint64_t id) const noexcept {
    const std::uint64_t p = id % window_bits_;
    words_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }

  /// Number of set bits with ids in [lo, hi).
  [[nodiscard]] std::size_t count_range(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
    std::size_t c = 0;
    for_each_segment(lo, hi, [&](std::size_t slo, std::size_t shi) {
      c += simd::count_range_words(words_, slo, shi);
    });
    return c;
  }

  /// |this AND NOT other| restricted to ids in [lo, hi). Both views must
  /// have the same window size (same ring geometry).
  template <typename P>
  [[nodiscard]] std::size_t count_and_not_range(
      BasicWindowBitsetView<P> other, std::uint64_t lo,
      std::uint64_t hi) const noexcept {
    std::size_t c = 0;
    for_each_segment(lo, hi, [&](std::size_t slo, std::size_t shi) {
      c += simd::count_and_not_range_words(words_, other.data(), slo, shi);
    });
    return c;
  }

  /// Copies up to `cap` of the lowest-id bits of (src AND NOT this) in
  /// [lo, hi) into this; returns how many moved. The "transfer oldest
  /// updates first" primitive: segments and words are walked in ascending
  /// absolute-id order even when the range wraps the ring seam.
  template <typename P>
  std::size_t transfer_from(BasicWindowBitsetView<P> src, std::uint64_t lo,
                            std::uint64_t hi, std::size_t cap) const noexcept {
    if (cap == 0) return 0;
    std::size_t moved = 0;
    for_each_segment(lo, hi, [&](std::size_t slo, std::size_t shi) {
      moved += simd::transfer_range_words(words_, src.data(), slo, shi,
                                          cap - moved);
      return moved < cap;
    });
    return moved;
  }

  /// Fold-at-expiry primitive: returns the number of set bits in [lo, hi)
  /// and clears them, freeing those ring slots for the next generation.
  std::size_t take_count_and_clear(std::uint64_t lo,
                                   std::uint64_t hi) const noexcept {
    std::size_t c = 0;
    for_each_segment(lo, hi, [&](std::size_t slo, std::size_t shi) {
      c += simd::take_count_and_clear_range_words(words_, slo, shi);
    });
    return c;
  }

  void clear_range(std::uint64_t lo, std::uint64_t hi) const noexcept {
    for_each_segment(lo, hi, [&](std::size_t slo, std::size_t shi) {
      simd::clear_range_words(words_, slo, shi);
    });
  }

  /// Raw word access for same-geometry cross-view operations.
  [[nodiscard]] std::uint64_t word(std::size_t wi) const noexcept {
    return words_[wi];
  }

  /// Raw word storage, for handing both operands of a cross-view reduction
  /// to the shared sim::simd kernels.
  [[nodiscard]] WordPtr data() const noexcept { return words_; }

  template <typename P>
  [[nodiscard]] bool operator==(BasicWindowBitsetView<P> other) const noexcept {
    if (window_bits_ != other.window_bits()) return false;
    for (std::size_t wi = 0; wi < words(); ++wi) {
      if (words_[wi] != other.word(wi)) return false;
    }
    return true;
  }

 private:
  /// Maps the absolute range [lo, hi) (hi - lo <= window_bits) onto at most
  /// two ring bit segments, low-id segment first. `fn(seg_lo, seg_hi)` may
  /// return bool (false stops before the seam-wrapped tail segment — used
  /// by capped transfers) or void.
  template <typename Fn>
  void for_each_segment(std::uint64_t lo, std::uint64_t hi,
                        Fn&& fn) const noexcept {
    if (lo >= hi) return;
    const std::uint64_t len = hi - lo;
    const auto rlo = static_cast<std::size_t>(lo % window_bits_);
    const std::uint64_t head = window_bits_ - rlo >= len
                                   ? len
                                   : window_bits_ - rlo;
    const std::size_t head_hi = rlo + static_cast<std::size_t>(head);
    if constexpr (std::is_same_v<decltype(fn(rlo, head_hi)), bool>) {
      if (!fn(rlo, head_hi)) return;
    } else {
      fn(rlo, head_hi);
    }
    if (head < len) {
      fn(std::size_t{0}, static_cast<std::size_t>(len - head));
    }
  }

  WordPtr words_ = nullptr;
  std::uint64_t window_bits_ = 1;  // never 0: ids are reduced mod this
};

using WindowBitsetView = BasicWindowBitsetView<std::uint64_t*>;
using ConstWindowBitsetView = BasicWindowBitsetView<const std::uint64_t*>;

/// Owning windowed bitset (attacker pools, tests). Copy-assignable for the
/// engine's lagged-pool snapshot.
class WindowBitset {
 public:
  WindowBitset() = default;
  explicit WindowBitset(std::uint64_t window_bits)
      : window_bits_(window_bits == 0 ? 1 : window_bits),
        words_((window_bits_ + 63) / 64, 0) {}

  [[nodiscard]] std::uint64_t window_bits() const noexcept {
    return window_bits_;
  }
  [[nodiscard]] WindowBitsetView view() noexcept {
    return {words_.data(), window_bits_};
  }
  [[nodiscard]] ConstWindowBitsetView view() const noexcept {
    return {words_.data(), window_bits_};
  }

  [[nodiscard]] bool test(std::uint64_t id) const noexcept {
    return view().test(id);
  }
  void set(std::uint64_t id) noexcept { view().set(id); }
  [[nodiscard]] std::size_t count_range(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
    return view().count_range(lo, hi);
  }
  std::size_t take_count_and_clear(std::uint64_t lo, std::uint64_t hi) noexcept {
    return view().take_count_and_clear(lo, hi);
  }
  void clear_range(std::uint64_t lo, std::uint64_t hi) noexcept {
    view().clear_range(lo, hi);
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  bool operator==(const WindowBitset&) const = default;

 private:
  std::uint64_t window_bits_ = 1;
  std::vector<std::uint64_t> words_;
};

}  // namespace lotus::sim
