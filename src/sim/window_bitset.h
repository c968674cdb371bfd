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
// "oldest updates first" semantics exactly. That mapping is a RingRange,
// built by ring(lo, hi). The view's range ops run each segment through the
// shared sim::simd range kernels — the same masked-word implementation
// DynamicBitset uses. A caller that applies one range to many rings (the
// gossip engine, once per phase) turns the RingRange into a RingMask
// instead: per-word masks over the ring, so each op is a straight masked
// loop over the ring's words with no per-call `lo % W` or segment split.
//
// WindowBitsetView / ConstWindowBitsetView operate on caller-owned words —
// the engine packs all nodes' windows into one flat structure-of-arrays
// block and hands out views. WindowBitset owns its words (attacker pools,
// tests).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/simd.h"

namespace lotus::sim {

/// An absolute id range [lo, hi) already mapped onto a ring: the ring bit
/// segment [head_lo, head_hi), then — when the range wraps the seam — the
/// segment [0, tail_hi). The head holds the lower absolute ids. Built by
/// BasicWindowBitsetView::ring and valid for every ring of that size.
struct RingRange {
  std::size_t head_lo = 0;
  std::size_t head_hi = 0;
  std::size_t tail_hi = 0;  // 0: no wrapped tail

  /// hi - lo of the absolute range.
  [[nodiscard]] std::size_t size() const noexcept {
    return head_hi - head_lo + tail_hi;
  }
};

/// A RingRange as masks over the words of a ring of N 64-bit words, or of a
/// word count given at run time when N = 0. Every op is one loop over the
/// ring's words — unrolled when N is fixed — applied to caller-owned words
/// of that ring size. `all_` selects the whole range and `head_` its head
/// segment (the lower ids); the tail is all_ & ~head_.
template <std::size_t N>
class RingMask {
 public:
  RingMask(RingRange r, std::size_t words) {
    assert(N == 0 || words == N);
    if constexpr (N == 0) {
      head_.assign(words, 0);
      all_.assign(words, 0);
    }
    for (std::size_t k = 0; k < this->words(); ++k) {
      head_[k] = segment_word(r.head_lo, r.head_hi, k);
      all_[k] = head_[k] | segment_word(0, r.tail_hi, k);
    }
    size_ = r.size();
  }

  [[nodiscard]] std::size_t words() const noexcept {
    if constexpr (N == 0) {
      return all_.size();
    } else {
      return N;
    }
  }
  /// hi - lo of the absolute range.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Number of set bits of `w` in the range.
  [[nodiscard]] std::size_t count(const std::uint64_t* w) const noexcept {
    std::size_t c = 0;
    for (std::size_t k = 0; k < words(); ++k) {
      c += static_cast<std::size_t>(std::popcount(w[k] & all_[k]));
    }
    return c;
  }

  /// |a AND NOT b| in the range.
  [[nodiscard]] std::size_t count_and_not(const std::uint64_t* a,
                                          const std::uint64_t* b) const noexcept {
    std::size_t c = 0;
    for (std::size_t k = 0; k < words(); ++k) {
      c += static_cast<std::size_t>(std::popcount(a[k] & ~b[k] & all_[k]));
    }
    return c;
  }

  /// Copies up to `cap` of the lowest-id bits of (src AND NOT dst) in the
  /// range into dst; returns how many moved. `avail` must be the size of
  /// that set, count_and_not(src, dst), which callers have usually counted
  /// already. When it fits under the cap the set moves as one masked OR;
  /// otherwise the head words are walked before the tail words, each in
  /// ascending order, and the word where the cap lands gives its lowest
  /// candidates.
  std::size_t transfer(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t avail, std::size_t cap) const noexcept {
    if (avail == 0 || cap == 0) return 0;
    if (avail <= cap) {
      for (std::size_t k = 0; k < words(); ++k) dst[k] |= src[k] & all_[k];
      return avail;
    }
    std::size_t moved = 0;
    for (const bool tail : {false, true}) {
      for (std::size_t k = 0; k < words(); ++k) {
        const std::uint64_t segment = tail ? all_[k] & ~head_[k] : head_[k];
        std::uint64_t candidates = src[k] & ~dst[k] & segment;
        const auto c = static_cast<std::size_t>(std::popcount(candidates));
        if (moved + c < cap) {
          dst[k] |= candidates;
          moved += c;
          continue;
        }
        // The cap lands in this word: its lowest cap - moved candidates move.
        std::uint64_t rest = candidates;
        for (std::size_t r = cap - moved; r > 0; --r) rest &= rest - 1;
        dst[k] |= candidates ^ rest;
        return cap;
      }
    }
    return moved;  // not reached: avail > cap
  }

  /// Counts and clears the bits of `w` in the range; returns the count.
  std::size_t take_count_and_clear(std::uint64_t* w) const noexcept {
    std::size_t c = 0;
    for (std::size_t k = 0; k < words(); ++k) {
      c += static_cast<std::size_t>(std::popcount(w[k] & all_[k]));
      w[k] &= ~all_[k];
    }
    return c;
  }

 private:
  using Words = std::conditional_t<N == 0, std::vector<std::uint64_t>,
                                   std::array<std::uint64_t, N>>;

  /// Word k's share of the ring bit segment [lo, hi).
  [[nodiscard]] static std::uint64_t segment_word(std::size_t lo,
                                                  std::size_t hi,
                                                  std::size_t k) noexcept {
    const std::size_t a = std::max(lo, 64 * k);
    const std::size_t b = std::min(hi, 64 * k + 64);
    if (a >= b) return 0;
    const std::uint64_t ones =
        b - a == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b - a)) - 1;
    return ones << (a - 64 * k);
  }

  Words head_{};
  Words all_{};
  std::size_t size_ = 0;
};

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

  /// Maps the absolute range [lo, hi) (hi - lo <= window_bits) onto at most
  /// two ring bit segments, low-id segment first.
  [[nodiscard]] RingRange ring(std::uint64_t lo,
                               std::uint64_t hi) const noexcept {
    if (lo >= hi) return {};
    const std::uint64_t len = hi - lo;
    const auto rlo = static_cast<std::size_t>(lo % window_bits_);
    const std::uint64_t head =
        window_bits_ - rlo >= len ? len : window_bits_ - rlo;
    return {rlo, rlo + static_cast<std::size_t>(head),
            static_cast<std::size_t>(len - head)};
  }

  /// Number of set bits with ids in [lo, hi).
  [[nodiscard]] std::size_t count_range(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
    const RingRange r = ring(lo, hi);
    return simd::count_range_words(words_, r.head_lo, r.head_hi) +
           simd::count_range_words(words_, 0, r.tail_hi);
  }

  /// |this AND NOT other| restricted to ids in [lo, hi). Both views must
  /// have the same window size (same ring geometry).
  template <typename P>
  [[nodiscard]] std::size_t count_and_not_range(
      BasicWindowBitsetView<P> other, std::uint64_t lo,
      std::uint64_t hi) const noexcept {
    const RingRange r = ring(lo, hi);
    return simd::count_and_not_range_words(words_, other.data(), r.head_lo,
                                           r.head_hi) +
           simd::count_and_not_range_words(words_, other.data(), 0, r.tail_hi);
  }

  /// Copies up to `cap` of the lowest-id bits of (src AND NOT this) in
  /// [lo, hi) into this; returns how many moved. The "transfer oldest
  /// updates first" primitive: the head segment (lower ids) is walked before
  /// the seam-wrapped tail, and words in ascending order within each.
  template <typename P>
  std::size_t transfer_from(BasicWindowBitsetView<P> src, std::uint64_t lo,
                            std::uint64_t hi, std::size_t cap) const noexcept {
    const RingRange r = ring(lo, hi);
    const std::size_t moved = simd::transfer_range_words(
        words_, src.data(), r.head_lo, r.head_hi, cap);
    return moved + simd::transfer_range_words(words_, src.data(), 0,
                                              r.tail_hi, cap - moved);
  }

  /// Fold-at-expiry primitive: returns the number of set bits in [lo, hi)
  /// and clears them, freeing those ring slots for the next generation.
  std::size_t take_count_and_clear(std::uint64_t lo,
                                   std::uint64_t hi) const noexcept {
    const RingRange r = ring(lo, hi);
    return simd::take_count_and_clear_range_words(words_, r.head_lo,
                                                  r.head_hi) +
           simd::take_count_and_clear_range_words(words_, 0, r.tail_hi);
  }

  void clear_range(std::uint64_t lo, std::uint64_t hi) const noexcept {
    const RingRange r = ring(lo, hi);
    simd::clear_range_words(words_, r.head_lo, r.head_hi);
    simd::clear_range_words(words_, 0, r.tail_hi);
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
