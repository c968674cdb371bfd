// Dynamic bitset tuned for token/update bookkeeping in the simulators.
//
// std::vector<bool> lacks word-level operations (union, intersection count)
// that the gossip and token engines need in their inner loops, and
// std::bitset is fixed-size; this is the usual small dynamic bitset. All
// word-level reductions (counts, masked ranges, capped transfers) go through
// the shared sim::simd range kernels, so DynamicBitset and WindowBitset run
// the same inline implementation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simd.h"

namespace lotus::sim {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits, bool value = false)
      : bits_(bits),
        words_((bits + 63) / 64, value ? ~std::uint64_t{0} : std::uint64_t{0}) {
    trim();
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1U;
  }
  void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) noexcept { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  void assign(std::size_t i, bool v) noexcept { v ? set(i) : reset(i); }

  void set_all() noexcept {
    for (auto& w : words_) w = ~std::uint64_t{0};
    trim();
  }
  void reset_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept {
    return simd::popcount_words(words_.data(), words_.size());
  }

  [[nodiscard]] bool all() const noexcept { return count() == bits_; }
  [[nodiscard]] bool none() const noexcept {
    for (const auto w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// |this AND NOT other| : how many bits we have that `other` lacks.
  [[nodiscard]] std::size_t count_and_not(const DynamicBitset& other) const noexcept {
    return simd::popcount_and_not_words(words_.data(), other.words_.data(),
                                        words_.size());
  }

  /// |this AND other|.
  [[nodiscard]] std::size_t count_and(const DynamicBitset& other) const noexcept {
    return simd::popcount_and_words(words_.data(), other.words_.data(),
                                    words_.size());
  }

  DynamicBitset& operator|=(const DynamicBitset& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  DynamicBitset& operator&=(const DynamicBitset& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  bool operator==(const DynamicBitset&) const = default;

  /// Indices of set bits, ascending.
  [[nodiscard]] std::vector<std::uint32_t> to_indices() const {
    std::vector<std::uint32_t> out;
    out.reserve(count());
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        out.push_back(static_cast<std::uint32_t>(wi * 64 + static_cast<std::size_t>(b)));
        w &= w - 1;
      }
    }
    return out;
  }

  /// Indices of set bits in `this AND NOT other` (what we could offer them).
  [[nodiscard]] std::vector<std::uint32_t> indices_and_not(
      const DynamicBitset& other) const {
    std::vector<std::uint32_t> out;
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi] & ~other.words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        out.push_back(static_cast<std::uint32_t>(wi * 64 + static_cast<std::size_t>(b)));
        w &= w - 1;
      }
    }
    return out;
  }

  // --- Range-restricted operations -------------------------------------
  // The gossip simulators identify updates by dense ids so that "active",
  // "recent", and "expiring" update sets are contiguous id ranges [lo, hi).
  // These keep the protocol inner loops allocation-free; the masked-word
  // arithmetic and the whole-word interior live once in sim/simd.h, shared
  // with the windowed views.

  /// |this AND NOT other| restricted to bit indices in [lo, hi).
  [[nodiscard]] std::size_t count_and_not_range(const DynamicBitset& other,
                                                std::size_t lo,
                                                std::size_t hi) const noexcept {
    return simd::count_and_not_range_words(words_.data(), other.words_.data(),
                                           lo, hi);
  }

  /// Number of set bits with indices in [lo, hi).
  [[nodiscard]] std::size_t count_range(std::size_t lo, std::size_t hi) const noexcept {
    return simd::count_range_words(words_.data(), lo, hi);
  }

  /// Copies up to `cap` of the lowest-index bits of (src AND NOT this) in
  /// [lo, hi) into this. Returns how many bits were copied. This is the
  /// "transfer oldest updates first" primitive of the exchange protocols.
  std::size_t transfer_from(const DynamicBitset& src, std::size_t lo,
                            std::size_t hi, std::size_t cap) noexcept {
    return simd::transfer_range_words(words_.data(), src.words_.data(), lo, hi,
                                      cap);
  }

  /// this |= src restricted to [lo, hi).
  void or_range(const DynamicBitset& src, std::size_t lo, std::size_t hi) noexcept {
    simd::or_range_words(words_.data(), src.words_.data(), lo, hi);
  }

 private:
  void trim() noexcept {
    const std::size_t extra = words_.size() * 64 - bits_;
    if (extra > 0 && !words_.empty()) {
      words_.back() &= ~std::uint64_t{0} >> extra;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lotus::sim
