// Deterministic random number generation for reproducible simulations.
//
// All experiments in this repository are seeded: the same (seed, parameters)
// pair always produces the same trajectory, byte for byte. We provide our own
// generator rather than std::mt19937 so results are stable across standard
// library implementations and so the distributions used by the simulators
// (uniform integers, Bernoulli, sampling without replacement, shuffles) are
// pinned down exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace lotus::sim {

/// Caller-owned buffers for Rng::sample_without_replacement, so a caller that
/// samples every round allocates once. Between calls `seen` is all zero:
/// each call clears the words its own picks set.
struct SampleScratch {
  std::vector<std::uint32_t> picks;  // the last call's sample
  std::vector<std::uint32_t> index;  // dense case: the partial shuffle
  std::vector<std::uint64_t> seen;   // sparse case: Floyd's seen-set words
};

/// SplitMix64: a fast 64-bit mixing step, used both as a stream generator for
/// seeding and as the core of the keyed hash in lotus::crypto.
[[nodiscard]] constexpr std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Xoshiro256**: the project-wide pseudorandom generator.
///
/// Satisfies std::uniform_random_bit_generator so it can also be handed to
/// standard algorithms, though the simulators use the member distributions
/// below for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four lanes of state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Batch draw with descending bounds: out[k] is uniform in
  /// [0, first_bound - k) — exactly the variate sequence a Fisher-Yates
  /// shuffle of first_bound items consumes (bounds n, n-1, ..., 2). A loop
  /// of next_below(first_bound - k) calls, so it is stream-identical to
  /// them by construction; elements past the point where the bound reaches
  /// 0 are set to 0 without consuming the stream (as next_below(0) would).
  void fill_below_descending(std::uint64_t first_bound,
                             std::span<std::uint64_t> out) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool next_bernoulli(double p) noexcept;

  /// Batch Bernoulli: out[k] (0/1) is the k-th of out.size() sequential
  /// next_bernoulli(p) calls, including the stream behaviour at the edges —
  /// p <= 0 (all 0) and p >= 1 (all 1) consume nothing.
  void fill_bernoulli(double p, std::span<std::uint8_t> out) noexcept;

  /// Standard normal variate (Box-Muller, one value per call).
  [[nodiscard]] double next_normal() noexcept;

  /// Exponential variate with the given rate (> 0).
  [[nodiscard]] double next_exponential(double rate) noexcept;

  /// Geometric number of failures before the first success, success prob. p in (0,1].
  [[nodiscard]] std::uint64_t next_geometric(double p) noexcept;

  /// k distinct values sampled uniformly from [0, n) in selection order.
  /// k > n is clamped to n. Floyd's algorithm with a seen-bitset, O(k) once
  /// the scratch has grown to n bits; dense partial Fisher-Yates, O(n), when
  /// 3k >= n. Writes the sample into scratch.picks and returns it.
  std::span<const std::uint32_t> sample_without_replacement(
      std::uint32_t n, std::uint32_t k, SampleScratch& scratch);

  /// The same draws into a fresh vector.
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t n, std::uint32_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Index drawn proportionally to non-negative weights. Returns
  /// weights.size() if all weights are zero or the span is empty.
  [[nodiscard]] std::size_t next_weighted(std::span<const double> weights) noexcept;

  /// An independent generator derived from this one's stream; handy for
  /// giving each node / round its own stable substream.
  [[nodiscard]] Rng fork() noexcept { return Rng{(*this)()}; }

 private:
  std::uint64_t s_[4]{};
};

/// Derives a stable child seed from a parent seed and a stream label, so
/// experiments can run many independent replicas without seed collisions.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t parent,
                                        std::uint64_t stream) noexcept;

}  // namespace lotus::sim
