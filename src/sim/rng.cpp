#include "sim/rng.h"

#include <cmath>
#include <numbers>
#include <utility>

namespace lotus::sim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = split_mix64(sm);
  // A zero state is a fixed point of xoshiro; SplitMix64 cannot produce four
  // zero outputs from any seed, so no further check is needed.
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

namespace {
/// Lemire's method (multiply-shift with rejection of the biased low range).
/// Requires bound > 0.
inline std::uint64_t draw_below(Rng& rng, std::uint64_t bound) noexcept {
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) [[unlikely]] {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = rng();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}
}  // namespace

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  return draw_below(*this, bound);
}

void Rng::fill_below_descending(std::uint64_t first_bound,
                                std::span<std::uint64_t> out) noexcept {
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = k < first_bound ? draw_below(*this, first_bound - k) : 0;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::next_bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

void Rng::fill_bernoulli(double p, std::span<std::uint8_t> out) noexcept {
  for (auto& v : out) v = next_bernoulli(p) ? 1 : 0;
}

double Rng::next_normal() noexcept {
  // Box-Muller; discard the second variate to keep the state trajectory
  // independent of call interleaving.
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::next_exponential(double rate) noexcept {
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -std::log(u) / rate;
}

std::uint64_t Rng::next_geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

std::span<const std::uint32_t> Rng::sample_without_replacement(
    std::uint32_t n, std::uint32_t k, SampleScratch& scratch) {
  auto& out = scratch.picks;
  out.clear();
  if (k == 0 || n == 0) return out;
  if (k > n) k = n;
  out.reserve(k);
  if (std::uint64_t{k} * 3 >= n) {
    // Dense case: partial Fisher-Yates over an explicit index array.
    auto& idx = scratch.index;
    idx.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) idx[i] = i;
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto j =
          i + static_cast<std::uint32_t>(next_below(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  // Sparse case: Floyd's algorithm. Every earlier pick is below i, so i
  // itself is never in `seen` when a duplicate candidate falls back to it.
  auto& seen = scratch.seen;
  if (seen.size() * 64 < n) seen.resize((std::size_t{n} + 63) / 64);
  for (std::uint32_t i = n - k; i < n; ++i) {
    const auto candidate = static_cast<std::uint32_t>(next_below(i + 1));
    const bool taken = (seen[candidate >> 6] >> (candidate & 63)) & 1;
    const std::uint32_t pick = taken ? i : candidate;
    seen[pick >> 6] |= std::uint64_t{1} << (pick & 63);
    out.push_back(pick);
  }
  // Leave the seen-set all zero for the next call: only the words holding
  // our picks have bits set.
  for (const std::uint32_t pick : out) seen[pick >> 6] = 0;
  return out;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  SampleScratch scratch;
  (void)sample_without_replacement(n, k, scratch);
  return std::move(scratch.picks);
}

std::size_t Rng::next_weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return weights.size();
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  // Floating-point underrun: fall back to the last positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream) noexcept {
  std::uint64_t state = parent ^ (0x9e3779b97f4a7c15ULL + stream);
  const std::uint64_t a = split_mix64(state);
  return a ^ split_mix64(state);
}

}  // namespace lotus::sim
