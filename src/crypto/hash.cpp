#include "crypto/hash.h"

#include "sim/rng.h"

namespace lotus::crypto {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t finalize(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return lotus::sim::split_mix64(s);
}
}  // namespace

std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return finalize(h);
}

std::uint64_t hash_string(std::string_view s) noexcept {
  return hash_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

Hasher words_hasher() noexcept {
  Hasher h;
  h.update(0x776f726473ULL);  // domain separation tag "words"
  return h;
}

std::uint64_t hash_words(std::initializer_list<std::uint64_t> words) noexcept {
  Hasher h = words_hasher();
  for (const auto w : words) h.update(w);
  return h.digest();
}

Hasher& Hasher::update(std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (i * 8)) & 0xff;
    state_ *= kFnvPrime;
  }
  return *this;
}

Hasher& Hasher::update_bytes(std::span<const std::uint8_t> data) noexcept {
  for (const std::uint8_t b : data) {
    state_ ^= b;
    state_ *= kFnvPrime;
  }
  return *this;
}

std::uint64_t Hasher::digest() const noexcept { return finalize(state_); }

}  // namespace lotus::crypto
