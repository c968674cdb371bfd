#include "crypto/hash.h"

namespace lotus::crypto {

std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept {
  return Hasher{}.update_bytes(data).digest();
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

Hasher& Hasher::update_bytes(std::span<const std::uint8_t> data) noexcept {
  for (const std::uint8_t b : data) {
    state_ ^= b;
    state_ *= kFnvPrime;
  }
  return *this;
}

}  // namespace lotus::crypto
