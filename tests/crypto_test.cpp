// Tests for the simulation-grade crypto substrate: hashing, signatures,
// exchange records, and the verifiable partner schedule.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "crypto/hash.h"
#include "crypto/partner.h"
#include "crypto/sign.h"
#include "sim/rng.h"

namespace lotus::crypto {
namespace {

TEST(Hash, DeterministicAndSpread) {
  EXPECT_EQ(hash_string("lotus"), hash_string("lotus"));
  EXPECT_NE(hash_string("lotus"), hash_string("eater"));
  EXPECT_NE(hash_string(""), hash_string("a"));
}

TEST(Hash, WordsOrderSensitive) {
  EXPECT_NE(hash_words({1, 2}), hash_words({2, 1}));
  EXPECT_NE(hash_words({1}), hash_words({1, 0}));
}

TEST(Hash, IncrementalMatchesSelf) {
  Hasher a;
  a.update(42).update(7);
  Hasher b;
  b.update(42).update(7);
  EXPECT_EQ(a.digest(), b.digest());
}

/// FNV-1a over the eight little-endian bytes of each word, one byte at a
/// time, then the SplitMix64 finaliser: the hash Hasher implements, written
/// out independently of its 4-byte fast path.
std::uint64_t byte_loop_model(std::initializer_list<std::uint64_t> words) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      state ^= (w >> (i * 8)) & 0xff;
      state *= 0x100000001b3ULL;
    }
  }
  return sim::split_mix64(state);
}

constexpr std::uint64_t kWordsTag = 0x776f726473ULL;  // "words"

TEST(Hash, UpdateMatchesByteLoopModel) {
  // Random words nearly always have high bits set (the 8-byte path); the
  // edge words and every other random word cut to 32 bits take the
  // zero-high fast path, on each side of the boundary.
  std::vector<std::uint64_t> words{0,         1,         0xffffffffULL,
                                   1ULL << 32, ~0ULL};
  sim::Rng rng{31};
  for (int k = 0; k < 10000; ++k) {
    const std::uint64_t w = rng();
    words.push_back(k % 2 == 0 ? w : w & 0xffffffffULL);
  }
  std::uint64_t prev = 0;
  for (const std::uint64_t w : words) {
    ASSERT_EQ(Hasher{}.update(w).digest(), byte_loop_model({w})) << w;
    ASSERT_EQ(Hasher{}.update(prev).update(w).digest(),
              byte_loop_model({prev, w}))
        << prev << " then " << w;
    ASSERT_EQ(hash_words({prev, w}), byte_loop_model({kWordsTag, prev, w}));
    prev = w;
  }
}

TEST(Hash, ByteAndWordDomainsSeparated) {
  // hash_bytes of the little-endian encoding must not equal hash_words.
  const std::array<std::uint8_t, 8> bytes{1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_NE(hash_bytes(bytes), hash_words({1}));
}

TEST(Hash, AvalancheOnSingleBit) {
  // Flipping one input bit should flip roughly half the output bits.
  const auto a = hash_words({0x1234});
  const auto b = hash_words({0x1235});
  const int flipped = std::popcount(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(Registry, DistinctSecrets) {
  const KeyRegistry registry{16, 1};
  std::set<std::uint64_t> secrets;
  for (PublicId id = 0; id < 16; ++id) {
    secrets.insert(registry.key_of(id).secret);
  }
  EXPECT_EQ(secrets.size(), 16u);
  EXPECT_THROW((void)registry.key_of(16), std::out_of_range);
}

TEST(Registry, SignVerifyRoundTrip) {
  const KeyRegistry registry{4, 7};
  const auto key = registry.key_of(2);
  const auto sig = registry.sign(key, 12345);
  EXPECT_TRUE(registry.verify(2, 12345, sig));
  EXPECT_FALSE(registry.verify(2, 12346, sig));   // different message
  EXPECT_FALSE(registry.verify(1, 12345, sig));   // different signer
  EXPECT_FALSE(registry.verify(2, 12345, sig ^ 1));  // tampered signature
  EXPECT_FALSE(registry.verify(99, 12345, sig));  // unknown principal
}

TEST(Records, DualSignedRoundTrip) {
  const KeyRegistry registry{8, 3};
  const auto record = make_record(registry, 5, 1, 2, 40);
  EXPECT_TRUE(verify_record(registry, record));
  auto tampered = record;
  tampered.updates_given = 10;  // claim less service than proven
  EXPECT_FALSE(verify_record(registry, tampered));
  tampered = record;
  tampered.giver = 3;  // frame someone else
  EXPECT_FALSE(verify_record(registry, tampered));
}

TEST(Records, ExcessiveServiceCheck) {
  const KeyRegistry registry{8, 3};
  const auto excessive = make_record(registry, 5, 1, 2, 40);
  const auto verdict = check_excessive_service(registry, excessive, 25);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, 1u);

  const auto modest = make_record(registry, 5, 1, 2, 10);
  EXPECT_FALSE(check_excessive_service(registry, modest, 25).has_value());

  auto forged = excessive;
  forged.giver_sig ^= 1;
  EXPECT_FALSE(check_excessive_service(registry, forged, 25).has_value());
}

TEST(Partners, NeverSelf) {
  const PartnerSchedule schedule{42, 50};
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t v = 0; v < 50; ++v) {
      EXPECT_NE(schedule.partner_of(round, v,
                                    PartnerPurpose::kBalancedExchange),
                v);
      EXPECT_NE(schedule.partner_of(round, v, PartnerPurpose::kOptimisticPush),
                v);
    }
  }
}

TEST(Partners, DeterministicAndVerifiable) {
  const PartnerSchedule schedule{42, 50};
  const auto p = schedule.partner_of(3, 7, PartnerPurpose::kBalancedExchange);
  EXPECT_EQ(schedule.partner_of(3, 7, PartnerPurpose::kBalancedExchange), p);
  EXPECT_TRUE(schedule.verify(3, 7, PartnerPurpose::kBalancedExchange, p));
  EXPECT_FALSE(
      schedule.verify(3, 7, PartnerPurpose::kBalancedExchange, (p + 1) % 50));
}

TEST(Partners, PurposesIndependent) {
  const PartnerSchedule schedule{42, 250};
  int same = 0;
  for (std::uint32_t v = 0; v < 250; ++v) {
    if (schedule.partner_of(0, v, PartnerPurpose::kBalancedExchange) ==
        schedule.partner_of(0, v, PartnerPurpose::kOptimisticPush)) {
      ++same;
    }
  }
  EXPECT_LT(same, 10);  // coincidences only
}

TEST(Partners, RoughlyUniform) {
  const PartnerSchedule schedule{7, 10};
  std::array<int, 10> counts{};
  for (std::uint32_t round = 0; round < 3000; ++round) {
    ++counts[schedule.partner_of(round, 0,
                                 PartnerPurpose::kBalancedExchange)];
  }
  EXPECT_EQ(counts[0], 0);  // never self
  for (std::uint32_t v = 1; v < 10; ++v) {
    EXPECT_NEAR(counts[v], 3000 / 9, 120);
  }
}

TEST(Partners, TwoNodeSystem) {
  const PartnerSchedule schedule{1, 2};
  EXPECT_EQ(schedule.partner_of(0, 0, PartnerPurpose::kBalancedExchange), 1u);
  EXPECT_EQ(schedule.partner_of(0, 1, PartnerPurpose::kBalancedExchange), 0u);
}

TEST(Partners, MatchesHashWordsFormula) {
  // The partner is hash_words({seed, round, initiator, purpose}) onto the
  // other n - 1 nodes. hash_words and the schedule share Hasher's fast
  // path, so the expected value comes from the byte-loop model above.
  sim::Rng rng{2008};
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t seed = rng();
    const auto n = static_cast<std::uint32_t>(
        t % 4 == 0 ? rng() : rng.next_below(200000)) | 2u;
    const auto round = static_cast<std::uint32_t>(rng());
    const auto initiator = static_cast<std::uint32_t>(rng.next_below(n));
    const auto purpose = rng.next_bernoulli(0.5)
                             ? PartnerPurpose::kBalancedExchange
                             : PartnerPurpose::kOptimisticPush;
    const auto slot = static_cast<std::uint32_t>(
        byte_loop_model({kWordsTag, seed, round, initiator,
                         static_cast<std::uint64_t>(purpose)}) %
        (n - 1));
    const std::uint32_t expected = slot >= initiator ? slot + 1 : slot;
    const PartnerSchedule schedule{seed, n};
    EXPECT_EQ(schedule.partner_of(round, initiator, purpose), expected)
        << "seed " << seed << " n " << n << " round " << round;
    EXPECT_EQ(schedule.phase(round, purpose)(initiator), expected);
  }
}

TEST(Partners, RecordedValues) {
  // Recorded before the seed prefix was hoisted. These also fail if
  // hash_words itself changes, which the formula test above cannot see.
  struct Case {
    std::uint64_t seed;
    std::uint32_t n, round, initiator;
    PartnerPurpose purpose;
    std::uint32_t partner;
  };
  constexpr auto kExchange = PartnerPurpose::kBalancedExchange;
  constexpr auto kPush = PartnerPurpose::kOptimisticPush;
  const Case cases[] = {
      {1, 250, 0, 0, kExchange, 172},
      {1, 250, 0, 0, kPush, 36},
      {42, 50, 3, 7, kExchange, 31},
      {7, 10, 999, 9, kPush, 7},
      {20080806, 100000, 123, 54321, kExchange, 79654},
      {20080806, 100000, 123, 54321, kPush, 77673},
      {0xdeadbeefcafef00dULL, 4294967295u, 4000000000u, 4294967294u,
       kExchange, 2031250488},
      {3, 2, 5, 1, kPush, 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(PartnerSchedule(c.seed, c.n).partner_of(c.round, c.initiator,
                                                      c.purpose),
              c.partner)
        << "seed " << c.seed << " n " << c.n;
  }
}

// Property: the schedule cannot be biased by the initiator — across many
// seeds, node 0's partner histogram stays near uniform. (This is what makes
// the lotus-eater trade attack need *many* nodes: the attacker cannot choose
// to meet satiated nodes.)
class PartnerUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartnerUniformity, HistogramNearUniform) {
  const PartnerSchedule schedule{GetParam(), 25};
  std::array<int, 25> counts{};
  for (std::uint32_t round = 0; round < 2400; ++round) {
    ++counts[schedule.partner_of(round, 0,
                                 PartnerPurpose::kBalancedExchange)];
  }
  for (std::uint32_t v = 1; v < 25; ++v) {
    EXPECT_NEAR(counts[v], 100, 45) << "seed " << GetParam() << " node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartnerUniformity,
                         ::testing::Values(1u, 2u, 3u, 99u, 1234567u));

}  // namespace
}  // namespace lotus::crypto
