// Tests for the Section 3 token-collecting model: satiation functions,
// allocations, attackers, and the round engine.
#include <gtest/gtest.h>

#include <memory>

#include "net/analysis.h"
#include "net/topology.h"
#include "token/allocation.h"
#include "token/attack.h"
#include "token/model.h"
#include "token/satiation.h"

namespace lotus::token {
namespace {

sim::DynamicBitset bits(std::size_t size,
                        std::initializer_list<std::size_t> set) {
  sim::DynamicBitset b{size};
  for (const auto i : set) b.set(i);
  return b;
}

TEST(Satiation, CompleteSet) {
  const CompleteSetSatiation sat;
  EXPECT_FALSE(sat.satiated(0, 0, bits(4, {0, 1})));
  EXPECT_TRUE(sat.satiated(0, 0, bits(4, {0, 1, 2, 3})));
}

TEST(Satiation, Threshold) {
  const ThresholdSatiation sat{2};
  EXPECT_FALSE(sat.satiated(0, 0, bits(4, {3})));
  EXPECT_TRUE(sat.satiated(0, 0, bits(4, {1, 3})));
  EXPECT_TRUE(sat.satiated(0, 0, bits(4, {0, 1, 2})));
}

TEST(Satiation, CodedRankNeedsAnyK) {
  const CodedRankSatiation sat{3};
  // Any 3 distinct blocks satiate — identity of blocks is irrelevant.
  EXPECT_TRUE(sat.satiated(0, 0, bits(8, {0, 1, 2})));
  EXPECT_TRUE(sat.satiated(0, 0, bits(8, {5, 6, 7})));
  EXPECT_FALSE(sat.satiated(0, 0, bits(8, {5, 6})));
}

TEST(Satiation, LambdaWrapper) {
  const LambdaSatiation sat{[](NodeId node, Round, const sim::DynamicBitset& t) {
    return node == 7 || t.count() >= 1;
  }};
  EXPECT_TRUE(sat.satiated(7, 0, bits(4, {})));
  EXPECT_FALSE(sat.satiated(3, 0, bits(4, {})));
  EXPECT_TRUE(sat.satiated(3, 0, bits(4, {2})));
}

// Monotonicity property for the shipped satiation functions: adding tokens
// never un-satiates (required by the paper's definition).
struct SatiationCase {
  const char* name;
  std::shared_ptr<SatiationFunction> function;
};

// Print a case by its name. The default printer shows the object's address,
// which differs per process and would leak into the discovered ctest names.
void PrintTo(const SatiationCase& param, std::ostream* os) {
  *os << param.name;
}

class SatiationMonotonicity : public ::testing::TestWithParam<SatiationCase> {};

TEST_P(SatiationMonotonicity, AddingTokensPreservesSatiation) {
  const auto& sat = *GetParam().function;
  sim::Rng rng{17};
  for (int trial = 0; trial < 100; ++trial) {
    sim::DynamicBitset t{16};
    for (std::size_t i = 0; i < 16; ++i) {
      if (rng.next_bernoulli(0.5)) t.set(i);
    }
    const bool before = sat.satiated(1, 3, t);
    auto grown = t;
    grown.set(rng.next_below(16));
    if (before) {
      EXPECT_TRUE(sat.satiated(1, 3, grown));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedFunctions, SatiationMonotonicity,
    ::testing::Values(
        SatiationCase{"complete_set", std::make_shared<CompleteSetSatiation>()},
        SatiationCase{"threshold", std::make_shared<ThresholdSatiation>(4)},
        SatiationCase{"coded_rank", std::make_shared<CodedRankSatiation>(6)}));

TEST(Allocation, UniformReplicasMultiplicity) {
  sim::Rng rng{3};
  const auto alloc = allocate_uniform_replicas(50, 20, 4, rng);
  const auto mult = token_multiplicities(alloc, 20);
  for (const auto m : mult) EXPECT_EQ(m, 4u);
}

TEST(Allocation, OneHolderEach) {
  const auto alloc = allocate_one_holder_each(10, 25);
  const auto mult = token_multiplicities(alloc, 25);
  for (const auto m : mult) EXPECT_EQ(m, 1u);
  EXPECT_TRUE(alloc[3].test(3));
  EXPECT_TRUE(alloc[3].test(13));
  EXPECT_TRUE(alloc[3].test(23));
}

TEST(Allocation, RareToken) {
  sim::Rng rng{5};
  const auto alloc = allocate_with_rare_token(40, 10, 5, 7, 12, rng);
  const auto mult = token_multiplicities(alloc, 10);
  EXPECT_EQ(mult[7], 1u);
  EXPECT_TRUE(alloc[12].test(7));
  for (std::size_t t = 0; t < 10; ++t) {
    if (t != 7) {
      EXPECT_EQ(mult[t], 5u);
    }
  }
}

TEST(Allocation, RejectsBadArguments) {
  sim::Rng rng{1};
  EXPECT_THROW(allocate_uniform_replicas(10, 5, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(allocate_uniform_replicas(10, 5, 11, rng),
               std::invalid_argument);
  EXPECT_THROW(allocate_with_rare_token(10, 5, 2, 9, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(allocate_with_rare_token(10, 5, 2, 1, 99, rng),
               std::invalid_argument);
}

TEST(Allocation, ClusteredStaysLocal) {
  sim::Rng rng{7};
  const auto alloc = allocate_clustered(100, 10, 3, 5, rng);
  // Token 0 centred at node 0: replicas within [0, 5).
  for (NodeId v = 10; v < 90; ++v) EXPECT_FALSE(alloc[v].test(0));
}

ModelConfig small_model_config() {
  ModelConfig c;
  c.tokens = 24;
  c.contact_bound = 2;
  c.max_rounds = 200;
  c.seed = 11;
  return c;
}

TEST(Model, BaselineMostNodesSatiate) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(60, 0.15, rng);
  ASSERT_TRUE(net::is_connected(graph));
  sim::Rng alloc_rng{2};
  auto alloc = allocate_uniform_replicas(60, 24, 3, alloc_rng);
  const TokenModel model{graph, small_model_config(), std::move(alloc),
                         std::make_shared<CompleteSetSatiation>()};
  NullAttacker none;
  const auto result = model.run(none);
  // Even unattacked, a = 0 can strand the last collectors once their
  // neighbours satiate — exactly the §4 remark that systems "may experience
  // difficulties even without an attack if key nodes happen to become
  // satiated". Most of the population must still finish.
  EXPECT_GT(result.satiated_fraction(), 0.8);
  EXPECT_GT(result.mean_coverage(24), 0.9);
}

TEST(Model, BaselineWithAltruismEveryoneSatiates) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(60, 0.15, rng);
  sim::Rng alloc_rng{2};
  auto alloc = allocate_uniform_replicas(60, 24, 3, alloc_rng);
  auto config = small_model_config();
  config.altruism = 0.1;  // §3: any a > 0 ends with all nodes satiated
  const TokenModel model{graph, config, std::move(alloc),
                         std::make_shared<CompleteSetSatiation>()};
  NullAttacker none;
  const auto result = model.run(none);
  EXPECT_TRUE(result.all_satiated);
  EXPECT_DOUBLE_EQ(result.satiated_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(result.mean_coverage(24), 1.0);
}

TEST(Model, DeterministicGivenSeed) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(40, 0.2, rng);
  sim::Rng alloc_rng{2};
  const auto alloc = allocate_uniform_replicas(40, 24, 3, alloc_rng);
  const TokenModel model{graph, small_model_config(), alloc,
                         std::make_shared<CompleteSetSatiation>()};
  FractionAttacker a{0.4};
  FractionAttacker b{0.4};
  const auto r1 = model.run(a);
  const auto r2 = model.run(b);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
}

TEST(Model, MassSatiationHurtsUntargeted) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(80, 0.1, rng);
  sim::Rng alloc_rng{2};
  const auto alloc = allocate_uniform_replicas(80, 32, 3, alloc_rng);
  auto config = small_model_config();
  config.tokens = 32;
  config.max_rounds = 40;
  const TokenModel model{graph, config, alloc,
                         std::make_shared<CompleteSetSatiation>()};
  NullAttacker none;
  FractionAttacker attacker{0.7};
  const auto baseline = model.run(none);
  const auto attacked = model.run(attacker);
  EXPECT_GT(baseline.untargeted_satiated_fraction(),
            attacked.untargeted_satiated_fraction());
}

TEST(Model, AltruismRestoresCompletion) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(80, 0.1, rng);
  sim::Rng alloc_rng{2};
  const auto alloc = allocate_uniform_replicas(80, 32, 3, alloc_rng);
  auto config = small_model_config();
  config.tokens = 32;
  config.max_rounds = 300;
  auto altruistic = config;
  altruistic.altruism = 0.3;

  FractionAttacker a1{0.7};
  const TokenModel stingy{graph, config, alloc,
                          std::make_shared<CompleteSetSatiation>()};
  const auto stingy_result = stingy.run(a1);

  FractionAttacker a2{0.7};
  const TokenModel generous{graph, altruistic, alloc,
                            std::make_shared<CompleteSetSatiation>()};
  const auto generous_result = generous.run(a2);

  // §3: any a > 0 ends with all nodes satiated; a = 0 can freeze.
  EXPECT_TRUE(generous_result.all_satiated);
  EXPECT_GE(generous_result.untargeted_satiated_fraction(),
            stingy_result.untargeted_satiated_fraction());
}

TEST(Model, CutAttackPartitionsGrid) {
  // 8x8 grid, tokens clustered on the left; satiate the middle column and
  // the right side never collects the left-side tokens (a = 0).
  const std::size_t rows = 8;
  const std::size_t cols = 8;
  const auto graph = net::make_grid(rows, cols);
  auto config = small_model_config();
  config.tokens = 8;
  config.max_rounds = 100;
  // All 8 tokens held only by column-0 nodes.
  Allocation alloc(rows * cols, sim::DynamicBitset{8});
  for (std::size_t r = 0; r < rows; ++r) {
    alloc[r * cols].set(r % 8);
  }
  const TokenModel model{graph, config, alloc,
                         std::make_shared<CompleteSetSatiation>()};
  SetAttacker attacker{"column-cut",
                       net::grid_column_cut(rows, cols, 3)};
  const auto result = model.run(attacker);
  EXPECT_FALSE(result.all_satiated);
  // Nodes right of the cut never complete.
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_GT(result.completion_round[r * cols + 5], config.max_rounds);
  }
}

TEST(Model, RareTokenAttackDeniesToken) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(60, 0.15, rng);
  sim::Rng alloc_rng{2};
  const auto alloc =
      allocate_with_rare_token(60, 16, 4, /*rare_token=*/3,
                               /*rare_holder=*/10, alloc_rng);
  auto config = small_model_config();
  config.tokens = 16;
  config.max_rounds = 60;
  const TokenModel model{graph, config, alloc,
                         std::make_shared<CompleteSetSatiation>()};
  RareTokenAttacker attacker;
  const auto result = model.run(attacker);
  EXPECT_EQ(attacker.chosen_token(), 3u);
  // Only the (satiated) holder has token 3; nobody else ever gets it.
  for (NodeId v = 0; v < 60; ++v) {
    if (v == 10) continue;
    EXPECT_FALSE(result.holdings[v].test(3)) << "node " << v;
  }
  EXPECT_FALSE(result.all_satiated);
}

TEST(Model, CodedSatiationDefeatsRareToken) {
  // Same rare-token allocation, but with coding a node needs any 12 of 16
  // blocks — denying one block no longer denies completion (§4). Contrast
  // with the complete-set run above where *nobody* untargeted finishes.
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(60, 0.15, rng);
  sim::Rng alloc_rng{2};
  const auto alloc =
      allocate_with_rare_token(60, 16, 4, 3, 10, alloc_rng);
  auto config = small_model_config();
  config.tokens = 16;
  config.max_rounds = 60;
  RareTokenAttacker complete_attacker;
  const TokenModel complete_model{graph, config, alloc,
                                  std::make_shared<CompleteSetSatiation>()};
  const auto complete_result = complete_model.run(complete_attacker);
  EXPECT_DOUBLE_EQ(complete_result.untargeted_satiated_fraction(), 0.0);

  RareTokenAttacker coded_attacker;
  const TokenModel coded_model{graph, config, alloc,
                               std::make_shared<CodedRankSatiation>(12)};
  const auto coded_result = coded_model.run(coded_attacker);
  EXPECT_GT(coded_result.untargeted_satiated_fraction(), 0.8);
}

TEST(Model, ContactBoundScalesSpread) {
  sim::Rng rng{1};
  const auto graph = net::make_erdos_renyi(80, 0.2, rng);
  sim::Rng alloc_rng{2};
  const auto alloc = allocate_uniform_replicas(80, 40, 2, alloc_rng);
  auto slow_config = small_model_config();
  slow_config.tokens = 40;
  slow_config.contact_bound = 1;
  slow_config.altruism = 0.1;  // guarantee both runs complete (§3)
  auto fast_config = slow_config;
  fast_config.contact_bound = 4;
  NullAttacker n1;
  NullAttacker n2;
  const auto slow = TokenModel{graph, slow_config, alloc,
                               std::make_shared<CompleteSetSatiation>()}
                        .run(n1);
  const auto fast = TokenModel{graph, fast_config, alloc,
                               std::make_shared<CompleteSetSatiation>()}
                        .run(n2);
  EXPECT_TRUE(fast.all_satiated);
  EXPECT_LT(fast.rounds_run, slow.rounds_run);
}

TEST(Model, RotatingAttackerCyclesTargets) {
  sim::Rng rng{1};
  const auto graph = net::make_complete(20);
  RotatingAttacker attacker{0.25, 2};
  AttackerView view{&graph, nullptr, 0};
  sim::Rng prep_rng{9};
  attacker.prepare(view, prep_rng);
  sim::Rng round_rng{10};
  const auto t0 = attacker.targets(0, round_rng);
  const auto t2 = attacker.targets(2, round_rng);
  EXPECT_EQ(t0.size(), 5u);
  EXPECT_EQ(t2.size(), 5u);
  EXPECT_NE(t0, t2);
  // Same window within a period.
  EXPECT_EQ(attacker.targets(1, round_rng), t0);
}

TEST(Model, RejectsMismatchedAllocation) {
  const auto graph = net::make_complete(5);
  auto config = small_model_config();
  config.tokens = 4;
  Allocation wrong_count(4, sim::DynamicBitset{4});
  EXPECT_THROW((TokenModel{graph, config, wrong_count,
                           std::make_shared<CompleteSetSatiation>()}),
               std::invalid_argument);
  Allocation wrong_width(5, sim::DynamicBitset{7});
  EXPECT_THROW((TokenModel{graph, config, wrong_width,
                           std::make_shared<CompleteSetSatiation>()}),
               std::invalid_argument);
  Allocation good(5, sim::DynamicBitset{4});
  EXPECT_THROW((TokenModel{graph, config, good, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lotus::token
