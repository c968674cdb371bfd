// Tests for the BitTorrent swarm substrate and the unchoke-monopoly attack.
#include <gtest/gtest.h>

#include "bt/swarm.h"

namespace lotus::bt {
namespace {

SwarmConfig small_swarm() {
  SwarmConfig c;
  c.leechers = 30;
  c.seeds = 2;
  c.pieces = 60;
  c.max_rounds = 600;
  c.seed_value = 5;
  return c;
}

TEST(Swarm, BaselineCompletes) {
  Swarm swarm{small_swarm(), SwarmAttack{}};
  const auto result = swarm.run();
  EXPECT_TRUE(result.all_completed);
  EXPECT_LT(result.rounds_to_all_complete, small_swarm().max_rounds);
  EXPECT_GT(result.peer_transfers, 0u);
  EXPECT_EQ(result.attacker_uploads, 0u);
}

TEST(Swarm, Deterministic) {
  Swarm a{small_swarm(), SwarmAttack{}};
  Swarm b{small_swarm(), SwarmAttack{}};
  EXPECT_EQ(a.run().rounds_to_all_complete, b.run().rounds_to_all_complete);
}

TEST(Swarm, SeedChangesOutcome) {
  // Total transfer count is invariant (every leecher fetches every piece
  // exactly once), so compare the completion trajectory instead.
  auto config = small_swarm();
  Swarm a{config, SwarmAttack{}};
  config.seed_value = 6;
  Swarm b{config, SwarmAttack{}};
  EXPECT_NE(a.run().completion_round, b.run().completion_round);
}

TEST(Swarm, RejectsDegenerateConfigs) {
  auto config = small_swarm();
  config.leechers = 0;
  EXPECT_THROW((Swarm{config, SwarmAttack{}}), std::invalid_argument);
  config = small_swarm();
  config.pieces = 0;
  EXPECT_THROW((Swarm{config, SwarmAttack{}}), std::invalid_argument);
  config = small_swarm();
  SwarmAttack attack;
  attack.enabled = true;
  attack.attacker_peers = 2;
  attack.target_count = config.leechers + 1;
  EXPECT_THROW((Swarm{config, attack}), std::invalid_argument);
}

TEST(Swarm, RarestFirstBeatsRandomOnTail) {
  auto rarest = small_swarm();
  rarest.selection = PieceSelection::kRarestFirst;
  auto random = small_swarm();
  random.selection = PieceSelection::kRandom;
  const auto rarest_result = Swarm{rarest, SwarmAttack{}}.run();
  const auto random_result = Swarm{random, SwarmAttack{}}.run();
  ASSERT_TRUE(rarest_result.all_completed);
  // Rarest-first keeps the scarcest piece better replicated while the swarm
  // runs (the §4 "last pieces" mitigation).
  EXPECT_GT(rarest_result.mean_rarest_copies,
            random_result.mean_rarest_copies);
  EXPECT_LE(rarest_result.rounds_to_all_complete,
            random_result.rounds_to_all_complete + 5);
}

TEST(Swarm, UnchokeMonopolySpeedsUpTargets) {
  auto config = small_swarm();
  SwarmAttack attack;
  attack.enabled = true;
  attack.attacker_peers = 3;
  attack.attacker_slots = 4;
  attack.target_count = 6;
  Swarm swarm{config, attack};
  const auto result = swarm.run();
  ASSERT_TRUE(result.all_completed);
  // Targets are showered with pieces: they finish sooner than the rest.
  EXPECT_LT(result.mean_completion_targeted,
            result.mean_completion_untargeted);
  EXPECT_GT(result.attacker_uploads, 0u);
  EXPECT_GT(result.uploads_captured_by_attacker, 0u);
}

TEST(Swarm, AttackDoesModestDamage) {
  // The paper's §1 claim: despite capturing the targets' unchoke slots, the
  // attack barely hurts the rest of the swarm — the attacker's own upload
  // often makes it a net wash or better.
  const auto baseline = Swarm{small_swarm(), SwarmAttack{}}.run();
  auto config = small_swarm();
  SwarmAttack attack;
  attack.enabled = true;
  attack.attacker_peers = 3;
  attack.attacker_slots = 4;
  attack.target_count = 6;
  const auto attacked = Swarm{config, attack}.run();
  ASSERT_TRUE(baseline.all_completed);
  ASSERT_TRUE(attacked.all_completed);
  const double baseline_mean = baseline.mean_completion_untargeted;
  const double attacked_mean = attacked.mean_completion_untargeted;
  EXPECT_LT(attacked_mean, baseline_mean * 1.35);
}

TEST(Swarm, SeedingAfterCompletionHelps) {
  auto leave = small_swarm();
  leave.seed_after_completion_rounds = 0;
  auto stay = small_swarm();
  stay.seed_after_completion_rounds = 50;
  const auto leave_result = Swarm{leave, SwarmAttack{}}.run();
  const auto stay_result = Swarm{stay, SwarmAttack{}}.run();
  ASSERT_TRUE(stay_result.all_completed);
  EXPECT_LE(stay_result.rounds_to_all_complete,
            leave_result.rounds_to_all_complete);
}

TEST(Swarm, MoreSeedsFinishFaster) {
  auto few = small_swarm();
  few.seeds = 1;
  auto many = small_swarm();
  many.seeds = 6;
  const auto few_result = Swarm{few, SwarmAttack{}}.run();
  const auto many_result = Swarm{many, SwarmAttack{}}.run();
  ASSERT_TRUE(many_result.all_completed);
  EXPECT_LE(many_result.rounds_to_all_complete,
            few_result.rounds_to_all_complete);
}

// Property: the swarm completes across piece-selection policies and sizes.
struct SwarmCase {
  const char* name;
  PieceSelection selection;
  std::uint32_t leechers;
  std::uint32_t pieces;
};

// Print a case by its name. The default byte dump holds the name pointer,
// which differs per process and would leak into the discovered ctest names.
void PrintTo(const SwarmCase& param, std::ostream* os) { *os << param.name; }

class SwarmCompletes : public ::testing::TestWithParam<SwarmCase> {};

TEST_P(SwarmCompletes, AllLeechersFinish) {
  const auto& param = GetParam();
  SwarmConfig config;
  config.leechers = param.leechers;
  config.pieces = param.pieces;
  config.seeds = 2;
  config.selection = param.selection;
  config.max_rounds = 2000;
  config.seed_value = 11;
  Swarm swarm{config, SwarmAttack{}};
  const auto result = swarm.run();
  EXPECT_TRUE(result.all_completed) << param.name;
  for (const auto round : result.completion_round) {
    EXPECT_LT(round, config.max_rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SwarmCompletes,
    ::testing::Values(SwarmCase{"rarest_small", PieceSelection::kRarestFirst,
                                10, 20},
                      SwarmCase{"random_small", PieceSelection::kRandom, 10,
                                20},
                      SwarmCase{"rarest_medium", PieceSelection::kRarestFirst,
                                40, 80},
                      SwarmCase{"random_medium", PieceSelection::kRandom, 40,
                                80}),
    [](const ::testing::TestParamInfo<SwarmCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lotus::bt
