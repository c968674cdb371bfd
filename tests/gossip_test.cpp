// Unit and integration tests for the BAR Gossip engine and the §2 attacks.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "gossip/attack.h"
#include "gossip/config.h"
#include "gossip/engine.h"
#include "gossip/update_store.h"

namespace lotus::gossip {
namespace {

GossipConfig small_config() {
  GossipConfig c;
  c.nodes = 60;
  c.rounds = 60;
  c.warmup_rounds = 10;
  c.copies_seeded = 6;
  c.seed = 7;
  return c;
}

TEST(UpdateClock, ReleaseAndExpiry) {
  GossipConfig c;
  c.updates_per_round = 10;
  c.update_lifetime = 10;
  const UpdateClock clock{c};
  EXPECT_EQ(clock.release_round(0), 0u);
  EXPECT_EQ(clock.release_round(9), 0u);
  EXPECT_EQ(clock.release_round(10), 1u);
  EXPECT_EQ(clock.expiry_round(0), 10u);
  EXPECT_TRUE(clock.active_at(0, 0));
  EXPECT_TRUE(clock.active_at(0, 9));
  EXPECT_FALSE(clock.active_at(0, 10));
  EXPECT_FALSE(clock.active_at(25, 1));  // not yet released
}

TEST(UpdateClock, ActiveRangeSlides) {
  GossipConfig c;
  c.updates_per_round = 10;
  c.update_lifetime = 10;
  const UpdateClock clock{c};
  EXPECT_EQ(clock.active(0).lo, 0u);
  EXPECT_EQ(clock.active(0).hi, 10u);
  EXPECT_EQ(clock.active(9).lo, 0u);
  EXPECT_EQ(clock.active(9).hi, 100u);
  EXPECT_EQ(clock.active(10).lo, 10u);
  EXPECT_EQ(clock.active(10).hi, 110u);
}

TEST(UpdateClock, RecentAndExpiringWindows) {
  GossipConfig c;
  c.updates_per_round = 10;
  c.update_lifetime = 10;
  c.recent_window = 2;
  c.old_window = 3;
  const UpdateClock clock{c};
  const Round t = 20;
  const auto recent = clock.recent(t);
  EXPECT_EQ(recent.lo, 190u);  // rounds 19 and 20
  EXPECT_EQ(recent.hi, 210u);
  const auto old = clock.expiring_soon(t);
  // Expiring within 3 rounds: released in rounds 11, 12, 13.
  EXPECT_EQ(old.lo, clock.active(t).lo);
  EXPECT_EQ(old.hi, 140u);
}

TEST(UpdateClock, ExpiringSoonCappedByActive) {
  GossipConfig c;
  c.updates_per_round = 5;
  c.update_lifetime = 4;
  c.old_window = 10;  // wider than lifetime: everything active qualifies
  const UpdateClock clock{c};
  const auto old = clock.expiring_soon(8);
  const auto act = clock.active(8);
  EXPECT_EQ(old.lo, act.lo);
  EXPECT_EQ(old.hi, act.hi);
}

TEST(UpdateClock, MeasuredWindow) {
  GossipConfig c;
  c.updates_per_round = 10;
  c.update_lifetime = 10;
  c.rounds = 120;
  const UpdateClock clock{c};
  const auto m = clock.measured(10);
  EXPECT_EQ(m.lo, 100u);
  EXPECT_EQ(m.hi, 1100u);
}

TEST(Cast, NoAttackAllHonest) {
  sim::Rng rng{1};
  const auto cast = make_cast(small_config(), AttackPlan{}, rng);
  EXPECT_EQ(cast.attacker_count, 0u);
  for (const auto role : cast.roles) EXPECT_EQ(role, Role::kHonest);
}

TEST(Cast, CrashAttackFraction) {
  sim::Rng rng{2};
  AttackPlan plan;
  plan.kind = AttackKind::kCrash;
  plan.attacker_fraction = 0.25;
  const auto cast = make_cast(small_config(), plan, rng);
  EXPECT_EQ(cast.attacker_count, 15u);
  std::size_t crashed = 0;
  for (const auto role : cast.roles) crashed += role == Role::kCrash;
  EXPECT_EQ(crashed, 15u);
}

TEST(Cast, LotusSatiateSetIncludesAttackers) {
  sim::Rng rng{3};
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.1;
  plan.satiate_fraction = 0.7;
  const auto config = small_config();
  const auto cast = make_cast(config, plan, rng);
  std::size_t satiated = 0;
  for (std::uint32_t v = 0; v < config.nodes; ++v) {
    if (cast.roles[v] == Role::kAttacker) {
      EXPECT_TRUE(cast.satiate_set[v]);
    }
    satiated += cast.satiate_set[v];
  }
  EXPECT_EQ(satiated, 42u);  // 0.7 * 60
}

TEST(Cast, SatiateSetNotLargerThanTargetWhenAttackerHuge) {
  sim::Rng rng{4};
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.9;
  plan.satiate_fraction = 0.7;
  const auto config = small_config();
  const auto cast = make_cast(config, plan, rng);
  std::size_t satiated = 0;
  for (std::uint32_t v = 0; v < config.nodes; ++v) {
    satiated += cast.satiate_set[v];
  }
  EXPECT_EQ(satiated, 54u);  // all attacker nodes stay in the set
}

TEST(Engine, BaselineDeliversUsableStream) {
  const auto result = run_gossip(small_config(), AttackPlan{});
  EXPECT_GT(result.isolated_delivery, 0.93);
  EXPECT_GT(result.balanced_exchanges, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto a = run_gossip(small_config(), AttackPlan{});
  const auto b = run_gossip(small_config(), AttackPlan{});
  EXPECT_EQ(a.isolated_delivery, b.isolated_delivery);
  EXPECT_EQ(a.balanced_exchanges, b.balanced_exchanges);
  EXPECT_EQ(a.push_updates, b.push_updates);
}

TEST(Engine, SeedChangesTrajectory) {
  auto c = small_config();
  const auto a = run_gossip(c, AttackPlan{});
  c.seed = 8;
  const auto b = run_gossip(c, AttackPlan{});
  EXPECT_NE(a.balanced_exchanges, b.balanced_exchanges);
}

TEST(Engine, CrashAttackDegradesDelivery) {
  AttackPlan heavy;
  heavy.kind = AttackKind::kCrash;
  heavy.attacker_fraction = 0.8;
  const auto attacked = run_gossip(small_config(), heavy);
  const auto baseline = run_gossip(small_config(), AttackPlan{});
  EXPECT_LT(attacked.isolated_delivery, baseline.isolated_delivery - 0.1);
}

TEST(Engine, IdealLotusStarvesIsolatedButFeedsSatiated) {
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.2;
  plan.satiate_fraction = 0.7;
  const auto result = run_gossip(small_config(), plan);
  EXPECT_GT(result.satiated_delivery, 0.97);
  EXPECT_LT(result.isolated_delivery, result.satiated_delivery);
  EXPECT_GT(result.attacker_dump_updates, 0u);
}

TEST(Engine, IdealLotusCoverageMatchesSeedingMath) {
  // P(update reaches the attacker) = 1 - C((1-f)n, s)/C(n, s); for f = 0.2,
  // n = 250, s = 12 that is about 1 - 0.8^12 ~ 0.93.
  GossipConfig config;  // paper-scale parameters
  config.rounds = 60;
  config.seed = 5;
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.2;
  const auto result = run_gossip(config, plan);
  EXPECT_NEAR(result.attacker_coverage, 0.93, 0.04);
}

TEST(Engine, TradeLotusBetweenIdealAndCrash) {
  AttackPlan ideal;
  ideal.kind = AttackKind::kIdealLotus;
  ideal.attacker_fraction = 0.15;
  AttackPlan trade = ideal;
  trade.kind = AttackKind::kTradeLotus;
  AttackPlan crash = ideal;
  crash.kind = AttackKind::kCrash;
  const auto config = small_config();
  const auto ideal_result = run_gossip(config, ideal);
  const auto trade_result = run_gossip(config, trade);
  const auto crash_result = run_gossip(config, crash);
  // At equal strength the ideal attack hurts isolated nodes at least as much
  // as the trade attack, which hurts more than a plain crash.
  EXPECT_LE(ideal_result.isolated_delivery, trade_result.isolated_delivery + 0.02);
  EXPECT_LE(trade_result.isolated_delivery, crash_result.isolated_delivery + 0.02);
}

TEST(Engine, LargerPushSizeHelpsUnderIdealAttack) {
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.1;
  auto small_push = small_config();
  small_push.push_size = 2;
  auto big_push = small_config();
  big_push.push_size = 10;
  const auto small_result = run_gossip(small_push, plan);
  const auto big_result = run_gossip(big_push, plan);
  EXPECT_GT(big_result.isolated_delivery, small_result.isolated_delivery);
}

TEST(Engine, UnbalancedExchangeHelpsUnderTradeAttack) {
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  auto balanced = small_config();
  auto unbalanced = small_config();
  unbalanced.unbalanced_exchange = true;
  const auto balanced_result = run_gossip(balanced, plan);
  const auto unbalanced_result = run_gossip(unbalanced, plan);
  EXPECT_GE(unbalanced_result.isolated_delivery,
            balanced_result.isolated_delivery);
}

TEST(Engine, ReportingEvictsTradeAttackers) {
  auto config = small_config();
  config.reporting_enabled = true;
  config.service_limit = 20;
  config.obedient_fraction = 1.0;
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.2;
  const auto defended = run_gossip(config, plan);
  EXPECT_GT(defended.reports_filed, 0u);
  // Attackers whose dumps land on already-current targets move few updates
  // and stay under the limit, so eviction need not be total — but most of
  // the attacker population should be caught, and delivery should recover.
  EXPECT_GT(defended.attackers_evicted, defended.attacker_nodes / 2);
  auto undefended_config = config;
  undefended_config.reporting_enabled = false;
  const auto undefended = run_gossip(undefended_config, plan);
  EXPECT_GE(defended.isolated_delivery, undefended.isolated_delivery);
}

TEST(Engine, NoReportsWithoutObedientNodes) {
  auto config = small_config();
  config.reporting_enabled = true;
  config.service_limit = 20;
  config.obedient_fraction = 0.0;  // all rational: nobody reports
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.2;
  const auto result = run_gossip(config, plan);
  EXPECT_EQ(result.reports_filed, 0u);
  EXPECT_EQ(result.attackers_evicted, 0u);
}

TEST(Engine, ServiceCapLimitsTradeDumps) {
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  auto uncapped = small_config();
  auto capped = small_config();
  // A cap chosen to bind the attacker's full dumps but not typical honest
  // exchanges. (A very tight cap throttles honest nodes too — the paper's
  // noted tradeoff for the rate-limiting defence.)
  capped.service_cap = 12;
  const auto uncapped_result = run_gossip(uncapped, plan);
  const auto capped_result = run_gossip(capped, plan);
  EXPECT_LT(capped_result.attacker_dump_updates,
            uncapped_result.attacker_dump_updates);
  EXPECT_GE(capped_result.isolated_delivery,
            uncapped_result.isolated_delivery - 0.05);
}

TEST(Engine, RejectsDegenerateConfigs) {
  GossipConfig c = small_config();
  c.nodes = 1;
  EXPECT_THROW((GossipEngine{c, AttackPlan{}}), std::invalid_argument);
  c = small_config();
  c.update_lifetime = 0;
  EXPECT_THROW((GossipEngine{c, AttackPlan{}}), std::invalid_argument);
  c = small_config();
  c.copies_seeded = c.nodes + 1;
  EXPECT_THROW((GossipEngine{c, AttackPlan{}}), std::invalid_argument);
  c = small_config();
  c.updates_per_round = 0;
  EXPECT_THROW((GossipEngine{c, AttackPlan{}}), std::invalid_argument);
  // An empty measured window (rounds <= warmup_rounds + update_lifetime) is
  // rejected up front, naming all three fields, not after the whole run.
  c = small_config();
  c.rounds = c.warmup_rounds + c.update_lifetime;
  try {
    GossipEngine engine{c, AttackPlan{}};
    ADD_FAILURE() << "empty measured window accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rounds"), std::string::npos) << what;
    EXPECT_NE(what.find("warmup_rounds"), std::string::npos) << what;
    EXPECT_NE(what.find("update_lifetime"), std::string::npos) << what;
  }
  c.rounds += 1;  // one measured generation is enough
  EXPECT_NO_THROW((GossipEngine{c, AttackPlan{}}));
}

/// Expects the engine to reject (config, plan) with an invalid_argument
/// whose message names `field`.
void expect_rejected(const GossipConfig& c, const AttackPlan& plan,
                     const std::string& field) {
  try {
    GossipEngine engine{c, plan};
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Engine, RejectsNonFiniteAttackerFraction) {
  AttackPlan plan{.kind = AttackKind::kTradeLotus};
  plan.attacker_fraction = kNaN;
  expect_rejected(small_config(), plan, "attacker_fraction");
  plan.attacker_fraction = std::numeric_limits<double>::infinity();
  expect_rejected(small_config(), plan, "attacker_fraction");
  // A finite out-of-range fraction is still clamped, not rejected.
  plan.attacker_fraction = 1.5;
  EXPECT_NO_THROW((GossipEngine{small_config(), plan}));
}

TEST(Engine, RejectsRecentWindowLongerThanLifetime) {
  // A push range past the update lifetime would reach outside the holdings
  // ring; a range of exactly one lifetime is the longest that fits.
  GossipConfig c = small_config();
  c.recent_window = c.update_lifetime;
  EXPECT_NO_THROW((GossipEngine{c, AttackPlan{}}));
  c.recent_window = c.update_lifetime + 1;
  expect_rejected(c, AttackPlan{}, "recent_window");
  expect_rejected(c, AttackPlan{}, "update_lifetime");
}

TEST(Engine, RejectsNonFiniteSatiateFraction) {
  AttackPlan plan{.kind = AttackKind::kIdealLotus, .attacker_fraction = 0.2};
  plan.satiate_fraction = kNaN;
  expect_rejected(small_config(), plan, "satiate_fraction");
  plan.satiate_fraction = -std::numeric_limits<double>::infinity();
  expect_rejected(small_config(), plan, "satiate_fraction");
  plan.satiate_fraction = -0.5;
  EXPECT_NO_THROW((GossipEngine{small_config(), plan}));
}

TEST(Engine, RejectsObedientFractionOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.obedient_fraction = kNaN;
  expect_rejected(c, AttackPlan{}, "obedient_fraction");
  c.obedient_fraction = 1.5;
  expect_rejected(c, AttackPlan{}, "obedient_fraction");
  c.obedient_fraction = -0.1;
  expect_rejected(c, AttackPlan{}, "obedient_fraction");
  c.obedient_fraction = 0.0;
  EXPECT_NO_THROW((GossipEngine{c, AttackPlan{}}));
}

TEST(Engine, RejectsUsabilityThresholdOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.usability_threshold = kNaN;
  expect_rejected(c, AttackPlan{}, "usability_threshold");
  c.usability_threshold = 1.01;
  expect_rejected(c, AttackPlan{}, "usability_threshold");
  c.usability_threshold = -0.5;
  expect_rejected(c, AttackPlan{}, "usability_threshold");
  c.usability_threshold = 1.0;
  EXPECT_NO_THROW((GossipEngine{c, AttackPlan{}}));
}

TEST(Churn, RejectsJoinRateOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.churn.join_rate = kNaN;
  expect_rejected(c, AttackPlan{}, "join_rate");
  c.churn.join_rate = 1.5;
  expect_rejected(c, AttackPlan{}, "join_rate");
}

TEST(Churn, RejectsLeaveRateOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.churn.leave_rate = kNaN;
  expect_rejected(c, AttackPlan{}, "leave_rate");
  c.churn.leave_rate = -0.1;
  expect_rejected(c, AttackPlan{}, "leave_rate");
}

TEST(Churn, RejectsCrashRateOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.churn.crash_rate = kNaN;
  expect_rejected(c, AttackPlan{}, "crash_rate");
  c.churn.crash_rate = 2.0;
  expect_rejected(c, AttackPlan{}, "crash_rate");
}

TEST(Churn, RejectsSlowFractionOutsideUnitInterval) {
  GossipConfig c = small_config();
  c.churn.slow_cap = 1;
  c.churn.slow_fraction = kNaN;
  expect_rejected(c, AttackPlan{}, "slow_fraction");
  c.churn.slow_fraction = -0.25;
  expect_rejected(c, AttackPlan{}, "slow_fraction");
}

TEST(Engine, UsabilityMetricsConsistent) {
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.15;
  const auto result = run_gossip(small_config(), plan);
  EXPECT_GE(result.honest_below_usability, 0.0);
  EXPECT_LE(result.honest_below_usability, 1.0);
  EXPECT_LE(result.worst_honest_delivery, result.overall_delivery);
  EXPECT_GE(result.unusable_node_generations, 0.0);
  EXPECT_LE(result.unusable_node_generations, 1.0);
  // An attack that breaks the isolated class must show up in the
  // time-resolved metric too.
  const auto baseline = run_gossip(small_config(), AttackPlan{});
  EXPECT_GT(result.unusable_node_generations,
            baseline.unusable_node_generations);
}

TEST(Engine, RotationSpreadsOutagesAcrossPopulation) {
  // Paper-scale parameters: the intermittency effect needs the satiated
  // cohort's isolated stretches to exceed the update lifetime by a wide
  // margin, over several full rotation cycles.
  GossipConfig config;  // Table 1
  config.rounds = 360;
  config.seed = 55;
  AttackPlan station;
  station.kind = AttackKind::kIdealLotus;
  station.attacker_fraction = 0.1;
  AttackPlan rotating = station;
  rotating.rotation_period = 40;  // far slower than the 10-round lifetime
  const auto static_result = run_gossip(config, station);
  const auto rotating_result = run_gossip(config, rotating);
  // Rotating puts outages on strictly more nodes than the static attack's
  // isolated minority, §1's "intermittently unusable for all".
  EXPECT_GT(rotating_result.nodes_with_unusable_stretch,
            static_result.nodes_with_unusable_stretch + 0.2);
}

TEST(Engine, FastRotationHealsInsteadOfHurting) {
  auto config = small_config();
  config.rounds = 180;
  AttackPlan fast;
  fast.kind = AttackKind::kIdealLotus;
  fast.attacker_fraction = 0.1;
  fast.rotation_period = 3;  // well under the update lifetime
  const auto result = run_gossip(config, fast);
  const auto baseline = run_gossip(config, AttackPlan{});
  // Every node is periodically refilled before updates expire: the "attack"
  // becomes a free content-distribution service.
  EXPECT_GE(result.overall_delivery, baseline.overall_delivery - 0.01);
}

TEST(Engine, RotationIsDeterministic) {
  auto config = small_config();
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.2;
  plan.rotation_period = 7;
  const auto a = run_gossip(config, plan);
  const auto b = run_gossip(config, plan);
  EXPECT_EQ(a.overall_delivery, b.overall_delivery);
  EXPECT_EQ(a.attacker_dump_updates, b.attacker_dump_updates);
}

// --- Churn: dynamic membership -------------------------------------------

TEST(Churn, DisabledPlanIsInert) {
  ChurnPlan off;
  EXPECT_FALSE(off.enabled());
  // slow_fraction without a cap (and vice versa) stays inert by design.
  off.slow_fraction = 0.5;
  EXPECT_FALSE(off.enabled());
  off.slow_fraction = 0.0;
  off.slow_cap = 4;
  EXPECT_FALSE(off.enabled());
  ChurnPlan on;
  on.leave_rate = 0.01;
  EXPECT_TRUE(on.enabled());
}

TEST(Churn, ZeroRatePlanMatchesStaticRunExactly) {
  // A config whose churn plan is disabled must replay the static trajectory
  // bit-for-bit — churn draws come from a separate stream that is never
  // advanced, and no churn branch may touch the main RNG.
  auto c = small_config();
  const auto baseline = run_gossip(c, AttackPlan{});
  c.churn = ChurnPlan{};  // explicit, still disabled
  const auto with_plan = run_gossip(c, AttackPlan{});
  EXPECT_EQ(baseline.isolated_delivery, with_plan.isolated_delivery);
  EXPECT_EQ(baseline.balanced_exchanges, with_plan.balanced_exchanges);
  EXPECT_EQ(baseline.push_updates, with_plan.push_updates);
  EXPECT_EQ(with_plan.churn_joins, 0u);
  EXPECT_EQ(with_plan.churn_leaves, 0u);
  EXPECT_EQ(with_plan.churn_crashes, 0u);
}

TEST(Churn, DeterministicAndCountersActive) {
  auto c = small_config();
  c.churn.join_rate = 0.2;
  c.churn.leave_rate = 0.02;
  c.churn.crash_rate = 0.02;
  c.churn.decay_rounds = 5;
  const auto a = run_gossip(c, AttackPlan{});
  const auto b = run_gossip(c, AttackPlan{});
  EXPECT_EQ(a.isolated_delivery, b.isolated_delivery);
  EXPECT_EQ(a.churn_joins, b.churn_joins);
  EXPECT_EQ(a.churn_leaves, b.churn_leaves);
  EXPECT_EQ(a.churn_crashes, b.churn_crashes);
  EXPECT_EQ(a.churn_recoveries, b.churn_recoveries);
  // With these rates over 60 rounds every transition actually fires.
  EXPECT_GT(a.churn_leaves, 0u);
  EXPECT_GT(a.churn_crashes, 0u);
  EXPECT_GT(a.churn_joins, 0u);
  EXPECT_GT(a.churn_recoveries, 0u);
}

TEST(Churn, ChurnSeedIndependentOfMainStream) {
  // Same config seed, different churn rates: the membership trajectory
  // changes but the partner schedule / cast stay pinned to the seed. The
  // run differs (dead nodes skip interactions), which is the point.
  auto c = small_config();
  c.churn.leave_rate = 0.01;
  c.churn.join_rate = 0.2;
  const auto light = run_gossip(c, AttackPlan{});
  c.churn.leave_rate = 0.10;
  const auto heavy = run_gossip(c, AttackPlan{});
  EXPECT_GT(heavy.churn_leaves, light.churn_leaves);
  // Heavier departures strictly shrink the interacting population.
  EXPECT_LT(heavy.balanced_exchanges, light.balanced_exchanges);
}

TEST(Churn, GracefulLeavesDegradeDeliveryMonotonically) {
  auto c = small_config();
  c.churn.join_rate = 0.3;
  c.churn.leave_rate = 0.01;
  const auto light = run_gossip(c, AttackPlan{});
  c.churn.leave_rate = 0.08;
  const auto heavy = run_gossip(c, AttackPlan{});
  EXPECT_LE(heavy.overall_delivery, light.overall_delivery + 0.02);
}

TEST(Churn, CrashRecoveryKeepsStateWithinDecayWindow) {
  // With a decay window covering the whole run and a high join rate, most
  // crashed nodes recover with their holdings intact; with decay_rounds = 0
  // a crash behaves like a leave and every return is a fresh join.
  auto c = small_config();
  c.churn.crash_rate = 0.05;
  c.churn.join_rate = 0.5;
  c.churn.decay_rounds = c.rounds;  // never decays in-run
  const auto graced = run_gossip(c, AttackPlan{});
  EXPECT_GT(graced.churn_recoveries, 0u);
  c.churn.decay_rounds = 0;
  const auto instant = run_gossip(c, AttackPlan{});
  EXPECT_EQ(instant.churn_recoveries, 0u);
  EXPECT_GT(instant.churn_joins, 0u);
  // Kept state means better delivery than rejoining empty.
  EXPECT_GE(graced.overall_delivery + 0.02, instant.overall_delivery);
}

TEST(Churn, IdRecyclingAlternatingMembership) {
  // join_rate = leave_rate = 1: every live honest node leaves each round and
  // every dead seat rejoins the next — a deterministic alternating pattern
  // that stress-tests seat recycling. Counters must balance: every join
  // takes a previously vacated seat.
  auto c = small_config();
  c.churn.leave_rate = 1.0;
  c.churn.join_rate = 1.0;
  const auto result = run_gossip(c, AttackPlan{});
  EXPECT_GT(result.churn_leaves, 0u);
  EXPECT_GT(result.churn_joins, 0u);
  // Joins lag leaves by at most one full population (the seats still dead
  // at the end of the run).
  EXPECT_LE(result.churn_joins, result.churn_leaves);
  EXPECT_GE(result.churn_joins + c.nodes, result.churn_leaves);
  // Delivery collapses (members live one round at a time) but the metrics
  // stay finite and well-defined.
  EXPECT_GE(result.overall_delivery, 0.0);
  EXPECT_LE(result.overall_delivery, 1.0);
}

TEST(Churn, AllNodesDepartedYieldsGracefulDefaults) {
  // Everyone leaves immediately and nobody returns: no seat is eligible for
  // any measured generation, so the averages fall back to their defaults
  // instead of dividing by zero.
  auto c = small_config();
  c.churn.leave_rate = 1.0;
  const auto result = run_gossip(c, AttackPlan{});
  EXPECT_EQ(result.isolated_nodes, 0u);
  EXPECT_EQ(result.overall_delivery, 1.0);
  EXPECT_EQ(result.unusable_node_generations, 0.0);
}

TEST(Churn, SlowSeatsCapPerInteractionTransfers) {
  // With every honest seat capped at 1 update per interaction side, a
  // balanced exchange moves at most 2 updates — a sharp per-interaction
  // bound the uncapped run comfortably violates.
  auto c = small_config();
  c.churn.slow_fraction = 1.0;
  c.churn.slow_cap = 1;
  ASSERT_TRUE(c.churn.enabled());
  const auto capped = run_gossip(c, AttackPlan{});
  EXPECT_LE(capped.exchange_updates, 2 * capped.balanced_exchanges);
  const auto uncapped = run_gossip(small_config(), AttackPlan{});
  EXPECT_GT(uncapped.exchange_updates, 2 * uncapped.balanced_exchanges);
  // Static membership otherwise: no transitions fire.
  EXPECT_EQ(capped.churn_joins + capped.churn_leaves + capped.churn_crashes,
            0u);
}

TEST(Churn, WhitewashingResetsEviction) {
  // Reporting evicts trade attackers as before; honest churn must not stop
  // eviction from working (attacker seats never churn).
  auto c = small_config();
  c.reporting_enabled = true;
  c.service_limit = 10;
  c.churn.leave_rate = 0.02;
  c.churn.join_rate = 0.3;
  AttackPlan plan;
  plan.kind = AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  const auto result = run_gossip(c, plan);
  EXPECT_GT(result.attackers_evicted, 0u);
}

TEST(Engine, WindowedStateWithinBytesPerNodeBudget) {
  // Windowed state is O(active window) per node, independent of node count
  // and horizon. 80 bytes per node at Table 1 protocol parameters is the
  // budget; blowing it means some per-node array stopped being windowed.
  // The count includes the per-phase partner array (4 B/node) at every
  // width, which replaced an 8 B/node shuffle-draw buffer: width 4 measured
  // 77.6 B with that buffer and must stay below it.
  GossipConfig config;  // Table 1 protocol parameters
  config.nodes = 10'000;
  config.rounds = 60;
  config.warmup_rounds = 10;
  config.seed = 2008;
  AttackPlan plan;
  plan.kind = AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.2;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    GossipEngine engine{config, plan, StateModel::kWindowed, threads};
    (void)engine.run();
    const double bytes_per_node = static_cast<double>(engine.state_bytes()) /
                                  static_cast<double>(config.nodes);
    EXPECT_LE(bytes_per_node, 80.0) << "engine width " << threads;
    if (threads == 4) {
      EXPECT_LT(bytes_per_node, 77.6);
    }
  }
}

TEST(Engine, AttackNames) {
  EXPECT_STREQ(attack_name(AttackKind::kNone), "none");
  EXPECT_STREQ(attack_name(AttackKind::kCrash), "crash");
  EXPECT_STREQ(attack_name(AttackKind::kIdealLotus), "ideal-lotus");
  EXPECT_STREQ(attack_name(AttackKind::kTradeLotus), "trade-lotus");
}

}  // namespace
}  // namespace lotus::gossip
