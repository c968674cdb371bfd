// Property suites (TEST_P) for the headline invariants of the paper, swept
// across seeds and scales. These are the claims that must survive any
// reasonable parameter choice, not just the calibrated defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gossip/engine.h"
#include "gossip/update_store.h"
#include "net/topology.h"
#include "ref/reference.h"
#include "scrip/economy.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "token/model.h"

namespace lotus {
namespace {

// ---------------------------------------------------------------------------
// Gossip invariants across seeds.
// ---------------------------------------------------------------------------

class GossipSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  gossip::GossipConfig config() const {
    gossip::GossipConfig c;
    c.nodes = 100;
    c.rounds = 70;
    c.copies_seeded = 8;
    c.seed = GetParam();
    return c;
  }
};

TEST_P(GossipSeedSweep, BaselineUsable) {
  const auto result = gossip::run_gossip(config(), gossip::AttackPlan{});
  EXPECT_GT(result.isolated_delivery, 0.93) << "seed " << GetParam();
}

TEST_P(GossipSeedSweep, LotusBeatsCrashAtEqualStrength) {
  gossip::AttackPlan crash;
  crash.kind = gossip::AttackKind::kCrash;
  crash.attacker_fraction = 0.2;
  gossip::AttackPlan ideal = crash;
  ideal.kind = gossip::AttackKind::kIdealLotus;
  const auto crash_run = gossip::run_gossip(config(), crash);
  const auto ideal_run = gossip::run_gossip(config(), ideal);
  EXPECT_LT(ideal_run.isolated_delivery, crash_run.isolated_delivery)
      << "seed " << GetParam();
}

TEST_P(GossipSeedSweep, SatiatedAlwaysOutperformIsolated) {
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  const auto result = gossip::run_gossip(config(), plan);
  EXPECT_GE(result.satiated_delivery, result.isolated_delivery)
      << "seed " << GetParam();
}

TEST_P(GossipSeedSweep, AttackerMonotoneInStrength) {
  gossip::AttackPlan weak;
  weak.kind = gossip::AttackKind::kIdealLotus;
  weak.attacker_fraction = 0.05;
  gossip::AttackPlan strong = weak;
  strong.attacker_fraction = 0.30;
  const auto weak_run = gossip::run_gossip(config(), weak);
  const auto strong_run = gossip::run_gossip(config(), strong);
  EXPECT_LE(strong_run.isolated_delivery, weak_run.isolated_delivery + 0.03)
      << "seed " << GetParam();
}

TEST_P(GossipSeedSweep, PushSizeMonotoneUnderAttack) {
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.12;
  auto small_push = config();
  small_push.push_size = 2;
  auto big_push = config();
  big_push.push_size = 10;
  const auto small_run = gossip::run_gossip(small_push, plan);
  const auto big_run = gossip::run_gossip(big_push, plan);
  EXPECT_GE(big_run.isolated_delivery, small_run.isolated_delivery - 0.01)
      << "seed " << GetParam();
}

TEST_P(GossipSeedSweep, DumpsOnlyReachTheSatiateSet) {
  // The trade attacker refuses isolated nodes by construction: with a
  // satiate target equal to the attacker fraction itself, no honest node is
  // in the set and no dump is ever delivered.
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.2;
  plan.satiate_fraction = 0.2;  // attacker nodes only
  const auto result = gossip::run_gossip(config(), plan);
  EXPECT_EQ(result.attacker_dump_updates, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipSeedSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// ---------------------------------------------------------------------------
// Engine vs reference: the engine must reproduce the plain full-horizon
// simulator in tests/ref/ exactly. The reference shares only inputs and
// infrastructure with the engine (cast, RNG streams, partner schedule,
// report signatures, update clock), so a wrong protocol rule in the engine's
// transfer cores shows up here.
// ---------------------------------------------------------------------------

/// Every GossipResult field, compared exactly — both sides draw the same RNG
/// streams and count the same integers, so even the doubles must match
/// bit for bit.
void expect_identical_results(const gossip::GossipResult& actual,
                              const gossip::GossipResult& expected,
                              const std::string& what) {
  EXPECT_EQ(actual.isolated_delivery, expected.isolated_delivery) << what;
  EXPECT_EQ(actual.satiated_delivery, expected.satiated_delivery) << what;
  EXPECT_EQ(actual.overall_delivery, expected.overall_delivery) << what;
  EXPECT_EQ(actual.honest_below_usability, expected.honest_below_usability)
      << what;
  EXPECT_EQ(actual.worst_honest_delivery, expected.worst_honest_delivery)
      << what;
  EXPECT_EQ(actual.unusable_node_generations,
            expected.unusable_node_generations)
      << what;
  EXPECT_EQ(actual.nodes_with_unusable_stretch,
            expected.nodes_with_unusable_stretch)
      << what;
  EXPECT_EQ(actual.attacker_coverage, expected.attacker_coverage) << what;
  EXPECT_EQ(actual.isolated_nodes, expected.isolated_nodes) << what;
  EXPECT_EQ(actual.satiated_honest_nodes, expected.satiated_honest_nodes)
      << what;
  EXPECT_EQ(actual.attacker_nodes, expected.attacker_nodes) << what;
  EXPECT_EQ(actual.balanced_exchanges, expected.balanced_exchanges) << what;
  EXPECT_EQ(actual.exchange_updates, expected.exchange_updates) << what;
  EXPECT_EQ(actual.pushes, expected.pushes) << what;
  EXPECT_EQ(actual.push_updates, expected.push_updates) << what;
  EXPECT_EQ(actual.junk_updates, expected.junk_updates) << what;
  EXPECT_EQ(actual.attacker_dump_updates, expected.attacker_dump_updates)
      << what;
  EXPECT_EQ(actual.reports_filed, expected.reports_filed) << what;
  EXPECT_EQ(actual.attackers_evicted, expected.attackers_evicted) << what;
  EXPECT_EQ(actual.full_eviction_round, expected.full_eviction_round) << what;
  EXPECT_EQ(actual.churn_joins, expected.churn_joins) << what;
  EXPECT_EQ(actual.churn_leaves, expected.churn_leaves) << what;
  EXPECT_EQ(actual.churn_crashes, expected.churn_crashes) << what;
  EXPECT_EQ(actual.churn_recoveries, expected.churn_recoveries) << what;
}

/// Runs the engine on one case, compares every result field with the
/// reference's, then each node's holdings over the window still active when
/// the run ends.
void expect_engine_matches_reference(const gossip::GossipConfig& c,
                                     const gossip::AttackPlan& plan,
                                     const ref::ReferenceRun& expected,
                                     const std::string& what) {
  gossip::GossipEngine engine{c, plan};
  expect_identical_results(engine.run(), expected.result, what);
  const gossip::IdRange active = gossip::UpdateClock{c}.active(c.rounds - 1);
  for (std::uint32_t v = 0; v < c.nodes; ++v) {
    for (auto u = active.lo; u < active.hi; ++u) {
      ASSERT_EQ(engine.holdings_of(v).test(u), expected.holdings[v][u])
          << what << ": node " << v << ", update " << u;
    }
  }
}

/// A random small case: n <= 64 nodes, <= 40 rounds, random protocol
/// windows and caps. Bits of `index` pick the attack kind, churn, reporting
/// and rotation, so every 32 consecutive indexes cover all combinations.
std::pair<gossip::GossipConfig, gossip::AttackPlan> random_case(
    std::uint64_t index) {
  sim::Rng rng{sim::derive_seed(0x6f7261636c65ULL, index)};
  const auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(rng.next_below(hi - lo + 1));
  };
  const auto coin = [&] { return rng.next_bernoulli(0.5); };
  gossip::GossipConfig c;
  c.seed = index + 1;
  c.nodes = pick(2, 64);
  c.updates_per_round = pick(1, 12);
  c.update_lifetime = pick(1, 12);
  c.warmup_rounds = pick(0, 6);
  c.rounds = pick(c.warmup_rounds + c.update_lifetime + 1, 40);
  c.copies_seeded = pick(1, std::min(c.nodes, 12u));
  c.push_size = pick(1, 5);
  c.recent_window = pick(1, c.update_lifetime);
  c.old_window = pick(0, c.update_lifetime + 1);
  c.obedient_fraction = rng.next_double();
  c.unbalanced_exchange = coin();
  c.service_cap = coin() ? pick(1, 8) : 0;
  c.trade_dump_on_response = coin();
  c.usability_threshold = coin() ? 0.93 : rng.next_double();
  c.reporting_enabled = ((index >> 3) & 1) != 0;
  c.service_limit = pick(0, 20);
  if (((index >> 2) & 1) != 0) {
    c.churn.join_rate = 0.3 * rng.next_double();
    c.churn.leave_rate = 0.05 * rng.next_double();
    c.churn.crash_rate = 0.05 * rng.next_double();
    c.churn.decay_rounds = pick(0, 12);
    c.churn.slow_fraction = coin() ? 0.5 * rng.next_double() : 0.0;
    c.churn.slow_cap = pick(1, 4);
  }
  gossip::AttackPlan plan;
  plan.kind = static_cast<gossip::AttackKind>(index & 3);
  if (plan.kind != gossip::AttackKind::kNone) {
    plan.attacker_fraction = 0.4 * rng.next_double();
  }
  plan.satiate_fraction = rng.next_double();
  plan.rotation_period = ((index >> 4) & 1) != 0 ? pick(1, 10) : 0;
  return {c, plan};
}

class ReferenceOracle : public ::testing::TestWithParam<std::uint32_t> {};

// The name predates the single-threaded engine; it is kept so the test ids
// stay stable.
TEST_P(ReferenceOracle, RandomSmallConfigsAtWidths1And4) {
  constexpr std::uint32_t kCases = 32;
  gossip::GossipResult seen;  // per-counter totals: which paths ran
  for (std::uint32_t k = 0; k < kCases; ++k) {
    const std::uint64_t index = std::uint64_t{GetParam()} * kCases + k;
    const auto [c, plan] = random_case(index);
    const ref::ReferenceRun expected = ref::simulate(c, plan);
    expect_engine_matches_reference(c, plan, expected,
                                    "case " + std::to_string(index));
    const auto& r = expected.result;
    seen.balanced_exchanges += r.balanced_exchanges;
    seen.pushes += r.pushes;
    seen.junk_updates += r.junk_updates;
    seen.attacker_dump_updates += r.attacker_dump_updates;
    seen.reports_filed += r.reports_filed;
    seen.attackers_evicted += r.attackers_evicted;
    seen.churn_joins += r.churn_joins;
    seen.churn_leaves += r.churn_leaves;
    seen.churn_crashes += r.churn_crashes;
    seen.churn_recoveries += r.churn_recoveries;
  }
  // The sample must reach every protocol path, or matching proves little.
  EXPECT_GT(seen.balanced_exchanges, 0u);
  EXPECT_GT(seen.pushes, 0u);
  EXPECT_GT(seen.junk_updates, 0u);
  EXPECT_GT(seen.attacker_dump_updates, 0u);
  EXPECT_GT(seen.reports_filed, 0u);
  EXPECT_GT(seen.attackers_evicted, 0u);
  EXPECT_GT(seen.churn_joins, 0u);
  EXPECT_GT(seen.churn_leaves, 0u);
  EXPECT_GT(seen.churn_crashes, 0u);
  EXPECT_GT(seen.churn_recoveries, 0u);
}

// 8 blocks x 32 cases = 256 random configurations.
INSTANTIATE_TEST_SUITE_P(Blocks, ReferenceOracle, ::testing::Range(0u, 8u));

/// One oracle case with its reference run.
struct OracleCase {
  gossip::GossipConfig config;
  gossip::AttackPlan plan;
  ref::ReferenceRun expected;
  std::string what;
};

/// Runs the engine on every case on a pool of `width` threads, as the sweep
/// runs independent trials side by side, then holds each run to its
/// reference. Trials in flight together must not leak state into each other.
void expect_engines_match_reference_at_width(
    const std::vector<OracleCase>& cases, std::size_t width) {
  std::vector<std::unique_ptr<gossip::GossipEngine>> engines(cases.size());
  std::vector<gossip::GossipResult> results(cases.size());
  sim::ThreadPool pool{width};
  ASSERT_EQ(pool.size(), width);
  pool.parallel_for(cases.size(), [&](std::size_t i) {
    engines[i] = std::make_unique<gossip::GossipEngine>(cases[i].config,
                                                        cases[i].plan);
    results[i] = engines[i]->run();
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const OracleCase& oc = cases[i];
    expect_identical_results(results[i], oc.expected.result, oc.what);
    const gossip::IdRange active =
        gossip::UpdateClock{oc.config}.active(oc.config.rounds - 1);
    for (std::uint32_t v = 0; v < oc.config.nodes; ++v) {
      for (auto u = active.lo; u < active.hi; ++u) {
        ASSERT_EQ(engines[i]->holdings_of(v).test(u),
                  oc.expected.holdings[v][u])
            << oc.what << ": node " << v << ", update " << u;
      }
    }
  }
}

// The oracle at the edges of the slot loop. The parameter is the number of
// trials run at once (the sweep's width); each trial runs on one thread.
class ReferenceOracleEdges : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReferenceOracleEdges, FewerSlotsThanThePrefetchLookAhead) {
  // With 2, 3, 8 or 9 nodes the look-ahead reaches past the last slot from
  // the first one (or nearly so). 32 consecutive indexes cover every attack,
  // churn, reporting and rotation combination.
  std::vector<OracleCase> cases;
  for (const std::uint32_t nodes : {2u, 3u, 8u, 9u}) {
    for (std::uint64_t k = 0; k < 32; ++k) {
      auto [c, plan] = random_case(1000 + k);
      c.nodes = nodes;
      c.copies_seeded = std::min(c.copies_seeded, nodes);
      cases.push_back(
          {c, plan, ref::simulate(c, plan),
           std::to_string(nodes) + " nodes, case " + std::to_string(1000 + k)});
    }
  }
  expect_engines_match_reference_at_width(cases, GetParam());
}

// The name predates the single-threaded engine (the pass no longer runs in
// chunks or waves); it is kept so the test ids stay stable.
TEST_P(ReferenceOracleEdges, PartnerPassSpansChunksAndWaves) {
  // 5,000 nodes: more initiation slots per phase than any other oracle case.
  // Reporting makes the order in which reports are filed count. One copy of
  // the case per thread runs at once.
  gossip::GossipConfig c;  // Table 1 protocol
  c.nodes = 5000;
  c.copies_seeded = 240;  // Table 1's 12/250
  c.rounds = 30;
  c.warmup_rounds = 5;
  c.seed = 5000;
  c.reporting_enabled = true;
  c.service_limit = 25;
  c.obedient_fraction = 0.5;
  gossip::AttackPlan plan{.kind = gossip::AttackKind::kTradeLotus,
                          .attacker_fraction = 0.2};
  const ref::ReferenceRun expected = ref::simulate(c, plan);
  EXPECT_GT(expected.result.reports_filed, 0u);
  std::vector<OracleCase> cases;
  for (std::size_t k = 0; k < GetParam(); ++k) {
    cases.push_back({c, plan, expected, "5000 nodes, copy " + std::to_string(k)});
  }
  expect_engines_match_reference_at_width(cases, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ReferenceOracleEdges,
    ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "w" + std::to_string(info.param);
    });

// ---------------------------------------------------------------------------
// Windowed engine parity at paper scale: the production windowed/SoA engine
// against the reference under the scenarios the figures depend on.
// ---------------------------------------------------------------------------

/// The churn plan the parity sweeps exercise: all three transitions active,
/// crash decay spanning a full update lifetime, and a slow minority.
gossip::ChurnPlan parity_churn_plan() {
  gossip::ChurnPlan churn;
  churn.join_rate = 0.08;
  churn.leave_rate = 0.01;
  churn.crash_rate = 0.01;
  churn.decay_rounds = 10;
  churn.slow_fraction = 0.25;
  churn.slow_cap = 4;
  return churn;
}

class WindowedParitySweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Paper scale: Table 1 defaults (250 nodes, 120 rounds), per-sweep seed.
  gossip::GossipConfig config() const {
    gossip::GossipConfig c;
    c.seed = GetParam();
    return c;
  }

  void run_both(const gossip::GossipConfig& c, const gossip::AttackPlan& plan,
                const char* what) const {
    expect_engine_matches_reference(c, plan, ref::simulate(c, plan), what);
  }
};

TEST_P(WindowedParitySweep, NoAttack) {
  run_both(config(), gossip::AttackPlan{}, "no attack");
}

TEST_P(WindowedParitySweep, CrashAndIdealAndTrade) {
  for (const auto kind :
       {gossip::AttackKind::kCrash, gossip::AttackKind::kIdealLotus,
        gossip::AttackKind::kTradeLotus}) {
    gossip::AttackPlan plan;
    plan.kind = kind;
    plan.attacker_fraction = 0.2;
    run_both(config(), plan, "attack kind sweep");
  }
}

TEST_P(WindowedParitySweep, ReportingEvictionPath) {
  auto c = config();
  c.reporting_enabled = true;
  c.service_limit = 25;
  c.obedient_fraction = 0.5;
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  run_both(c, plan, "reporting + eviction");
}

TEST_P(WindowedParitySweep, RotatingSatiationAndUnbalanced) {
  auto c = config();
  c.unbalanced_exchange = true;
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.1;
  plan.rotation_period = 15;
  run_both(c, plan, "rotation + unbalanced");
}

TEST_P(WindowedParitySweep, LifetimeAtLeastHorizonDegenerateWindow) {
  // update_lifetime >= rounds: no update's whole lifetime fits in the run,
  // so the measured window is empty. The engine rejects the configuration
  // in its constructor, before any round runs, and so does the reference.
  auto c = config();
  c.nodes = 80;
  c.rounds = 30;
  c.update_lifetime = 30;
  c.warmup_rounds = 5;
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kIdealLotus;
  plan.attacker_fraction = 0.2;
  EXPECT_THROW((gossip::GossipEngine{c, plan}), std::invalid_argument);
  EXPECT_THROW((void)ref::simulate(c, plan), std::invalid_argument);
}

/// Expects ref::simulate to reject (c, plan) with an invalid_argument whose
/// message names `field`.
void expect_reference_rejects(const gossip::GossipConfig& c,
                              const gossip::AttackPlan& plan,
                              const std::string& field) {
  try {
    (void)ref::simulate(c, plan);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
        << e.what();
  }
}

TEST(ReferenceSimulator, RejectsNonFiniteAttackFractions) {
  // make_cast rejects a NaN fraction for the engine and the reference alike,
  // before it can reach the round to a node count.
  gossip::GossipConfig c;
  c.nodes = 40;
  c.rounds = 30;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gossip::AttackPlan plan{.kind = gossip::AttackKind::kTradeLotus,
                          .attacker_fraction = nan};
  expect_reference_rejects(c, plan, "attacker_fraction");
  plan.attacker_fraction = 0.2;
  plan.satiate_fraction = nan;
  expect_reference_rejects(c, plan, "satiate_fraction");
}

TEST(ReferenceSimulator, RejectsOutOfRangeAttackFractions) {
  // make_cast rejects a fraction outside [0, 1] for the reference as for the
  // engine; both ends of the range still run.
  gossip::GossipConfig c;
  c.nodes = 40;
  c.rounds = 30;
  gossip::AttackPlan plan{.kind = gossip::AttackKind::kTradeLotus};
  for (const double bad : {-0.1, 1.5}) {
    plan.attacker_fraction = bad;
    plan.satiate_fraction = 0.7;
    expect_reference_rejects(c, plan, "attacker_fraction");
    plan.attacker_fraction = 0.2;
    plan.satiate_fraction = bad;
    expect_reference_rejects(c, plan, "satiate_fraction");
  }
  for (const double edge : {0.0, 1.0}) {
    plan.attacker_fraction = edge;
    plan.satiate_fraction = edge;
    EXPECT_NO_THROW((void)ref::simulate(c, plan)) << "fractions " << edge;
  }
}

TEST(ReferenceSimulator, RejectsRecentWindowLongerThanLifetime) {
  // The reference rejects what the engine rejects: a push range longer than
  // the update lifetime. One lifetime exactly still runs.
  gossip::GossipConfig c;
  c.nodes = 40;
  c.rounds = 30;
  c.recent_window = c.update_lifetime;
  EXPECT_NO_THROW((void)ref::simulate(c, gossip::AttackPlan{}));
  c.recent_window = c.update_lifetime + 1;
  expect_reference_rejects(c, gossip::AttackPlan{}, "recent_window");
}

TEST_P(WindowedParitySweep, ChurnEveryAttackKind) {
  // Dynamic membership: joins, leaves, crashes with decayed state, and slow
  // seats, under every attack. Delivery is judged at each generation's
  // expiry against the members alive then, in both simulators.
  auto c = config();
  c.churn = parity_churn_plan();
  for (const auto kind :
       {gossip::AttackKind::kNone, gossip::AttackKind::kCrash,
        gossip::AttackKind::kIdealLotus, gossip::AttackKind::kTradeLotus}) {
    gossip::AttackPlan plan;
    plan.kind = kind;
    plan.attacker_fraction = kind == gossip::AttackKind::kNone ? 0.0 : 0.2;
    run_both(c, plan, "churn attack kind sweep");
  }
}

TEST_P(WindowedParitySweep, ChurnWithReportingAndRotation) {
  // Churned membership meets the eviction layer (whitewashing resets) and a
  // rotating satiate set at once.
  auto c = config();
  c.churn = parity_churn_plan();
  c.reporting_enabled = true;
  c.service_limit = 25;
  c.obedient_fraction = 0.5;
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;
  plan.rotation_period = 15;
  run_both(c, plan, "churn + reporting + rotation");
}

TEST_P(WindowedParitySweep, ChurnLeaveOnlyAndCrashOnly) {
  // The two decay semantics in isolation: graceful leaves (instant decay)
  // and crashes with a grace window shorter than the lifetime.
  for (const bool leaves : {true, false}) {
    auto c = config();
    if (leaves) {
      c.churn.leave_rate = 0.02;
    } else {
      c.churn.crash_rate = 0.02;
      c.churn.decay_rounds = 4;
    }
    c.churn.join_rate = 0.15;
    gossip::AttackPlan plan;
    plan.kind = gossip::AttackKind::kIdealLotus;
    plan.attacker_fraction = 0.15;
    run_both(c, plan, leaves ? "churn leaves only" : "churn crashes only");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedParitySweep,
                         ::testing::Values(7u, 1977u, 2008u));

// ---------------------------------------------------------------------------
// Token model invariants across topologies.
// ---------------------------------------------------------------------------

struct TopologyParam {
  const char* name;
  net::Graph (*build)(std::uint64_t);
};

// Print a case by its name. The default byte dump holds pointer values, which
// differ per process and would leak into the discovered ctest names.
void PrintTo(const TopologyParam& param, std::ostream* os) {
  *os << param.name;
}

class TokenTopologySweep : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(TokenTopologySweep, AltruismNeverHurts) {
  const auto graph = GetParam().build(7);
  sim::Rng alloc_rng{8};
  const auto alloc = token::allocate_uniform_replicas(
      graph.node_count(), 24, 3, alloc_rng);
  token::ModelConfig stingy;
  stingy.tokens = 24;
  stingy.contact_bound = 2;
  stingy.max_rounds = 80;
  stingy.seed = 9;
  auto generous = stingy;
  generous.altruism = 0.3;
  token::FractionAttacker a1{0.6};
  token::FractionAttacker a2{0.6};
  const auto stingy_run =
      token::TokenModel{graph, stingy, alloc,
                        std::make_shared<token::CompleteSetSatiation>()}
          .run(a1);
  const auto generous_run =
      token::TokenModel{graph, generous, alloc,
                        std::make_shared<token::CompleteSetSatiation>()}
          .run(a2);
  EXPECT_GE(generous_run.untargeted_satiated_fraction() + 1e-9,
            stingy_run.untargeted_satiated_fraction())
      << GetParam().name;
}

TEST_P(TokenTopologySweep, HoldingsOnlyGrow) {
  const auto graph = GetParam().build(7);
  sim::Rng alloc_rng{8};
  const auto alloc = token::allocate_uniform_replicas(
      graph.node_count(), 16, 2, alloc_rng);
  token::ModelConfig config;
  config.tokens = 16;
  config.contact_bound = 1;
  config.max_rounds = 30;
  config.seed = 10;
  token::NullAttacker none;
  const auto result =
      token::TokenModel{graph, config, alloc,
                        std::make_shared<token::CompleteSetSatiation>()}
          .run(none);
  // Final holdings are a superset of the initial allocation.
  for (std::size_t v = 0; v < alloc.size(); ++v) {
    EXPECT_EQ(alloc[v].count_and_not(result.holdings[v]), 0u)
        << GetParam().name << " node " << v;
  }
}

TEST_P(TokenTopologySweep, CompletionImpliesFullCoverage) {
  const auto graph = GetParam().build(7);
  sim::Rng alloc_rng{8};
  const auto alloc = token::allocate_uniform_replicas(
      graph.node_count(), 16, 3, alloc_rng);
  token::ModelConfig config;
  config.tokens = 16;
  config.contact_bound = 2;
  config.altruism = 0.2;
  config.max_rounds = 300;
  config.seed = 11;
  token::NullAttacker none;
  const auto result =
      token::TokenModel{graph, config, alloc,
                        std::make_shared<token::CompleteSetSatiation>()}
          .run(none);
  ASSERT_TRUE(result.all_satiated) << GetParam().name;
  for (const auto& held : result.holdings) {
    EXPECT_TRUE(held.all());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TokenTopologySweep,
    ::testing::Values(
        TopologyParam{"complete",
                      [](std::uint64_t) { return net::make_complete(60); }},
        TopologyParam{"torus",
                      [](std::uint64_t) { return net::make_torus(8, 8); }},
        TopologyParam{"erdos_renyi",
                      [](std::uint64_t seed) {
                        sim::Rng rng{seed};
                        return net::make_erdos_renyi(60, 0.15, rng);
                      }},
        TopologyParam{"small_world",
                      [](std::uint64_t seed) {
                        sim::Rng rng{seed};
                        return net::make_watts_strogatz(60, 3, 0.2, rng);
                      }}),
    [](const ::testing::TestParamInfo<TopologyParam>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Scrip invariants across seeds: conservation and threshold honesty.
// ---------------------------------------------------------------------------

class ScripSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScripSeedSweep, SupplyConservedUnderEveryAttack) {
  for (const auto kind : {scrip::ScripAttack::Kind::kNone,
                          scrip::ScripAttack::Kind::kMoneyGift,
                          scrip::ScripAttack::Kind::kCheapService}) {
    scrip::EconomyConfig config;
    config.agents = 80;
    config.rounds = 150;
    config.warmup_rounds = 20;
    config.seed = GetParam();
    scrip::ScripAttack attack;
    attack.kind = kind;
    attack.budget = 300;
    attack.target_count = kind == scrip::ScripAttack::Kind::kNone ? 0 : 20;
    attack.target_rare_providers = false;
    scrip::Economy economy{config, attack};
    // Economy::run throws std::logic_error if a single scrip is minted or
    // burned anywhere.
    EXPECT_NO_THROW((void)economy.run());
  }
}

TEST_P(ScripSeedSweep, AltruistFractionMonotoneInQuitting) {
  scrip::EconomyConfig config;
  config.agents = 120;
  config.rounds = 250;
  config.warmup_rounds = 40;
  config.seed = GetParam();
  auto few = config;
  few.altruist_fraction = 0.02;
  auto many = config;
  many.altruist_fraction = 0.25;
  const auto few_run = scrip::Economy{few, scrip::ScripAttack{}}.run();
  const auto many_run = scrip::Economy{many, scrip::ScripAttack{}}.run();
  EXPECT_GE(many_run.quit_fraction + 0.05, few_run.quit_fraction)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScripSeedSweep,
                         ::testing::Values(1u, 17u, 23u));

}  // namespace
}  // namespace lotus
