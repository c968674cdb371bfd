// Churn under attack: the trade lotus-eater against a membership that is
// already turning over.
//
// The paper's model is static — every node present for the whole run. This
// study turns membership over with a seeded ChurnPlan (half the departures
// graceful leaves, half crashes whose state decays after one update
// lifetime; joins recycle dead seats at 4x the departure rate) and asks the
// question the static model could not: does the lotus-eater attack get
// stronger or weaker when the victim set churns on its own?
//
// Three sections:
//   1. The headline sweep: trade-lotus delivery curves and the 93%
//      usability crossover as a function of membership half-life at Table 1
//      scale. Half-life h rounds => per-round departure rate ln2/h.
//   2. The same crossover at 10^4-scale populations (10^3.4 quick) with the
//      seeding fraction held at Table 1's 12/250, one mid-range half-life.
//      --nodes pins a single scale; 10^5 is reachable the same way.
//   3. Heterogeneous capacities: a slow minority (giver-side per-interaction
//      cap) on top of churn.
//
// Delivery under churn is eligibility-weighted: a seat only counts toward
// the generations it was a member for (see gossip/engine.cpp). The churn
// draws come from their own seeded stream, so each trial is deterministic
// and the sweep's output is bit-identical at any --threads width.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/critical.h"
#include "exp/hash.h"
#include "gossip/config.h"
#include "registry.h"
#include "sim/sweep.h"
#include "sim/table.h"

namespace lotus::figs {

namespace {

/// Departure half-life h (rounds) -> the study's churn plan: rate ln2/h
/// split evenly between graceful leaves and crashes, crash state decaying
/// after one update lifetime, joins refilling dead seats at 4x the departure
/// rate (~80% of seats live at equilibrium). h = 0 means static membership.
gossip::ChurnPlan churn_for_half_life(std::uint32_t half_life,
                                      std::uint32_t update_lifetime) {
  gossip::ChurnPlan churn;
  if (half_life == 0) return churn;
  const double depart = std::log(2.0) / static_cast<double>(half_life);
  churn.leave_rate = depart / 2.0;
  churn.crash_rate = depart / 2.0;
  churn.decay_rounds = update_lifetime;
  churn.join_rate = std::min(1.0, 4.0 * depart);
  return churn;
}

/// Table 1 seeds 12 copies into 250 nodes; keep that fraction as n grows
/// (constant copies starve the epidemic at scale — see scale_crossover).
std::uint32_t scaled_copies(std::uint32_t nodes) {
  const auto copies = (static_cast<std::uint64_t>(nodes) * 12 + 125) / 250;
  return copies < 1 ? 1u : static_cast<std::uint32_t>(copies);
}

struct ChurnScenario {
  std::string label;
  gossip::GossipConfig config;
};

/// Runs the trade-lotus sweep for one scenario: delivery curve over
/// attacker fraction, its interpolated 93% crossing, and the bisected
/// critical fraction. The curve starts at x = 0, so its first point is the
/// no-attack baseline under that churn plan.
sim::Series scenario_curve(const exp::Cli& cli, exp::TrialCache& cache,
                           const ChurnScenario& scenario, sim::Table& rows,
                           std::vector<std::string> row_prefix) {
  core::CriticalQuery query;
  query.config = scenario.config;
  query.attack = gossip::AttackKind::kTradeLotus;
  query.seeds = cli.seeds();
  query.lo = 0.0;
  query.hi = 0.45;  // brackets the static ~0.22 crossover with headroom
  query.threads = cli.threads();

  // One memo scope per scenario: the churn fields are part of config_hash,
  // so every half-life / scale / capacity variant gets its own trial space
  // and the bisection reuses the curve's grid points.
  exp::ScopedMemo memo{cache, exp::trial_space_hash(query), query.memo,
                       cli.cache_enabled()};
  auto curve = core::delivery_curve(query, cli.points());
  curve.name = scenario.label;
  const double baseline = curve.ys.empty() ? 1.0 : curve.ys.front();
  const double crossing =
      curve.first_crossing_below(scenario.config.usability_threshold);
  const double critical = core::critical_attacker_fraction(query);
  row_prefix.push_back(sim::format_double(baseline, 3));
  row_prefix.push_back(sim::format_double(crossing, 3));
  row_prefix.push_back(sim::format_double(critical, 3));
  rows.add_row(std::move(row_prefix));
  return curve;
}

}  // namespace

exp::CliSpec churn_attack_spec() {
  return {.program = "churn_attack",
          .summary =
              "Trade lotus-eater vs dynamic membership: the usability "
              "crossover as a function of churn half-life, at scale, and "
              "with slow seats.",
          .points = 12,
          .seeds = 2,
          .quick_points = 6,
          .quick_seeds = 1,
          .seed = 2008};
}

int run_churn_attack(const exp::Cli& cli, exp::CsvSink& sink,
                     exp::TrialCache& cache) {
  std::cout << "=== Churn under attack: trade lotus-eater vs membership "
               "half-life ===\n"
            << "departures: half leaves, half crashes (state decays after "
               "one lifetime);\n"
            << "joins recycle dead seats at 4x the departure rate\n"
            << "delivery is eligibility-weighted: seats count only toward "
               "generations\n"
            << "they were members for\n"
            << "x: fraction of nodes controlled by attacker\n"
            << "y: fraction of eligible updates received by isolated nodes\n\n";

  // --- Section 1: half-life sweep at Table 1 scale -------------------------
  const std::vector<std::uint32_t> half_lives = {0, 120, 60, 30, 15};
  std::vector<sim::Series> curves;
  sim::Table crossings{{"half_life", "depart_rate", "baseline", "crossing_93",
                        "critical_bisect"}};
  for (const auto h : half_lives) {
    gossip::GossipConfig config;  // Table 1 defaults
    config.seed = cli.seed();
    if (cli.rounds() != 0) config.rounds = cli.rounds();
    config.churn = churn_for_half_life(h, config.update_lifetime);
    ChurnScenario scenario{
        h == 0 ? std::string{"static"} : "h=" + std::to_string(h), config};
    const double depart =
        config.churn.leave_rate + config.churn.crash_rate;
    curves.push_back(scenario_curve(
        cli, cache, scenario, crossings,
        {scenario.label, sim::format_double(depart, 4)}));
  }
  exp::emit(std::cout, sink, sim::series_table("attacker_fraction", curves, 3),
            "delivery_vs_half_life");
  std::cout << "\n93% usability crossings vs membership half-life (static "
               "trade ~0.22):\n";
  exp::emit(std::cout, sink, crossings, "crossings_vs_half_life");

  // --- Section 2: one mid-range half-life at scale --------------------------
  std::vector<std::uint32_t> scales;
  if (cli.nodes() != 0) {
    scales = {cli.nodes()};
  } else if (cli.quick()) {
    scales = {250, 2500};
  } else {
    scales = {250, 10000};
  }
  constexpr std::uint32_t kScaleHalfLife = 45;
  sim::Table scale_rows{{"nodes", "copies_seeded", "baseline", "crossing_93",
                         "critical_bisect"}};
  for (const auto nodes : scales) {
    gossip::GossipConfig config;
    config.nodes = nodes;
    config.copies_seeded = scaled_copies(nodes);
    config.seed = cli.seed();
    if (cli.rounds() != 0) config.rounds = cli.rounds();
    config.churn = churn_for_half_life(kScaleHalfLife, config.update_lifetime);
    ChurnScenario scenario{"n=" + std::to_string(nodes), config};
    (void)scenario_curve(cli, cache, scenario, scale_rows,
                         {scenario.label,
                          std::to_string(config.copies_seeded)});
  }
  std::cout << "\ncrossover at scale, half-life " << kScaleHalfLife
            << " rounds (copies seeded scale with n):\n";
  exp::emit(std::cout, sink, scale_rows, "crossings_vs_scale");

  // --- Section 3: slow seats on top of churn --------------------------------
  sim::Table capacity_rows{{"variant", "baseline", "crossing_93",
                            "critical_bisect"}};
  for (const bool slow : {false, true}) {
    gossip::GossipConfig config;
    config.seed = cli.seed();
    if (cli.rounds() != 0) config.rounds = cli.rounds();
    config.churn = churn_for_half_life(60, config.update_lifetime);
    if (slow) {
      config.churn.slow_fraction = 0.3;
      config.churn.slow_cap = 4;
    }
    ChurnScenario scenario{slow ? "30% seats capped at 4/interaction"
                                : "uniform capacity",
                           config};
    (void)scenario_curve(cli, cache, scenario, capacity_rows,
                         {scenario.label});
  }
  std::cout << "\nheterogeneous capacities at half-life 60:\n";
  exp::emit(std::cout, sink, capacity_rows, "crossings_vs_capacity");
  return 0;
}

}  // namespace lotus::figs
