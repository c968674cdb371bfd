// Figure 1: "Three attacks on BAR Gossip."
//
// Sweeps the fraction of nodes controlled by the attacker and reports the
// fraction of updates received by isolated nodes for the crash attack, the
// ideal lotus-eater attack, and the trade lotus-eater attack, with the
// parameters of Table 1. Also prints the measured 93%-usability crossings
// the paper quotes (crash ~42%, ideal ~4%, trade ~22%) and the attacker's
// update coverage at the ideal critical point (paper: 39%).
//
// Driven by the shared experiment CLI (exp::Cli); the trial cache lets the
// critical-point bisection reuse the trials the curves already ran, and the
// lotus_figs driver shares that cache (plus its on-disk store) across
// figure families.
#include <iostream>
#include <iterator>
#include <vector>

#include "core/critical.h"
#include "exp/hash.h"
#include "gossip/config.h"
#include "gossip/engine.h"
#include "registry.h"
#include "sim/parallel.h"
#include "sim/sweep.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec fig1_attacks_spec() {
  return {.program = "fig1_attacks",
          .summary = "Figure 1: three attacks on BAR Gossip.",
          .points = 24,
          .seeds = 3,
          .quick_points = 10,
          .quick_seeds = 1,
          .seed = 2008};
}

int run_fig1_attacks(const exp::Cli& cli, exp::CsvSink& sink,
                     exp::TrialCache& cache) {
  gossip::GossipConfig config;  // Table 1 defaults
  config.seed = cli.seed();
  cli.apply_scale(config);  // --nodes/--rounds scale sweeps

  core::CriticalQuery query;
  query.config = config;
  query.seeds = cli.seeds();
  query.lo = 0.0;
  query.hi = 0.9;

  std::cout << "=== Figure 1: Three attacks on BAR Gossip ===\n"
            << "x: fraction of nodes controlled by attacker\n"
            << "y: fraction of updates received by isolated nodes\n\n";

  // The three curves and the ideal attack's bisection (the coverage line
  // below) run side by side on one pool. With the cache on, the bisection's
  // bracket probes are served from the ideal curve's trials instead of
  // re-running, waiting for them if the curve is still running them.
  constexpr gossip::AttackKind kinds[] = {gossip::AttackKind::kCrash,
                                          gossip::AttackKind::kIdealLotus,
                                          gossip::AttackKind::kTradeLotus};
  sim::ThreadPool pool{cli.threads()};
  query.pool = &pool;
  std::vector<sim::Series> curves(std::size(kinds));
  double ideal_critical = 0.0;
  pool.parallel_for(std::size(kinds) + 1, [&](std::size_t task) {
    core::CriticalQuery task_query = query;
    task_query.attack = task < std::size(kinds)
                            ? kinds[task]
                            : gossip::AttackKind::kIdealLotus;
    exp::ScopedMemo memo{cache, exp::trial_space_hash(task_query),
                         task_query.memo, cli.cache_enabled()};
    if (task < std::size(kinds)) {
      curves[task] = core::delivery_curve(task_query, cli.points());
    } else {
      ideal_critical = core::critical_attacker_fraction(task_query);
    }
  });

  exp::emit(std::cout, sink, sim::series_table("attacker_fraction", curves, 3),
            "delivery");

  std::cout << "\n93% usability crossings (paper: crash ~0.42, ideal ~0.04, "
               "trade ~0.22):\n";
  sim::Table crossings{{"curve", "crossing"}};
  for (const auto& curve : curves) {
    crossings.add_row(
        {curve.name,
         sim::format_double(
             curve.first_crossing_below(config.usability_threshold), 3)});
  }
  exp::emit(std::cout, sink, crossings, "usability_crossings_93");

  // Attacker coverage at the ideal critical point (paper: 39% of updates).
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kIdealLotus;
  plan.attacker_fraction = ideal_critical;
  const auto at_critical = gossip::run_gossip(config, plan);
  const std::string critical_str = sim::format_double(ideal_critical, 3);
  const std::string coverage_str =
      sim::format_double(at_critical.attacker_coverage * 100.0, 1);
  std::cout << "\nideal attack at its critical fraction (" << critical_str
            << "): attacker received " << coverage_str
            << "% of updates (paper: 39%)\n";
  sim::Table summary{{"ideal critical fraction", "attacker coverage %"}};
  summary.add_row({critical_str, coverage_str});
  sink.write(summary, "ideal_critical_summary");
  return 0;
}

}  // namespace lotus::figs
