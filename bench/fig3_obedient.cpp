// Figure 3: "Obedient nodes reduce effectiveness."
//
// The trade lotus-eater attack swept over attacker fraction for the four
// combinations of {push size 2, push size 4} x {balanced, unbalanced
// exchanges}. Unbalanced: obedient nodes give one more update than they
// receive when receiving at least one. Paper: the two small changes combined
// raise the fraction the attacker must control by almost 50%.
#include <cmath>
#include <iostream>
#include <iterator>
#include <vector>

#include "core/critical.h"
#include "exp/hash.h"
#include "gossip/config.h"
#include "registry.h"
#include "sim/parallel.h"
#include "sim/sweep.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec fig3_obedient_spec() {
  return {.program = "fig3_obedient",
          .summary =
              "Figure 3: obedient nodes reduce the trade attack's "
              "effectiveness.",
          .points = 22,
          .seeds = 3,
          .quick_points = 8,
          .quick_seeds = 1,
          .seed = 2008};
}

int run_fig3_obedient(const exp::Cli& cli, exp::CsvSink& sink,
                      exp::TrialCache& cache) {
  struct Variant {
    const char* name;
    std::uint32_t push_size;
    bool unbalanced;
  };
  const Variant variants[] = {
      {"push 2, balanced", 2, false},
      {"push 2, unbalanced", 2, true},
      {"push 4, balanced", 4, false},
      {"push 4, unbalanced", 4, true},
  };

  std::cout << "=== Figure 3: Obedient nodes reduce effectiveness ===\n"
            << "trade lotus-eater attack; x: fraction controlled by attacker\n"
            << "y: fraction of updates received by isolated nodes\n\n";

  // The four variants' curves run side by side on one pool.
  const double usability_threshold = gossip::GossipConfig{}.usability_threshold;
  sim::ThreadPool pool{cli.threads()};
  std::vector<sim::Series> curves(std::size(variants));
  pool.parallel_for(std::size(variants), [&](std::size_t i) {
    const Variant& variant = variants[i];
    gossip::GossipConfig config;
    config.push_size = variant.push_size;
    config.unbalanced_exchange = variant.unbalanced;
    config.seed = cli.seed();
    cli.apply_scale(config);  // --nodes/--rounds scale sweeps
    core::CriticalQuery query;
    query.config = config;
    query.attack = gossip::AttackKind::kTradeLotus;
    query.seeds = cli.seeds();
    query.lo = 0.0;
    query.hi = 0.7;  // the paper's Figure 3 x range
    query.pool = &pool;
    exp::ScopedMemo memo{cache, exp::trial_space_hash(query), query.memo,
                         cli.cache_enabled()};
    curves[i] = core::delivery_curve(query, cli.points());
    curves[i].name = variant.name;
  });
  std::vector<double> crossing_values;
  for (const auto& curve : curves) {
    crossing_values.push_back(curve.first_crossing_below(usability_threshold));
  }
  exp::emit(std::cout, sink, sim::series_table("attacker_fraction", curves, 3),
            "delivery");

  std::cout << "\n93% usability crossings:\n";
  sim::Table crossings{{"variant", "crossing"}};
  for (std::size_t i = 0; i < curves.size(); ++i) {
    crossings.add_row(
        {curves[i].name, sim::format_double(crossing_values[i], 3)});
  }
  exp::emit(std::cout, sink, crossings, "usability_crossings_93");

  if (crossing_values[0] > 0 && !std::isnan(crossing_values[0]) &&
      !std::isnan(crossing_values[3])) {
    std::cout << "\ncombined change raises the required fraction by "
              << sim::format_double(
                     (crossing_values[3] / crossing_values[0] - 1.0) * 100.0, 0)
              << "% (paper: almost 50%)\n";
  }
  return 0;
}

}  // namespace lotus::figs
