// Extension experiment (§1): "By changing who is satiated over time, the
// attacker could even make the service intermittently unusable for all
// nodes." Compares the static ideal attack (breaks the isolated 30%) with
// a rotating satiated set (hurts everyone a little — enough that no node
// clears the usability bar).
#include <iostream>
#include <string>
#include <vector>

#include "gossip/config.h"
#include "gossip/engine.h"
#include "registry.h"
#include "sim/parallel.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec intermittent_spec() {
  return {.program = "intermittent",
          .summary =
              "Extension: rotating the satiated set makes the service "
              "intermittently unusable for all nodes.",
          .sweeps = false,
          .seed = 55};
}

int run_intermittent(const exp::Cli& cli, exp::CsvSink& sink,
                     exp::TrialCache& /*cache*/) {
  gossip::GossipConfig config;  // Table 1
  // Long horizon: the slowest rotation below has a ~120-round cycle and
  // every node should live through several isolated stretches.
  config.rounds = 360;
  config.seed = cli.seed();
  cli.apply_scale(config);  // --nodes/--rounds scale sweeps

  std::cout << "=== Extension: intermittent satiation hurts everyone (§1) ===\n"
            << "ideal lotus-eater at 10% control, satiating 70% of nodes\n\n";

  std::vector<std::string> names = {"no attack"};
  std::vector<gossip::AttackPlan> plans = {gossip::AttackPlan{}};
  for (const std::uint32_t period : {0u, 5u, 15u, 25u, 40u}) {
    gossip::AttackPlan plan;
    plan.kind = gossip::AttackKind::kIdealLotus;
    plan.attacker_fraction = 0.10;
    plan.rotation_period = period;
    names.push_back(period == 0
                        ? "static (the paper's figures)"
                        : "rotating every " + std::to_string(period) +
                              " rounds");
    plans.push_back(plan);
  }

  // The runs are independent: they run side by side on one pool.
  std::vector<gossip::GossipResult> results(plans.size());
  sim::ThreadPool pool{cli.threads()};
  pool.parallel_for(plans.size(), [&](std::size_t i) {
    results[i] = gossip::run_gossip(config, plans[i]);
  });

  sim::Table table{{"satiated set", "mean delivery", "unusable node-time",
                    "nodes with outages"}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row(
        {names[i], sim::format_double(result.overall_delivery, 3),
         sim::format_double(result.unusable_node_generations, 3),
         sim::format_double(result.nodes_with_unusable_stretch, 3)});
  }
  exp::emit(std::cout, sink, table, "rotation");

  std::cout << "\n'unusable node-time' = fraction of (node, generation) "
               "pairs below the 93% bar;\n'nodes with outages' = fraction "
               "of nodes unusable in at least 10% of generations.\n\n"
               "Expected shape: statically, outages are concentrated on the "
               "isolated ~30% while\neveryone else enjoys perfect service. "
               "Rotation faster than the 10-round update\nlifetime heals "
               "(the next multicast backfills before expiry); rotation "
               "slower than\nthe lifetime spreads genuine outages across "
               "essentially the whole population —\nintermittently unusable "
               "for all nodes (§1).\n";
  return 0;
}

}  // namespace lotus::figs
