// E13 (§4): leveraging obedience. Obedient nodes report provably excessive
// service (dual-signed exchange records); proven offenders are evicted.
// Sweeping the obedient fraction shows the attack collapsing once enough
// reporters exist — "if there are sufficiently many obedient nodes in the
// system, then we can essentially prevent a lotus-eater attack".
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "gossip/config.h"
#include "gossip/engine.h"
#include "registry.h"
#include "sim/parallel.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec obedience_report_spec() {
  return {.program = "obedience_report",
          .summary =
              "E13: excessive-service reporting vs the trade attack, "
              "swept over the obedient fraction.",
          .sweeps = false,
          .seed = 31};
}

int run_obedience_report(const exp::Cli& cli, exp::CsvSink& sink,
                         exp::TrialCache& /*cache*/) {
  gossip::GossipConfig config;  // Table 1
  config.reporting_enabled = true;
  config.service_limit = 25;
  config.seed = cli.seed();
  cli.apply_scale(config);  // --nodes/--rounds scale sweeps

  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.25;  // comfortably above the trade critical point

  std::cout << "=== E13: excessive-service reporting vs trade attack ===\n"
            << "trade lotus-eater at 25% control; service limit "
            << config.service_limit << " updates/exchange\n\n";

  // Every run is independent: the obedient-fraction sweep and the two
  // ideal-attack runs below go side by side on one pool. The same defence
  // also catches the ideal attack's out-of-band floods.
  constexpr double obedient_fractions[] = {0.0, 0.05, 0.1, 0.25, 0.5, 1.0};
  constexpr std::size_t kSweep = std::size(obedient_fractions);
  std::vector<std::pair<gossip::GossipConfig, gossip::AttackPlan>> runs;
  for (const double obedient : obedient_fractions) {
    config.obedient_fraction = obedient;
    runs.emplace_back(config, plan);
  }
  gossip::AttackPlan ideal;
  ideal.kind = gossip::AttackKind::kIdealLotus;
  ideal.attacker_fraction = 0.1;
  config.obedient_fraction = 0.5;
  runs.emplace_back(config, ideal);  // defended
  config.reporting_enabled = false;
  runs.emplace_back(config, ideal);  // open
  std::vector<gossip::GossipResult> results(runs.size());
  sim::ThreadPool pool{cli.threads()};
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    results[i] = gossip::run_gossip(runs[i].first, runs[i].second);
  });

  sim::Table table{{"obedient fraction", "isolated delivery", "reports",
                    "attackers evicted", "dumps delivered"}};
  for (std::size_t i = 0; i < kSweep; ++i) {
    const auto& result = results[i];
    table.add_row({sim::format_double(obedient_fractions[i], 2),
                   sim::format_double(result.isolated_delivery, 3),
                   std::to_string(result.reports_filed),
                   std::to_string(result.attackers_evicted) + "/" +
                       std::to_string(result.attacker_nodes),
                   std::to_string(result.attacker_dump_updates)});
  }
  exp::emit(std::cout, sink, table, "obedient_fraction_sweep");

  const auto& ideal_defended = results[kSweep];
  const auto& ideal_open = results[kSweep + 1];
  std::cout << "\nideal attack at 10%: isolated delivery "
            << sim::format_double(ideal_open.isolated_delivery, 3)
            << " undefended vs "
            << sim::format_double(ideal_defended.isolated_delivery, 3)
            << " with 50% obedient reporters ("
            << ideal_defended.attackers_evicted << "/"
            << ideal_defended.attacker_nodes << " evicted)\n";
  sim::Table ideal_table{{"defence", "isolated delivery", "attackers evicted"}};
  ideal_table.add_row({"none", sim::format_double(ideal_open.isolated_delivery, 3),
                       "-"});
  ideal_table.add_row({"50% obedient reporters",
                       sim::format_double(ideal_defended.isolated_delivery, 3),
                       std::to_string(ideal_defended.attackers_evicted) + "/" +
                           std::to_string(ideal_defended.attacker_nodes)});
  sink.write(ideal_table, "ideal_attack_defence");

  std::cout << "\nExpected shape: delivery recovers toward the baseline as "
               "the obedient fraction grows; rational-only populations "
               "(fraction 0) never report and stay broken.\n";
  return 0;
}

}  // namespace lotus::figs
