// E14 (§1): the reputation variant. The attacker's identities earn rating
// weight by genuinely serving, then pour it into the agents who exclusively
// provide a rare service class; those agents coast above their satiation
// threshold and the rare class collapses — without the attacker harming
// anyone directly. The share-cap defence restores service.
#include <iostream>
#include <string>
#include <vector>

#include "registry.h"
#include "rep/system.h"
#include "sim/parallel.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec rep_attack_spec() {
  return {.program = "rep_attack",
          .summary = "E14: reputation-inflation lotus-eater attack.",
          .sweeps = false,
          .seed = 23};
}

int run_rep_attack(const exp::Cli& cli, exp::CsvSink& sink,
                   exp::TrialCache& /*cache*/) {
  rep::SystemConfig config;
  config.agents = 100;
  config.rare_providers = 5;
  config.rare_request_fraction = 0.05;
  config.rounds = 300;
  config.warmup_rounds = 50;
  config.seed = cli.seed();

  std::cout << "=== E14: reputation-inflation lotus-eater attack ===\n"
            << "5 agents exclusively provide the rare class; satiation at "
            << config.satiation_multiple << "x uniform reputation\n\n";

  struct Scenario {
    const char* name;
    rep::SystemConfig config;
    rep::RepAttack attack;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline", config, rep::RepAttack{}});

  rep::RepAttack attack;
  attack.enabled = true;
  attack.attacker_agents = 12;
  attack.target_count = 5;
  attack.fake_trust_per_round = 10.0;
  scenarios.push_back({"inflate the 5 providers", config, attack});

  rep::RepAttack weak = attack;
  weak.attacker_agents = 3;
  scenarios.push_back({"same, only 3 sybils", config, weak});

  auto defended = config;
  defended.rating_share_cap = 0.05;
  scenarios.push_back({"attack vs share-cap defence", defended, attack});

  // The scenarios are independent: they run side by side on one pool.
  std::vector<rep::SystemResult> results(scenarios.size());
  sim::ThreadPool pool{cli.threads()};
  pool.parallel_for(scenarios.size(), [&](std::size_t i) {
    rep::ReputationSystem system{scenarios[i].config, scenarios[i].attack};
    results[i] = system.run();
  });

  sim::Table table{{"scenario", "rare availability", "generic availability",
                    "target reputation (x uniform)", "attacker served"}};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& result = results[i];
    table.add_row({scenarios[i].name,
                   sim::format_double(result.rare_availability, 3),
                   sim::format_double(result.availability, 3),
                   scenarios[i].attack.enabled
                       ? sim::format_double(result.target_reputation_multiple, 2)
                       : std::string{"-"},
                   std::to_string(result.attacker_served)});
  }

  exp::emit(std::cout, sink, table, "reputation_scenarios");
  std::cout << "\nExpected shape: with enough serving sybils the providers "
               "coast (reputation above the satiation threshold) and rare "
               "availability collapses while generic service is untouched; "
               "capping how much of a rater's voice one agent can receive "
               "restores it.\n";
  return 0;
}

}  // namespace lotus::figs
