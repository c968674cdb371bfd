#include "registry.h"

#include <iostream>
#include <memory>
#include <stdexcept>

#include "exp/trial_store.h"

namespace lotus::figs {

const std::vector<BenchDef>& all_benches() {
  // Paper order: the gossip figures (which share the trial cache) first,
  // then Table 1 and the scenario studies.
  static const std::vector<BenchDef> benches = {
      {"fig1_attacks", fig1_attacks_spec, run_fig1_attacks},
      {"fig2_pushsize", fig2_pushsize_spec, run_fig2_pushsize},
      {"fig3_obedient", fig3_obedient_spec, run_fig3_obedient},
      {"scale_crossover", scale_crossover_spec, run_scale_crossover},
      {"churn_attack", churn_attack_spec, run_churn_attack},
      {"table1_params", table1_params_spec, run_table1_params},
      {"intermittent", intermittent_spec, run_intermittent},
      {"obedience_report", obedience_report_spec, run_obedience_report},
      {"token_rare", token_rare_spec, run_token_rare},
      {"token_cut", token_cut_spec, run_token_cut},
      {"token_altruism", token_altruism_spec, run_token_altruism},
      {"token_contacts", token_contacts_spec, run_token_contacts},
      {"scrip_defense", scrip_defense_spec, run_scrip_defense},
      {"scrip_altruists", scrip_altruists_spec, run_scrip_altruists},
      {"rep_attack", rep_attack_spec, run_rep_attack},
      {"bt_attack", bt_attack_spec, run_bt_attack},
      {"coding_defense", coding_defense_spec, run_coding_defense},
  };
  return benches;
}

const BenchDef* find_bench(std::string_view name) {
  for (const auto& bench : all_benches()) {
    if (name == bench.name) return &bench;
  }
  return nullptr;
}

int run_standalone(std::string_view name, int argc, const char* const* argv) {
  const BenchDef* def = find_bench(name);
  if (def == nullptr) {
    std::cerr << "unknown bench '" << name << "'\n";
    return 2;
  }
  exp::Cli cli{def->spec()};
  if (const auto rc = cli.handle(argc, argv)) return *rc;
  exp::CsvSink sink = exp::open_csv_or_exit(cli.csv(), cli.program());
  exp::TrialCache cache;
  // Only sweep benches route trials through the cache; fixed-scenario ones
  // would just create an empty store file.
  std::unique_ptr<exp::TrialStore> store;
  if (def->spec().sweeps) store = exp::open_store(cache, cli);
  int rc = 0;
  try {
    rc = def->run(cli, sink, cache);
  } catch (const std::invalid_argument& e) {
    // A configuration the simulators reject (e.g. --rounds too short for a
    // measured window): one line and the usage exit code, not an abort.
    std::cerr << cli.program() << ": invalid configuration: " << e.what()
              << "\n";
    return 2;
  }
  if (store) store->flush();
  cache.report(cli.program(), def->spec().sweeps && cli.cache_enabled() &&
                                  !cli.quiet_cache());
  return rc;
}

}  // namespace lotus::figs
