// Diagnostic tool (not part of the library): where does baseline delivery
// leak? Prints per-node and per-update delivery distributions and traffic
// counters for a no-attack run at Table 1 parameters. Protocol windows are
// exposed as flags (the old positional arguments) via the shared bench CLI.
// It runs the plain reference simulator (tests/ref/), which keeps every
// node's holdings over the whole horizon, expired updates included.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "exp/cli.h"
#include "gossip/update_store.h"
#include "ref/reference.h"
#include "sim/stats.h"
#include "sim/table.h"

int main(int argc, char** argv) {
  using namespace lotus;
  gossip::GossipConfig config;
  std::uint64_t push_size = config.push_size;
  std::uint64_t recent_window = config.recent_window;
  std::uint64_t old_window = config.old_window;

  exp::Cli cli{{.program = "debug_baseline",
                .summary =
                    "Diagnostic: delivery distributions and traffic counters "
                    "for an unattacked run.",
                .sweeps = false,
                .seed = 2008}};
  cli.add_option("--push-size", "optimistic push size", &push_size);
  cli.add_option("--recent-window", "recently-released window (rounds)",
                 &recent_window);
  cli.add_option("--old-window", "near-expiry window (rounds)", &old_window);
  if (const auto rc = cli.handle(argc, argv)) return *rc;

  config.seed = cli.seed();
  cli.apply_scale(config);
  config.push_size = static_cast<std::uint32_t>(push_size);
  config.recent_window = static_cast<std::uint32_t>(recent_window);
  config.old_window = static_cast<std::uint32_t>(old_window);

  // The per-update view needs expired holdings, which the engine recycles.
  ref::ReferenceRun run;
  try {
    run = ref::simulate(config, gossip::AttackPlan{});
  } catch (const std::invalid_argument& e) {
    std::cerr << cli.program() << ": invalid configuration: " << e.what()
              << "\n";
    return 2;
  }
  const auto& result = run.result;
  const gossip::UpdateClock clock{config};
  const auto measured = clock.measured(config.warmup_rounds);

  std::cout << "overall=" << result.overall_delivery
            << " exchanges=" << result.balanced_exchanges
            << " exch_updates=" << result.exchange_updates
            << " pushes=" << result.pushes
            << " push_updates=" << result.push_updates
            << " junk=" << result.junk_updates << "\n";
  std::cout << "mean updates per exchange = "
            << static_cast<double>(result.exchange_updates) /
                   static_cast<double>(result.balanced_exchanges)
            << "\n";

  // Per-node delivery distribution.
  std::vector<double> node_delivery;
  for (std::uint32_t v = 0; v < config.nodes; ++v) {
    std::size_t held = 0;
    for (auto u = measured.lo; u < measured.hi; ++u) held += run.holdings[v][u];
    node_delivery.push_back(static_cast<double>(held) /
                            static_cast<double>(measured.size()));
  }
  std::sort(node_delivery.begin(), node_delivery.end());
  std::cout << "node delivery: min=" << node_delivery.front()
            << " p10=" << sim::percentile(node_delivery, 0.1)
            << " p50=" << sim::percentile(node_delivery, 0.5)
            << " p90=" << sim::percentile(node_delivery, 0.9)
            << " max=" << node_delivery.back() << "\n";

  // Per-update delivery distribution.
  std::vector<double> upd_delivery;
  for (auto u = measured.lo; u < measured.hi; ++u) {
    std::size_t holders = 0;
    for (std::uint32_t v = 0; v < config.nodes; ++v) {
      holders += run.holdings[v][u];
    }
    upd_delivery.push_back(static_cast<double>(holders) /
                           static_cast<double>(config.nodes));
  }
  std::sort(upd_delivery.begin(), upd_delivery.end());
  std::cout << "update delivery: min=" << upd_delivery.front()
            << " p10=" << sim::percentile(upd_delivery, 0.1)
            << " p50=" << sim::percentile(upd_delivery, 0.5)
            << " p90=" << sim::percentile(upd_delivery, 0.9)
            << " max=" << upd_delivery.back() << "\n";
  return 0;
}
