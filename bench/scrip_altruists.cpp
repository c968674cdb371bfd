// E10 (§4, citing EC'07): "if altruists are not handled appropriately they
// can cause what would otherwise be a thriving economy to crash". Sweeping
// the altruist fraction: once free service is common enough, rational
// agents stop earning, and total availability falls to what the altruists
// alone can carry.
#include <iostream>
#include <iterator>
#include <vector>

#include "registry.h"
#include "scrip/analysis.h"
#include "sim/parallel.h"
#include "sim/table.h"

namespace lotus::figs {

exp::CliSpec scrip_altruists_spec() {
  return {.program = "scrip_altruists",
          .summary = "E10: altruists crash a scrip economy.",
          .sweeps = false,
          .seed = 13};
}

int run_scrip_altruists(const exp::Cli& cli, exp::CsvSink& sink,
                        exp::TrialCache& /*cache*/) {
  scrip::EconomyConfig config;
  config.agents = 200;
  config.initial_money = 5;
  config.threshold = 10;
  config.request_probability = 0.15;
  config.free_ride_sensitivity = 0.5;
  config.rounds = 400;
  config.warmup_rounds = 50;
  config.seed = cli.seed();

  std::cout << "=== E10: altruists crash a scrip economy (paper section 4) ===\n\n";
  sim::Table table{{"altruist fraction", "availability", "rational quit",
                    "paid share of service"}};
  // The economies are independent: they run side by side on one pool.
  constexpr double fractions[] = {0.0,  0.02, 0.05, 0.08,
                                  0.10, 0.15, 0.20, 0.30};
  std::vector<scrip::AltruistSweepPoint> points(std::size(fractions));
  sim::ThreadPool pool{cli.threads()};
  pool.parallel_for(points.size(), [&](std::size_t i) {
    points[i] = scrip::run_altruist_point(config, fractions[i]);
  });
  for (const auto& point : points) {
    table.add_row({sim::format_double(point.altruist_fraction, 2),
                   sim::format_double(point.availability, 3),
                   sim::format_double(point.quit_fraction, 3),
                   sim::format_double(point.paid_share, 3)});
  }
  exp::emit(std::cout, sink, table, "altruist_fraction_sweep");
  std::cout << "\nExpected shape: a few altruists are harmless (paid share "
               "near 1). In the middle band the crash happens: rational "
               "agents quit en masse but the altruists cannot carry the "
               "demand, so availability dips below the altruist-free "
               "economy — agents \"now receive only the level of service "
               "altruists are providing\" (section 4). With very many "
               "altruists the headline availability recovers, but the paid "
               "economy is dead (paid share ~0).\n";
  return 0;
}

}  // namespace lotus::figs
