// Crossover at scale: does the trade lotus-eater's ~22% critical fraction
// move with system size?
//
// Figure 1 reproduces the paper's crossings at the Table-1 scale (250
// nodes). This study re-runs the trade-lotus sweep at 10^4 and 10^5 nodes
// (10^2.4 and 10^3 quick) with the *seeding fraction* held at Table 1's
// 12/250: copies seeded scale with n so the unattacked epidemic still
// saturates inside the update lifetime and the baseline stays ~99% at every
// size. (Holding copies at the constant 12 instead starves the epidemic —
// delivery collapses to ~0 at 10^5 nodes with no attacker at all, and there
// is no usability crossover to measure.) Each scale reports the curve's
// interpolated 93% crossing and the bisected critical attacker fraction.
//
// Each trial runs on one thread; --threads N spreads every scale's curve and
// bisection over one pool of N threads, and results are bit-identical at
// any width.
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/critical.h"
#include "exp/hash.h"
#include "gossip/config.h"
#include "registry.h"
#include "sim/parallel.h"
#include "sim/sweep.h"
#include "sim/table.h"

namespace lotus::figs {

namespace {

/// Table 1 seeds 12 copies into 250 nodes; keep that fraction as n grows.
std::uint32_t scaled_copies(std::uint32_t nodes) {
  const auto copies =
      (static_cast<std::uint64_t>(nodes) * 12 + 125) / 250;
  return copies < 1 ? 1u : static_cast<std::uint32_t>(copies);
}

}  // namespace

exp::CliSpec scale_crossover_spec() {
  return {.program = "scale_crossover",
          .summary =
              "Crossover at scale: the trade lotus-eater's critical "
              "fraction at 10^4 and 10^5 nodes.",
          .points = 16,
          .seeds = 2,
          .quick_points = 8,
          .quick_seeds = 1,
          .seed = 2008};
}

int run_scale_crossover(const exp::Cli& cli, exp::CsvSink& sink,
                        exp::TrialCache& cache) {
  // --nodes pins a single scale; otherwise quick trades the 10^5 run for
  // 10^2.4/10^3-sized ones. 250 nodes rides along in both modes as the
  // paper-scale anchor (its crossing should match Figure 1's ~0.22).
  std::vector<std::uint32_t> scales;
  if (cli.nodes() != 0) {
    scales = {cli.nodes()};
  } else if (cli.quick()) {
    scales = {250, 2500, 10000};
  } else {
    scales = {250, 10000, 100000};
  }

  std::cout << "=== Crossover at scale: trade lotus-eater vs system size ===\n"
            << "copies seeded scale with n (Table 1's 12/250) so the\n"
            << "unattacked baseline stays ~99% at every size\n"
            << "x: fraction of nodes controlled by attacker\n"
            << "y: fraction of updates received by isolated nodes\n\n";

  sim::ThreadPool pool{cli.threads()};
  std::vector<core::CriticalQuery> queries;
  for (const auto nodes : scales) {
    gossip::GossipConfig config;  // Table 1 defaults...
    config.nodes = nodes;
    config.copies_seeded = scaled_copies(nodes);  // ...at constant fraction
    config.seed = cli.seed();
    if (cli.rounds() != 0) config.rounds = cli.rounds();

    core::CriticalQuery query;
    query.config = config;
    query.attack = gossip::AttackKind::kTradeLotus;
    query.seeds = cli.seeds();
    query.lo = 0.0;
    query.hi = 0.45;  // brackets the ~0.22 crossover with 2x Figure-1 resolution
    query.pool = &pool;
    queries.push_back(query);
  }

  // Every scale's curve and bisection run side by side on one pool: the
  // curves' trials fill the workers the bisections' narrow batches leave
  // idle. One memo scope per scale, so the bisection's bracket probes reuse
  // the curve's trials wherever the x values coincide (waiting for them
  // when the curve is still running them). Each task binds the scope in
  // its own copy of the query.
  std::vector<sim::Series> curves(queries.size());
  std::vector<double> criticals(queries.size());
  pool.parallel_for(2 * queries.size(), [&](std::size_t task) {
    core::CriticalQuery query = queries[task / 2];
    exp::ScopedMemo memo{cache, exp::trial_space_hash(query), query.memo,
                         cli.cache_enabled()};
    if (task % 2 == 0) {
      curves[task / 2] = core::delivery_curve(query, cli.points());
    } else {
      criticals[task / 2] = core::critical_attacker_fraction(query);
    }
  });

  sim::Table crossings{
      {"nodes", "copies_seeded", "crossing_93", "critical_bisect"}};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& config = queries[i].config;
    curves[i].name = "n=" + std::to_string(config.nodes);
    const double crossing =
        curves[i].first_crossing_below(config.usability_threshold);
    crossings.add_row({curves[i].name, std::to_string(config.copies_seeded),
                       sim::format_double(crossing, 3),
                       sim::format_double(criticals[i], 3)});
  }

  exp::emit(std::cout, sink, sim::series_table("attacker_fraction", curves, 3),
            "delivery");

  std::cout << "\n93% usability crossings vs system size (paper, 250 nodes: "
               "trade ~0.22):\n";
  exp::emit(std::cout, sink, crossings, "crossings_vs_scale");
  return 0;
}

}  // namespace lotus::figs
