// Critical attacker fraction: the headline quantity of every figure.
//
// For each attack the paper reports the smallest fraction of nodes the
// attacker must control for the isolated nodes' delivery to fall below the
// usability threshold (93%). This module computes it by bisection over the
// attacker fraction, averaging over seeds.
#pragma once

#include <cstdint>

#include "gossip/config.h"
#include "sim/stats.h"
#include "sim/sweep.h"

namespace lotus::core {

struct CriticalQuery {
  gossip::GossipConfig config;
  gossip::AttackKind attack = gossip::AttackKind::kCrash;
  double satiate_fraction = 0.7;
  double lo = 0.0;
  double hi = 0.9;
  double tolerance = 0.01;
  std::size_t seeds = 3;
  /// The pool the sweeps run on: a bench's one pool, shared by every query
  /// it runs (benches size it by their --threads flag). Null = a pool of
  /// sim::sweep_threads() (env override or hardware concurrency) per call.
  sim::ThreadPool* pool = nullptr;
  /// Optional trial memo (e.g. an exp::TrialCache scope) consulted before
  /// each (x, seed) trial. The memo must be scoped to exactly this query's
  /// trial space — config, attack, and satiate_fraction fixed — or keyed on
  /// their hash; exp::trial_space_hash computes the right scope.
  sim::TrialMemo* memo = nullptr;
};

/// Isolated-node delivery at a single attacker fraction, averaged over
/// `seeds` runs with seeds derived from config.seed.
[[nodiscard]] double isolated_delivery_at(const CriticalQuery& query,
                                          double attacker_fraction);

/// Smallest attacker fraction (within tolerance) at which isolated delivery
/// drops below config.usability_threshold. Returns `hi` if never.
[[nodiscard]] double critical_attacker_fraction(const CriticalQuery& query);

/// Sweeps attacker fraction over `points` evenly spaced values in [lo, hi]
/// and returns the delivery curve — the exact series a figure plots.
[[nodiscard]] sim::Series delivery_curve(const CriticalQuery& query,
                                         std::size_t points);

}  // namespace lotus::core
