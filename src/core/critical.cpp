#include "core/critical.h"

#include <optional>

#include "gossip/engine.h"
#include "sim/parallel.h"
#include "sim/sweep.h"

namespace lotus::core {

namespace {
double one_run(const CriticalQuery& query, double attacker_fraction,
               std::uint64_t seed) {
  gossip::GossipConfig config = query.config;
  config.seed = seed;
  gossip::AttackPlan plan;
  plan.kind = query.attack;
  plan.attacker_fraction = attacker_fraction;
  plan.satiate_fraction = query.satiate_fraction;
  return gossip::run_gossip(config, plan).isolated_delivery;
}

/// The query's pool, or a default-width one built in `own`.
sim::ThreadPool& pool_for(const CriticalQuery& query,
                          std::optional<sim::ThreadPool>& own) {
  return query.pool != nullptr ? *query.pool : own.emplace();
}
}  // namespace

double isolated_delivery_at(const CriticalQuery& query,
                            double attacker_fraction) {
  sim::RunningStats stats;
  const auto trial = [&](double x, std::uint64_t seed) {
    return one_run(query, x, seed);
  };
  for (std::size_t s = 0; s < query.seeds; ++s) {
    stats.add(sim::run_memoized(query.memo, attacker_fraction,
                                sim::derive_seed(query.config.seed, s),
                                trial));
  }
  return stats.mean();
}

double critical_attacker_fraction(const CriticalQuery& query) {
  std::optional<sim::ThreadPool> own;
  return sim::critical_point(
      query.lo, query.hi, query.tolerance, query.config.usability_threshold,
      query.seeds, query.config.seed,
      [&](double x, std::uint64_t seed) { return one_run(query, x, seed); },
      pool_for(query, own), query.memo);
}

sim::Series delivery_curve(const CriticalQuery& query, std::size_t points) {
  std::optional<sim::ThreadPool> own;
  return sim::sweep_mean(
      std::string{gossip::attack_name(query.attack)},
      sim::linspace(query.lo, query.hi, points), query.seeds,
      query.config.seed,
      [&](double x, std::uint64_t seed) { return one_run(query, x, seed); },
      pool_for(query, own), query.memo);
}

}  // namespace lotus::core
