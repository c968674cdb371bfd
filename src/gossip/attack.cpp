#include "gossip/attack.h"

#include <cstdint>
#include <span>
#include <vector>

namespace lotus::gossip {

Cast make_cast(const GossipConfig& config, const AttackPlan& plan,
               sim::Rng& rng) {
  // Checked before the rounding to a node count, where NaN would be
  // undefined behaviour.
  require_unit_interval(plan.attacker_fraction, "attacker_fraction");
  require_unit_interval(plan.satiate_fraction, "satiate_fraction");
  const std::uint32_t n = config.nodes;
  Cast cast;
  cast.roles.assign(n, Role::kHonest);
  cast.satiate_set.assign(n, false);
  cast.obedient.assign(n, false);

  cast.attacker_count = static_cast<std::uint32_t>(
      plan.attacker_fraction * static_cast<double>(n) + 0.5);

  const Role attacker_role =
      plan.kind == AttackKind::kCrash ? Role::kCrash : Role::kAttacker;
  std::vector<std::uint32_t> attacker_ids;
  if (plan.kind != AttackKind::kNone) {
    attacker_ids = rng.sample_without_replacement(n, cast.attacker_count);
    for (const auto v : attacker_ids) cast.roles[v] = attacker_role;
  } else {
    cast.attacker_count = 0;
  }

  // Lotus attacks: satiated set = attacker nodes + random honest fill.
  if (plan.kind == AttackKind::kIdealLotus ||
      plan.kind == AttackKind::kTradeLotus) {
    const auto target = static_cast<std::uint32_t>(
        plan.satiate_fraction * static_cast<double>(n) + 0.5);
    std::uint32_t members = 0;
    for (const auto v : attacker_ids) {
      cast.satiate_set[v] = true;
      ++members;
    }
    if (members < target) {
      std::vector<std::uint32_t> honest;
      honest.reserve(n - members);
      for (std::uint32_t v = 0; v < n; ++v) {
        if (cast.roles[v] == Role::kHonest) honest.push_back(v);
      }
      rng.shuffle(std::span<std::uint32_t>{honest});
      for (std::uint32_t i = 0; i < honest.size() && members < target; ++i) {
        cast.satiate_set[honest[i]] = true;
        ++members;
      }
    }
  }

  // Obedience draws, batched: only honest nodes consume the stream (in node
  // order), so one fill_bernoulli over the honest count is stream-identical
  // to the per-node next_bernoulli calls it replaces.
  std::vector<std::uint32_t> honest_nodes;
  honest_nodes.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (cast.roles[v] == Role::kHonest) honest_nodes.push_back(v);
  }
  std::vector<std::uint8_t> draws(honest_nodes.size());
  rng.fill_bernoulli(config.obedient_fraction,
                     std::span<std::uint8_t>{draws});
  for (std::size_t i = 0; i < honest_nodes.size(); ++i) {
    cast.obedient[honest_nodes[i]] = draws[i] != 0;
  }
  return cast;
}

}  // namespace lotus::gossip
