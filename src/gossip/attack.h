// Role assignment and satiated-set selection for the §2 attacks.
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/config.h"
#include "gossip/metrics.h"
#include "sim/rng.h"

namespace lotus::gossip {

/// The cast of one simulation: which nodes the attacker controls, which
/// honest nodes he tries to satiate, and which honest nodes are obedient.
struct Cast {
  std::vector<Role> roles;        // per node
  std::vector<bool> satiate_set;  // lotus target set (includes attacker nodes)
  std::vector<bool> obedient;     // honest && obedient
  std::uint32_t attacker_count = 0;
};

/// Builds the cast for a plan. Attacker nodes are a uniform random subset of
/// size round(attacker_fraction * n). For lotus attacks the satiated set is
/// the attacker nodes plus uniformly random honest nodes up to
/// round(satiate_fraction * n) ("including whatever percentage he controls").
/// A fraction that is NaN or outside [0, 1] throws std::invalid_argument
/// naming the field.
[[nodiscard]] Cast make_cast(const GossipConfig& config, const AttackPlan& plan,
                             sim::Rng& rng);

}  // namespace lotus::gossip
