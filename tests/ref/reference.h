// A plain BAR Gossip simulator (paper §2), written to be read rather than to
// be fast: the independent oracle the engine's property tests compare
// against, and the full-horizon model behind tools/debug_baseline.
//
// Each node's holdings are one std::vector<bool> over every update id of the
// run. Nothing is windowed, folded into rings, staged, scheduled in waves or
// run on a pool: every phase is a plain loop over nodes in the protocol's
// order. Only inputs and infrastructure are shared with gossip::GossipEngine:
// the cast (make_cast), the seeded sim::Rng streams and their draw order,
// the keyed partner schedule, the signed-report path (KeyRegistry,
// make_record, check_excessive_service) and the UpdateClock id ranges. The
// protocol rules themselves — who interacts with whom, what moves, who
// reports and is evicted, and how delivery is measured — are written out
// again here from §2 and the GossipConfig / AttackPlan contracts, so a bug in
// the engine's shared transfer cores shows up as a disagreement.
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/config.h"
#include "gossip/metrics.h"

namespace lotus::ref {

struct ReferenceRun {
  gossip::GossipResult result;
  /// holdings[v][u]: node v held update u when the run ended. Expired
  /// updates are kept; a departed identity's updates are dropped.
  std::vector<std::vector<bool>> holdings;
};

/// Runs the whole horizon of one configuration under one attack. Throws
/// std::invalid_argument for every configuration the engine rejects,
/// including an empty measured window.
[[nodiscard]] ReferenceRun simulate(const gossip::GossipConfig& config,
                                    const gossip::AttackPlan& plan);

}  // namespace lotus::ref
