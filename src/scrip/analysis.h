// Analytic helpers for the scrip experiments.
#pragma once

#include <cstdint>

#include "scrip/economy.h"
#include "sim/stats.h"

namespace lotus::scrip {

/// Sweeps the attacker budget and reports the mean satiated fraction and the
/// untargeted agents' availability — the §4 "fixed money supply" defence:
/// satiating many agents needs more scrip than exists.
struct BudgetSweepPoint {
  std::uint64_t budget = 0;
  double satiated_fraction = 0.0;
  double availability = 0.0;  // over every agent's requests
  double untargeted_availability = 0.0;
  double rare_availability = 0.0;
};

[[nodiscard]] BudgetSweepPoint run_budget_point(const EconomyConfig& config,
                                                std::uint64_t budget,
                                                std::uint32_t target_count,
                                                bool target_rare);

/// Sweeps the altruist fraction and reports availability and the fraction of
/// rational agents that quit — the §4 altruist-crash claim.
struct AltruistSweepPoint {
  double altruist_fraction = 0.0;
  double availability = 0.0;
  double quit_fraction = 0.0;
  double paid_share = 0.0;  // fraction of served requests that were paid
};

[[nodiscard]] AltruistSweepPoint run_altruist_point(EconomyConfig config,
                                                    double altruist_fraction);

}  // namespace lotus::scrip
