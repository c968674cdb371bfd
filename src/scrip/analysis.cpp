#include "scrip/analysis.h"

namespace lotus::scrip {

BudgetSweepPoint run_budget_point(const EconomyConfig& config,
                                  std::uint64_t budget,
                                  std::uint32_t target_count,
                                  bool target_rare) {
  ScripAttack attack;
  attack.kind = ScripAttack::Kind::kMoneyGift;
  attack.budget = budget;
  attack.target_count = target_count;
  attack.target_rare_providers = target_rare;
  Economy economy{config, attack};
  const auto result = economy.run();
  BudgetSweepPoint point;
  point.budget = budget;
  point.satiated_fraction = result.satiated_fraction;
  point.availability = result.availability;
  point.untargeted_availability = result.untargeted_availability;
  point.rare_availability = result.rare_availability;
  return point;
}

AltruistSweepPoint run_altruist_point(EconomyConfig config,
                                      double altruist_fraction) {
  config.altruist_fraction = altruist_fraction;
  Economy economy{config, ScripAttack{}};
  const auto result = economy.run();
  AltruistSweepPoint point;
  point.altruist_fraction = altruist_fraction;
  point.availability = result.availability;
  point.quit_fraction = result.quit_fraction;
  const auto served = result.free_served + result.paid_served;
  point.paid_share = served ? static_cast<double>(result.paid_served) /
                                  static_cast<double>(served)
                            : 0.0;
  return point;
}

}  // namespace lotus::scrip
