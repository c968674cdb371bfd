#include "gossip/config.h"

#include <stdexcept>
#include <string>

namespace lotus::gossip {

const char* attack_name(AttackKind kind) noexcept {
  switch (kind) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kCrash:
      return "crash";
    case AttackKind::kIdealLotus:
      return "ideal-lotus";
    case AttackKind::kTradeLotus:
      return "trade-lotus";
  }
  return "unknown";
}

void require_unit_interval(double value, const char* field) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string{field} +
                                " must be in [0, 1] (got " +
                                std::to_string(value) + ")");
  }
}

}  // namespace lotus::gossip
