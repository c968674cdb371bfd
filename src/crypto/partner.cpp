#include "crypto/partner.h"

namespace lotus::crypto {

std::uint32_t PartnerSchedule::partner_of(std::uint32_t round,
                                          std::uint32_t initiator,
                                          PartnerPurpose purpose) const noexcept {
  if (node_count_ < 2) return initiator;
  // Hash onto [0, n-1) and skip over the initiator; this keeps the
  // distribution uniform over the other n-1 nodes.
  const std::uint64_t h = Hasher{prefix_}
                              .update(round)
                              .update(initiator)
                              .update(static_cast<std::uint64_t>(purpose))
                              .digest();
  const auto slot = static_cast<std::uint32_t>(h % (node_count_ - 1));
  return slot >= initiator ? slot + 1 : slot;
}

bool PartnerSchedule::verify(std::uint32_t round, std::uint32_t initiator,
                             PartnerPurpose purpose,
                             std::uint32_t claimed) const noexcept {
  return partner_of(round, initiator, purpose) == claimed;
}

}  // namespace lotus::crypto
