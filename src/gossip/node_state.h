// Flat structure-of-arrays per-node state for the gossip engine.
//
// At paper scale (250 nodes) the layout is irrelevant; at 10^4..10^6 nodes
// the round loop streams over every node several times per round, so the
// state is packed as parallel flat arrays (one cache-friendly attribute
// stream per field) instead of a vector of per-node structs, and the
// windowed holdings rings of all nodes live in ONE contiguous word block
// (`words_per_node` words each) handed out as sim::WindowBitsetView slices.
//
// The two accumulator arrays are where collect_metrics' end-of-run bitmap
// scans went: when a release generation expires, the engine folds each
// node's per-generation delivery count into them and recycles the ring
// slots, making the final metrics pass O(nodes) with memory
// O(nodes * active-window) instead of O(nodes * lifetime-updates).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gossip/attack.h"
#include "gossip/metrics.h"
#include "sim/window_bitset.h"

namespace lotus::gossip {

struct NodeState {
  std::uint32_t nodes = 0;
  std::uint64_t window_bits = 1;
  std::size_t words_per_node = 0;

  // --- Per-node scalars (SoA; uint8_t instead of vector<bool> so the hot
  // loops load bytes, not masked bits) ------------------------------------
  std::vector<Role> roles;
  std::vector<std::uint8_t> obedient;
  std::vector<std::uint8_t> evicted;
  /// The live satiated set (mirrors Cast::satiate_set unless the attack
  /// plan rotates it) and which honest nodes were ever in it.
  std::vector<std::uint8_t> satiated;
  std::vector<std::uint8_t> ever_satiated;
  /// Cumulative unsolicited (out-of-band) updates received since the node's
  /// last report; the ideal attacker drip-feeds below any per-message limit,
  /// so obedient nodes account cumulatively.
  std::vector<std::uint64_t> oob_received;

  // --- Windowed holdings: one flat ring block for all nodes ---------------
  std::vector<std::uint64_t> holdings_words;

  // --- Churn (allocated by init_churn only when the plan is enabled, so a
  // static-membership run pays zero bytes and never branches on them) ------
  /// Sentinel for decay_at: no crashed state awaiting decay.
  static constexpr std::uint32_t kNoDecay = 0xffffffffu;
  /// 1 = the seat is a live member this round.
  std::vector<std::uint8_t> alive;
  /// Round the seat's current identity joined (0 for founders). Recycled
  /// seats aggregate successive identities into the same accumulators.
  std::vector<std::uint32_t> joined_round;
  /// Round a crashed seat's gossip state decays, kNoDecay otherwise.
  std::vector<std::uint32_t> decay_at;
  /// Measured generations the seat was an eligible member for (alive at
  /// expiry, joined no later than release) — the churn-aware delivery
  /// denominator.
  std::vector<std::uint32_t> eligible_generations;
  /// Per-interaction giver-side cap for slow seats; 0 = uncapped.
  std::vector<std::uint32_t> capacity_cap;

  // --- Fold-at-expiry accumulators ----------------------------------------
  /// Measured-window updates the node held at their expiry.
  std::vector<std::uint64_t> measured_held;
  /// Measured generations delivered at or below the usability threshold.
  std::vector<std::uint32_t> unusable_generations;

  // --- Execution scratch ---------------------------------------------------
  /// Per initiation slot: the partner the schedule assigns its initiator in
  /// the current phase (the partner pass fills it before any slot runs).
  std::vector<std::uint32_t> partner;

  void init(const Cast& cast, std::uint64_t window) {
    nodes = static_cast<std::uint32_t>(cast.roles.size());
    window_bits = window == 0 ? 1 : window;
    words_per_node = static_cast<std::size_t>((window_bits + 63) / 64);
    roles = cast.roles;
    obedient.assign(nodes, 0);
    evicted.assign(nodes, 0);
    satiated.assign(nodes, 0);
    ever_satiated.assign(nodes, 0);
    oob_received.assign(nodes, 0);
    for (std::uint32_t v = 0; v < nodes; ++v) {
      obedient[v] = cast.obedient[v] ? 1 : 0;
      satiated[v] = cast.satiate_set[v] ? 1 : 0;
      ever_satiated[v] = satiated[v];
    }
    holdings_words.assign(static_cast<std::size_t>(nodes) * words_per_node, 0);
    measured_held.assign(nodes, 0);
    unusable_generations.assign(nodes, 0);
    partner.assign(nodes, 0);
  }

  /// Sizes the churn arrays; every seat starts as a live founder.
  void init_churn() {
    alive.assign(nodes, 1);
    joined_round.assign(nodes, 0);
    decay_at.assign(nodes, kNoDecay);
    eligible_generations.assign(nodes, 0);
    capacity_cap.assign(nodes, 0);
  }

  /// Drops every holdings bit of seat v — a departed identity's gossip
  /// state. The windowed ring holds only live-window bits, so this forgets
  /// exactly the updates still in play.
  void clear_holdings(std::uint32_t v) noexcept {
    std::fill_n(holdings_words.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(v) * words_per_node),
                static_cast<std::ptrdiff_t>(words_per_node), std::uint64_t{0});
  }

  [[nodiscard]] sim::WindowBitsetView holdings(std::uint32_t v) noexcept {
    return {holdings_words.data() + static_cast<std::size_t>(v) * words_per_node,
            window_bits};
  }
  [[nodiscard]] sim::ConstWindowBitsetView holdings(std::uint32_t v) const noexcept {
    return {holdings_words.data() + static_cast<std::size_t>(v) * words_per_node,
            window_bits};
  }

  /// Prefetches the node state a slot reads first: the start of v's
  /// holdings ring and its role, eviction and satiation bytes. Always
  /// inlined: GCC classes a function that only prefetches as side-effect
  /// free and deletes calls to it that it has not inlined yet.
  [[gnu::always_inline]] void prefetch(std::uint32_t v) const noexcept {
    __builtin_prefetch(holdings_words.data() +
                       static_cast<std::size_t>(v) * words_per_node);
    __builtin_prefetch(roles.data() + v);
    __builtin_prefetch(evicted.data() + v);
    __builtin_prefetch(satiated.data() + v);
  }

  /// Bytes held by the per-node state block (the bytes-per-node budget that
  /// gossip_test asserts and perfbench reports).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return roles.capacity() * sizeof(Role) + obedient.capacity() +
           evicted.capacity() + satiated.capacity() + ever_satiated.capacity() +
           alive.capacity() +
           (joined_round.capacity() + decay_at.capacity() +
            eligible_generations.capacity() + capacity_cap.capacity()) *
               sizeof(std::uint32_t) +
           oob_received.capacity() * sizeof(std::uint64_t) +
           holdings_words.capacity() * sizeof(std::uint64_t) +
           measured_held.capacity() * sizeof(std::uint64_t) +
           (unusable_generations.capacity() + partner.capacity()) *
               sizeof(std::uint32_t);
  }
};

}  // namespace lotus::gossip
