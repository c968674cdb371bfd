// Configuration for the BAR Gossip reproduction (paper §2, Table 1).
#pragma once

#include <cstdint>

namespace lotus::gossip {

/// Dynamic-membership schedule: deterministic, seeded churn applied at the
/// start of every round, before any protocol phase. Only honest seats churn
/// (the attack plan's strength stays fixed, so churn curves are comparable
/// to the static ones). All rates are per-seat-per-round Bernoulli
/// probabilities drawn from a dedicated RNG stream — one fixed-size batch of
/// draws per round regardless of who is alive, so trajectories are identical
/// across state models and engine-thread counts, and a disabled plan leaves
/// the main RNG stream untouched (the static goldens stay byte-identical).
struct ChurnPlan {
  /// Per dead honest seat: probability the seat is recycled this round. A
  /// seat crashed within its decay window recovers with its state intact;
  /// otherwise a fresh identity joins with empty state and a clean slate
  /// with the eviction layer (whitewashing is a modelled cost of churn).
  double join_rate = 0.0;
  /// Per live honest node: probability of a graceful leave (gossip state is
  /// dropped immediately — contacts forget the node at departure).
  double leave_rate = 0.0;
  /// Per live honest node: probability of a crash. The crashed node's state
  /// lingers for `decay_rounds` rounds (it may recover within the window),
  /// then decays like a leave.
  double crash_rate = 0.0;
  /// Rounds a crashed node's gossip state survives before decay; 0 makes a
  /// crash indistinguishable from a leave.
  std::uint32_t decay_rounds = 0;
  /// Heterogeneous capacities: this fraction of honest seats can hand over
  /// at most `slow_cap` updates per interaction (giver-side; balanced
  /// exchange gives and push transfers/returns). Assigned per seat at cast
  /// time from a derived stream; attackers are never slow.
  double slow_fraction = 0.0;
  std::uint32_t slow_cap = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return join_rate > 0.0 || leave_rate > 0.0 || crash_rate > 0.0 ||
           (slow_fraction > 0.0 && slow_cap > 0);
  }
};

/// Table 1 of the paper, plus the protocol windows and defence knobs the §2
/// and §4 experiments vary. Defaults reproduce Table 1 exactly.
struct GossipConfig {
  std::uint32_t nodes = 250;             // Number of Nodes
  std::uint32_t updates_per_round = 10;  // Updates per Round
  std::uint32_t update_lifetime = 10;    // Update Lifetime (rds)
  std::uint32_t copies_seeded = 12;      // Copies Seeded
  std::uint32_t push_size = 2;           // Opt. Push Size (upd)

  /// Updates released within this many rounds count as "recently released"
  /// and may be offered in an optimistic push.
  std::uint32_t recent_window = 2;
  /// Updates expiring within this many rounds count as "old" and may be
  /// requested in an optimistic push. The default (lifetime - 1) lets a push
  /// request any update that has been out for at least one full round;
  /// transfers are oldest-first, so updates closest to expiry still take
  /// priority. Calibrated so the unattacked system delivers ~99% as in [16].
  std::uint32_t old_window = 9;

  /// Figure 3 variant: willing to give one more update than received in a
  /// balanced exchange (when receiving at least one). Applied by obedient
  /// nodes only.
  bool unbalanced_exchange = false;

  /// Fraction of honest nodes that are obedient (follow the protocol even
  /// when suboptimal): they perform unbalanced exchanges when enabled and
  /// file excessive-service reports when reporting is enabled. The rest are
  /// rational and do neither.
  double obedient_fraction = 1.0;

  /// §4 defence: cap on updates one peer may hand another in a single
  /// interaction ("limiting the amount of service"). 0 = uncapped.
  std::uint32_t service_cap = 0;

  /// Trade-lotus channel model. The paper says the attacker gives updates
  /// "only during interactions dictated by the protocol" but does not say
  /// whether he can stuff extra updates into exchanges he merely *responds*
  /// to. With false (default) he dumps only in interactions he initiates —
  /// one balanced exchange and one optimistic push per attacker node per
  /// round. This is the default the trade-lotus studies use: the paper
  /// reports a crossover near 0.22, and this model reaches 0.170 at full
  /// resolution. With true he also dumps when chosen as a partner, roughly
  /// tripling the contact rate and strengthening the attack accordingly.
  bool trade_dump_on_response = false;

  /// §4 defence: obedient nodes report interactions that delivered more
  /// than `service_limit` updates; a verified proof evicts the giver.
  bool reporting_enabled = false;
  std::uint32_t service_limit = 25;

  /// Simulation horizon and measurement window. Updates released in rounds
  /// [warmup_rounds, rounds - update_lifetime) are measured.
  std::uint32_t rounds = 120;
  std::uint32_t warmup_rounds = 10;

  /// Usability threshold from [16]: a node needs > 93% of updates.
  double usability_threshold = 0.93;

  std::uint64_t seed = 1;

  /// Dynamic membership; disabled by default (static cast, exactly the
  /// paper's model and the pre-churn RNG trajectories).
  ChurnPlan churn;

  [[nodiscard]] std::uint64_t total_updates() const noexcept {
    return static_cast<std::uint64_t>(rounds) * updates_per_round;
  }

  /// Ids that can be simultaneously live: the engine's per-node holdings
  /// window. Capped by the horizon — when updates outlive the run, no slot
  /// is ever recycled and the window is just every id released.
  [[nodiscard]] std::uint64_t window_updates() const noexcept {
    const std::uint64_t live = update_lifetime < rounds ? update_lifetime : rounds;
    return live * updates_per_round;
  }
};

/// The three attacks of Figure 1.
enum class AttackKind : std::uint8_t {
  kNone,        // baseline, no adversary
  kCrash,       // attacker nodes do nothing at all
  kIdealLotus,  // instant out-of-band multicast of broadcaster seeds
  kTradeLotus,  // full dumps, but only inside protocol interactions
};

[[nodiscard]] const char* attack_name(AttackKind kind) noexcept;

struct AttackPlan {
  AttackKind kind = AttackKind::kNone;
  /// Fraction of all nodes the attacker controls.
  double attacker_fraction = 0.0;
  /// Fraction of the system the attacker tries to satiate, *including* the
  /// nodes he controls (the paper uses 0.7).
  double satiate_fraction = 0.7;
  /// 0 = the satiated set is fixed for the whole run (the paper's figures).
  /// > 0 = the honest part of the satiated set rotates through the
  /// population every `rotation_period` rounds — "by changing who is
  /// satiated over time, the attacker could even make the service
  /// intermittently unusable for all nodes" (§1).
  std::uint32_t rotation_period = 0;
};

}  // namespace lotus::gossip
