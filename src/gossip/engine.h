// The BAR Gossip round engine (paper §2).
//
// Each round:
//   1. the broadcaster seeds each new update to `copies_seeded` random nodes;
//   2. attacker bookkeeping (pool of collectively known updates; the ideal
//      attacker multicasts the pool to the satiated set out of band);
//   3. every eligible node initiates one balanced exchange with its
//      pseudorandomly assigned partner;
//   4. every node missing soon-expiring updates initiates one optimistic
//      push with its (different) assigned partner;
//   5. excessive-service reports are processed and proven offenders evicted.
//
// Protocol behaviours, attacker behaviours, and defences are all driven by
// GossipConfig / AttackPlan; see config.h.
//
// Memory model: per-node state is a flat structure-of-arrays block
// (gossip/node_state.h) and each node's "have" set is a windowed ring of
// update_lifetime * updates_per_round bits addressed by absolute update id
// (sim/window_bitset.h). When a release generation expires, its delivery
// counts are folded into per-node accumulators and the ring slots are
// recycled, so a run costs O(nodes * active-window) memory and the final
// metrics pass is O(nodes) — independent of the horizon.
//
// Execution: one thread, one order. Each interaction phase opens with one
// partner pass: the partner of every initiation slot is a pure keyed hash of
// (round, initiator, purpose), known before any holdings move, so the phase's
// partner array is filled up front from one crypto::PartnerPhase (keyed once
// per phase) and nothing downstream hashes (the RNG is untouched — the
// round's one Fisher-Yates shuffle drew order_ already). The phase's id
// ranges (active, recent, expiring) are likewise turned into word masks over
// the holdings rings once (PhaseMasks, sim::RingMask), and the phase picks
// its slot loop once: one compiled for two-word rings (65-128 updates in
// flight; Table 1's window is 100) or one that reads the word count at run
// time. The slots then run in initiation order through one executor
// (exec_slot), which adds traffic to stats_ and files eviction reports into
// pending_reports_ as it goes. The random order scatters the node state the
// slots touch, so the loop prefetches the holdings and flag bytes of both
// endpoints of the slot a fixed distance ahead. Parallelism comes only from
// running independent trials side by side (sim::sweep), never from inside a
// trial.
//
// The independent oracle is tests/ref/: a plain full-horizon simulator with
// no windowing, which the property tests hold every GossipResult field of
// this engine to.
#pragma once

#include <vector>

#include "crypto/partner.h"
#include "crypto/sign.h"
#include "gossip/attack.h"
#include "gossip/config.h"
#include "gossip/metrics.h"
#include "gossip/node_state.h"
#include "gossip/update_store.h"
#include "sim/rng.h"
#include "sim/window_bitset.h"

namespace lotus::gossip {

/// The holdings representation: the windowed ring described above, the only
/// model. The enumerator remains so call sites that name it keep compiling;
/// the full-horizon model that keeps expired holdings is tests/ref/.
enum class StateModel : std::uint8_t {
  kWindowed,
};

class GossipEngine {
 public:
  /// `model` and `threads` are accepted and ignored: the windowed ring is
  /// the only state model and the round loop runs on the calling thread.
  /// perfbench still constructs engines with both, and it changes only
  /// together with its benchmark definition.
  /// Throws std::invalid_argument for a configuration that cannot run,
  /// including one whose measured window (rounds > warmup_rounds +
  /// update_lifetime) is empty, a recent_window longer than the
  /// update_lifetime, an attacker or satiate fraction that is NaN or outside
  /// [0, 1], and a churn rate or slow fraction that is NaN or outside [0, 1].
  GossipEngine(GossipConfig config, AttackPlan plan,
               StateModel model = StateModel::kWindowed,
               std::size_t threads = 1);

  /// Runs the full horizon and returns the delivery metrics.
  [[nodiscard]] GossipResult run();

  /// Read-only views for tests.
  [[nodiscard]] const Cast& cast() const noexcept { return cast_; }
  [[nodiscard]] const GossipConfig& config() const noexcept { return config_; }
  /// The node's holdings ring. Only the currently active id window is
  /// meaningful.
  [[nodiscard]] sim::ConstWindowBitsetView holdings_of(std::uint32_t v) const {
    return state_.holdings(v);
  }
  [[nodiscard]] bool evicted(std::uint32_t v) const {
    return state_.evicted[v] != 0;
  }
  /// Bytes of live engine state (node block + pools + scratch) — the
  /// bytes-per-node budget the scale benches track.
  [[nodiscard]] std::size_t state_bytes() const noexcept;

 private:
  // --- Round phases ------------------------------------------------------
  /// Applies the churn plan at round start (decay sweep, crashes, leaves,
  /// joins/recoveries). Before every protocol phase, so alive[] is
  /// round-constant while the interaction phases run. No-op when the plan
  /// is disabled; draws come from a dedicated stream either way.
  void apply_churn(Round round);
  void rotate_satiate_set(Round round);
  /// Folds the generation expiring at `round` into the per-node accumulators
  /// and recycles its ring slots.
  void fold_expired_generation(Round round);
  void seed_updates(Round round);
  void ideal_multicast(Round round);
  /// Runs one interaction phase (balanced exchanges, or optimistic pushes
  /// when `push_phase`) over every initiation slot of order_.
  void run_interactions(Round round, bool push_phase);
  void process_reports(Round round);

  // --- Interactions --------------------------------------------------------
  // Everything from run_slots down is compiled per ring width: N words per
  // holdings ring, or N = 0 for the width read at run time.

  /// The round's id ranges as word masks over the holdings rings, built once
  /// per phase (every ring and pool shares one geometry).
  template <std::size_t N>
  struct PhaseMasks {
    sim::RingMask<N> active;    // what an exchange or a dump may move
    sim::RingMask<N> recent;    // what a push may offer
    sim::RingMask<N> expiring;  // what a push may request
  };
  /// Maps an id range onto the shared ring geometry.
  [[nodiscard]] sim::RingRange ring(IdRange r) const noexcept {
    return attacker_pool_.view().ring(r.lo, r.hi);
  }
  /// Runs the slots of one phase whose partner array is filled.
  template <std::size_t N>
  void run_slots(Round round, bool push_phase);
  /// State-transfer cores of the slot executor. They move window bits and
  /// nothing else; exec_slot accounts stats and reports.
  struct TransferOutcome {
    std::size_t forward = 0;  // updates moved initiator -> responder
    std::size_t back = 0;     // updates moved responder -> initiator
  };
  template <std::size_t N>
  TransferOutcome do_balanced_exchange(std::uint32_t i, std::uint32_t j,
                                       const PhaseMasks<N>& masks);
  template <std::size_t N>
  TransferOutcome do_optimistic_push(std::uint32_t i, std::uint32_t j,
                                     const PhaseMasks<N>& masks);
  template <std::size_t N>
  std::size_t do_attacker_dump(std::uint32_t a, std::uint32_t partner,
                               const PhaseMasks<N>& masks, std::size_t limit);

  // --- Slot executor --------------------------------------------------------
  /// Executes the interaction of initiation slot p (if any), adding its
  /// traffic to stats_ and its reports to pending_reports_; the slot's
  /// partner is state_.partner[p].
  template <std::size_t N>
  void exec_slot(Round round, std::uint32_t p, const PhaseMasks<N>& masks,
                 bool push_phase);
  /// True when i is missing soon-expiring updates (the push trigger).
  template <std::size_t N>
  [[nodiscard]] bool missing_expiring(std::uint32_t i,
                                      const PhaseMasks<N>& masks);
  /// Files an excess-service report for `given` updates when reporting is
  /// on, `given` is over the service limit and `receiver` is an obedient
  /// honest node.
  void file_report(Round round, std::uint32_t giver, std::uint32_t receiver,
                   std::size_t given);

  [[nodiscard]] bool participates(std::uint32_t v) const noexcept;
  /// Giver-side per-interaction ceiling for heterogeneous capacities
  /// (ChurnPlan::slow_cap seats); SIZE_MAX when uncapped.
  [[nodiscard]] std::size_t giver_cap(std::uint32_t v) const noexcept;
  [[nodiscard]] bool is_trade_attacker(std::uint32_t v) const noexcept;
  [[nodiscard]] std::size_t apply_service_cap(std::size_t wanted) const noexcept;

  [[nodiscard]] GossipResult collect_metrics() const;

  GossipConfig config_;
  AttackPlan plan_;
  UpdateClock clock_;
  Cast cast_;
  crypto::PartnerSchedule schedule_;
  crypto::KeyRegistry registry_;
  sim::Rng rng_;

  /// Churn: resolved from config_.churn.enabled() once; every churn branch
  /// is guarded on this flag so a static run never touches the (empty)
  /// churn arrays. The membership draws come from their own derived stream —
  /// rng_'s trajectory is identical with churn on or off.
  bool churn_ = false;
  sim::Rng churn_rng_;
  /// Per-round Bernoulli draw batches (crash, leave, join), one byte per
  /// seat, drawn for every seat every round regardless of state.
  std::vector<std::uint8_t> churn_crash_;
  std::vector<std::uint8_t> churn_leave_;
  std::vector<std::uint8_t> churn_join_;

  /// All per-node state — scalars, windowed holdings rings, and the
  /// fold-at-expiry accumulators — in one flat SoA block.
  NodeState state_;
  sim::WindowBitset attacker_pool_;  // union of attacker knowledge (windowed)
  /// The pool as of the end of the previous round. The ideal attack assumes
  /// instant coordination ("as soon as they receive them", §2) and uses
  /// attacker_pool_; the trade attack's colluding nodes synchronise with one
  /// round of lag and dump from this snapshot instead.
  sim::WindowBitset attacker_pool_lagged_;
  /// Measured-window updates that entered the attacker pool, folded at
  /// expiry (windowed model).
  std::uint64_t attacker_pool_held_ = 0;
  /// The most updates of one generation a node can hold at its expiry and
  /// still count it unusable (held / updates_per_round at or below the
  /// usability threshold).
  std::size_t unusable_held_max_ = 0;
  std::vector<std::uint32_t> order_;  // per-round shuffled initiation order
  std::vector<std::uint32_t> rotation_order_;  // honest nodes, shuffled
  sim::SampleScratch seed_scratch_;  // seed_updates' sampler buffers

  // Pending eviction reports (proofs verified at end of round).
  std::vector<crypto::ExchangeRecord> pending_reports_;

  GossipResult stats_;  // traffic counters accumulated during run()
};

/// Convenience wrapper used by benches and sweeps: run one configuration
/// with one attack and return the metrics.
[[nodiscard]] GossipResult run_gossip(const GossipConfig& config,
                                      const AttackPlan& plan);

}  // namespace lotus::gossip
