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
// Execution: every engine owns a sim::ThreadPool of its width (a width-1 pool
// spawns no thread and runs everything inline). The per-node passes
// (generation fold, ideal multicast) run over fixed-size chunks, and side
// effects are staged per chunk and replayed in node order. Each interaction
// phase opens with one partner pass over those chunks at every width: the
// partner of every initiation slot is a pure keyed hash of (round,
// initiator, purpose), known before any holdings move, so the phase's
// partner array is filled up front from one crypto::PartnerPhase (keyed once
// per phase) and nothing downstream hashes (the RNG is untouched — the
// round's one Fisher-Yates shuffle drew order_ already). The phase's id
// ranges (active, recent, expiring) are likewise mapped onto the ring once
// (PhaseRanges). The slots then run through one executor (exec_slot) that
// counts traffic into a per-worker accumulator and stages eviction reports
// with their initiation-order rank. At width 1 the slots run in initiation
// order, which is already a valid schedule. At width > 1 the partner pass
// also flags the interacting slots, which are greedily wavefront-scheduled
// (sim::WaveSchedule: an interaction runs only after every earlier-order
// interaction sharing a node), and the waves executed with a barrier between
// them. Either slot loop prefetches the node state (holdings and flag bytes
// of both endpoints) of the slot a fixed distance ahead; the random order
// scatters it, although measured per slot the loop is limited by
// computation, not by those misses. Integer counter sums commute, and the
// staged reports are replayed in rank order, so pending_reports_ — and
// therefore eviction timing — is the same at every width.
//
// The independent oracle is tests/ref/: a plain full-horizon simulator with
// no windowing, staging or pool, which the property tests hold every
// GossipResult field of this engine to.
#pragma once

#include <atomic>
#include <vector>

#include "crypto/partner.h"
#include "crypto/sign.h"
#include "gossip/attack.h"
#include "gossip/config.h"
#include "gossip/metrics.h"
#include "gossip/node_state.h"
#include "gossip/update_store.h"
#include "sim/parallel.h"
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
  /// `threads` is the round-loop worker count: 1 runs every phase inline on
  /// the calling thread, >1 runs the wavefront-parallel schedule (results are
  /// bit-identical either way), and 0 defers to sim::engine_threads() (env
  /// LOTUS_ENGINE_THREADS, default 1). Deliberately excluded from
  /// exp::config_hash — the same trial hashes the same at any width.
  /// Throws std::invalid_argument for a configuration that cannot run,
  /// including one whose measured window (rounds > warmup_rounds +
  /// update_lifetime) is empty, a recent_window longer than the
  /// update_lifetime, a non-finite attacker or satiate fraction, and a churn
  /// rate or slow fraction that is NaN or outside [0, 1].
  GossipEngine(GossipConfig config, AttackPlan plan,
               StateModel model = StateModel::kWindowed,
               std::size_t threads = 0);

  /// Runs the full horizon and returns the delivery metrics.
  [[nodiscard]] GossipResult run();

  /// Round-loop worker count this engine resolved to (>= 1).
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

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
  /// joins/recoveries). Serial and before every protocol phase, so alive[]
  /// is round-constant while the wavefront phases run. No-op when the plan
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
  /// The round's id ranges mapped onto the holdings rings, once per phase
  /// (every ring and pool shares one geometry).
  struct PhaseRanges {
    sim::RingRange active;    // what an exchange or a dump may move
    sim::RingRange recent;    // what a push may offer
    sim::RingRange expiring;  // what a push may request
  };
  /// Maps an id range onto the shared ring geometry.
  [[nodiscard]] sim::RingRange ring(IdRange r) const noexcept {
    return attacker_pool_.view().ring(r.lo, r.hi);
  }
  /// State-transfer cores of the slot executor. They move window bits and
  /// nothing else; exec_slot accounts stats and reports.
  struct TransferOutcome {
    std::size_t forward = 0;  // updates moved initiator -> responder
    std::size_t back = 0;     // updates moved responder -> initiator
  };
  TransferOutcome do_balanced_exchange(std::uint32_t i, std::uint32_t j,
                                       const PhaseRanges& ranges);
  TransferOutcome do_optimistic_push(std::uint32_t i, std::uint32_t j,
                                     const PhaseRanges& ranges);
  std::size_t do_attacker_dump(std::uint32_t a, std::uint32_t partner,
                               const PhaseRanges& ranges, std::size_t limit);

  // --- Slot executor --------------------------------------------------------
  /// What one initiation slot of a phase resolves to, derived from
  /// round-constant state only (roles, eviction, config — never holdings),
  /// so the wave planner and the executor reach the same decision.
  enum class SlotKind : std::uint8_t {
    kNone,
    kExchange,           // honest i <-> honest j balanced exchange
    kAttackerTrade,      // trade attacker i dumps into responder j (uncapped)
    kAttackerTradeResp,  // trade attacker j dumps into initiator i (uncapped)
    kPush,               // honest i pushes to honest j (runtime missing check)
    kAttackerPush,       // trade attacker i dumps into j (push_size ceiling)
    kAttackerPushResp,   // trade attacker j dumps into i (push_size ceiling)
  };
  SlotKind classify_slot(std::uint32_t i, std::uint32_t j,
                         bool push_phase) const;
  /// Executes the interaction of initiation slot p (if any) into fx; the
  /// slot's partner is state_.partner[p].
  void exec_slot(std::uint32_t p, const PhaseRanges& ranges, bool push_phase,
                 WorkerScratch& fx);
  /// True when i is missing soon-expiring updates (the push trigger).
  [[nodiscard]] bool missing_expiring(std::uint32_t i,
                                      const PhaseRanges& ranges) const;
  /// True when `receiver` files an excess-service report for this many
  /// updates (reporting on, over the limit, an obedient honest receiver).
  [[nodiscard]] bool would_report(std::uint32_t receiver,
                                  std::size_t updates_given) const noexcept;
  /// Merges per-worker staged reports in initiation-order rank into
  /// pending_reports_ and folds the worker counters into stats_.
  void replay_worker_effects(Round round);

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
  std::vector<std::uint32_t> order_;  // per-round shuffled initiation order
  std::vector<std::uint32_t> rotation_order_;  // honest nodes, shuffled

  // Pending eviction reports (proofs verified at end of round).
  std::vector<crypto::ExchangeRecord> pending_reports_;

  GossipResult stats_;  // traffic counters accumulated during run()

  // --- Execution ------------------------------------------------------------
  sim::ThreadPool pool_;  // the engine's width; width 1 runs inline
  /// Wave barrier and schedule; used only at width > 1.
  sim::Barrier barrier_;
  sim::WaveSchedule waves_;
  /// Shared claim cursor over state_.wave_order during wave execution.
  /// Monotone across a phase (wave ranges are contiguous), advanced by CAS
  /// so it never overshoots a wave boundary.
  std::atomic<std::uint32_t> exec_cursor_{0};
};

/// Convenience wrapper used by benches and sweeps: run one configuration
/// with one attack and return the metrics. `threads` as in GossipEngine
/// (0 = env default); results are thread-count invariant.
[[nodiscard]] GossipResult run_gossip(const GossipConfig& config,
                                      const AttackPlan& plan,
                                      std::size_t threads = 0);

}  // namespace lotus::gossip
