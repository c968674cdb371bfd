#include "gossip/engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace lotus::gossip {

namespace {
constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();
/// How many slots ahead the slot loop prefetches node state. The slots visit
/// nodes in random order, so each one's holdings words and flag bytes are
/// cache misses; eight slots of lead covers the miss latency at scale.
constexpr std::size_t kPrefetchAhead = 8;

/// Rejects a configuration the engine cannot run, before any state exists.
GossipConfig validated(const GossipConfig& config) {
  if (config.nodes < 2) throw std::invalid_argument("need >= 2 nodes");
  if (config.update_lifetime == 0) {
    throw std::invalid_argument("update lifetime must be >= 1");
  }
  if (config.updates_per_round == 0) {
    throw std::invalid_argument("updates per round must be >= 1");
  }
  if (config.copies_seeded > config.nodes) {
    throw std::invalid_argument("cannot seed more copies than nodes");
  }
  // UpdateClock::recent() is not clamped to the active window, so a longer
  // push range would reach past the holdings ring.
  if (config.recent_window > config.update_lifetime) {
    throw std::invalid_argument(
        "recent_window (" + std::to_string(config.recent_window) +
        ") must not exceed update_lifetime (" +
        std::to_string(config.update_lifetime) + ")");
  }
  if (UpdateClock{config}.measured(config.warmup_rounds).empty()) {
    throw std::invalid_argument(
        "empty measured window: rounds (" + std::to_string(config.rounds) +
        ") must exceed warmup_rounds (" +
        std::to_string(config.warmup_rounds) + ") + update_lifetime (" +
        std::to_string(config.update_lifetime) + ")");
  }
  // make_cast rejects attack fractions that are NaN or outside [0, 1].
  require_unit_interval(config.obedient_fraction, "obedient_fraction");
  require_unit_interval(config.usability_threshold, "usability_threshold");
  require_unit_interval(config.churn.join_rate, "churn.join_rate");
  require_unit_interval(config.churn.leave_rate, "churn.leave_rate");
  require_unit_interval(config.churn.crash_rate, "churn.crash_rate");
  require_unit_interval(config.churn.slow_fraction, "churn.slow_fraction");
  return config;
}
}  // namespace

GossipEngine::GossipEngine(GossipConfig config, AttackPlan plan,
                           StateModel /*model*/, std::size_t /*threads*/)
    : config_(validated(config)),
      plan_(plan),
      clock_(config_),
      cast_(),
      schedule_(sim::derive_seed(config_.seed, 0x70617274ULL), config_.nodes),
      registry_(config_.nodes, sim::derive_seed(config_.seed, 0x6b657973ULL)),
      rng_(config_.seed) {
  sim::Rng cast_rng{sim::derive_seed(config_.seed, 0x63617374ULL)};
  cast_ = make_cast(config_, plan_, cast_rng);
  const std::uint64_t window = config_.window_updates();
  state_.init(cast_, window);
  attacker_pool_ = sim::WindowBitset{window};
  attacker_pool_lagged_ = sim::WindowBitset{window};
  order_.resize(config_.nodes);
  for (std::uint32_t v = 0; v < config_.nodes; ++v) order_[v] = v;
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    if (state_.roles[v] == Role::kHonest) rotation_order_.push_back(v);
  }
  sim::Rng rotation_rng{sim::derive_seed(config_.seed, 0x726f74ULL)};
  rotation_rng.shuffle(std::span<std::uint32_t>{rotation_order_});

  churn_ = config_.churn.enabled();
  if (churn_) {
    state_.init_churn();
    churn_rng_ = sim::Rng{sim::derive_seed(config_.seed, 0x6368726eULL)};
    churn_crash_.resize(config_.nodes);
    churn_leave_.resize(config_.nodes);
    churn_join_.resize(config_.nodes);
    if (config_.churn.slow_fraction > 0.0 && config_.churn.slow_cap > 0) {
      // Slow seats are drawn once at cast time from their own stream; the
      // cap sticks to the seat across identity recycling (it models the
      // seat's link, not the member).
      sim::Rng capacity_rng{sim::derive_seed(config_.seed, 0x63617061ULL)};
      std::vector<std::uint8_t> slow(config_.nodes);
      capacity_rng.fill_bernoulli(config_.churn.slow_fraction,
                                  std::span<std::uint8_t>{slow});
      for (std::uint32_t v = 0; v < config_.nodes; ++v) {
        if (state_.roles[v] == Role::kHonest && slow[v] != 0) {
          state_.capacity_cap[v] = config_.churn.slow_cap;
        }
      }
    }
  }
}

std::size_t GossipEngine::state_bytes() const noexcept {
  return state_.byte_size() + attacker_pool_.byte_size() +
         attacker_pool_lagged_.byte_size() +
         order_.capacity() * sizeof(std::uint32_t) +
         rotation_order_.capacity() * sizeof(std::uint32_t) +
         churn_crash_.capacity() + churn_leave_.capacity() +
         churn_join_.capacity() +
         pending_reports_.capacity() * sizeof(crypto::ExchangeRecord) +
         cast_.roles.capacity() * sizeof(Role) +
         (cast_.satiate_set.capacity() + cast_.obedient.capacity()) / 8 +
         registry_.size() * sizeof(std::uint64_t);
}

void GossipEngine::apply_churn(Round round) {
  if (!churn_) return;
  // One fixed-size Bernoulli batch per transition per round, drawn for every
  // seat whether it can take that transition or not: the stream position is
  // a function of (seed, round) alone, never of membership history.
  churn_rng_.fill_bernoulli(config_.churn.crash_rate,
                            std::span<std::uint8_t>{churn_crash_});
  churn_rng_.fill_bernoulli(config_.churn.leave_rate,
                            std::span<std::uint8_t>{churn_leave_});
  churn_rng_.fill_bernoulli(config_.churn.join_rate,
                            std::span<std::uint8_t>{churn_join_});
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    // Decay sweep first: a crashed seat whose grace window ends this round
    // loses its gossip state whether or not the seat churns again today. A
    // join in the same round therefore lands on a clean seat (fresh
    // identity), matching the "contacts have aged out" reading of decay.
    if (state_.decay_at[v] == round) {
      state_.clear_holdings(v);
      state_.decay_at[v] = NodeState::kNoDecay;
    }
    if (state_.roles[v] != Role::kHonest) continue;  // only honest seats churn
    if (state_.alive[v] != 0) {
      if (churn_crash_[v] != 0) {
        state_.alive[v] = 0;
        ++stats_.churn_crashes;
        if (config_.churn.decay_rounds == 0) {
          state_.clear_holdings(v);  // no grace: a crash decays like a leave
        } else {
          state_.decay_at[v] = round + config_.churn.decay_rounds;
        }
      } else if (churn_leave_[v] != 0) {
        state_.alive[v] = 0;
        state_.clear_holdings(v);
        ++stats_.churn_leaves;
      }
    } else if (churn_join_[v] != 0) {
      state_.alive[v] = 1;
      if (state_.decay_at[v] != NodeState::kNoDecay) {
        // Recovery inside the decay window: same identity, state intact,
        // join round unchanged — the downtime shows up as delivery loss.
        state_.decay_at[v] = NodeState::kNoDecay;
        ++stats_.churn_recoveries;
      } else {
        // The seat is recycled to a fresh identity: empty state, a new join
        // round, and a clean slate with the eviction layer (whitewashing —
        // churn's gift to a reported offender is modelled, not hidden).
        state_.clear_holdings(v);
        state_.joined_round[v] = round;
        state_.evicted[v] = 0;
        state_.oob_received[v] = 0;
        ++stats_.churn_joins;
      }
    }
  }
}

void GossipEngine::rotate_satiate_set(Round round) {
  if (plan_.rotation_period == 0) return;
  if (plan_.kind != AttackKind::kIdealLotus &&
      plan_.kind != AttackKind::kTradeLotus) {
    return;
  }
  if (round % plan_.rotation_period != 0) return;
  // Attacker nodes stay in; the honest fill is a sliding window over a
  // fixed shuffled order, advanced once per period.
  const auto target = static_cast<std::uint32_t>(
      plan_.satiate_fraction * static_cast<double>(config_.nodes) + 0.5);
  std::fill(state_.satiated.begin(), state_.satiated.end(), std::uint8_t{0});
  std::uint32_t members = 0;
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    if (state_.roles[v] == Role::kAttacker || state_.roles[v] == Role::kCrash) {
      state_.satiated[v] = 1;
      ++members;
    }
  }
  if (rotation_order_.empty()) return;
  const std::uint32_t fill =
      target > members ? target - members : 0;
  const std::size_t offset = static_cast<std::size_t>(
                                 round / plan_.rotation_period) *
                             fill % rotation_order_.size();
  for (std::uint32_t i = 0; i < fill; ++i) {
    const auto v = rotation_order_[(offset + i) % rotation_order_.size()];
    state_.satiated[v] = 1;
    state_.ever_satiated[v] = 1;
  }
}

void GossipEngine::fold_expired_generation(Round round) {
  // Generation g = round - lifetime was last writable during round - 1 and
  // its ring slots are exactly the ones seed_updates is about to reuse for
  // generation `round`: fold the delivery counts out now and clear them.
  if (round < config_.update_lifetime) return;
  const Round g = round - config_.update_lifetime;
  const auto lo = static_cast<UpdateId>(g) * config_.updates_per_round;
  const UpdateId hi = lo + config_.updates_per_round;
  const IdRange measured = clock_.measured(config_.warmup_rounds);
  const bool measured_gen = lo >= measured.lo && hi <= measured.hi;
  const sim::RingRange gen = ring({lo, hi});
  const auto gen_size = static_cast<double>(config_.updates_per_round);
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    // Count and recycle the ring slots (dead seats included — the slots are
    // about to be reused).
    const std::size_t held = state_.holdings(v).take_count_and_clear(gen);
    if (!measured_gen || state_.roles[v] != Role::kHonest) continue;
    if (churn_) {
      // A seat counts toward generation g only if it is a member at expiry
      // and its current identity joined no later than the release round.
      // Recovered crashers keep their join round, so their downtime shows up
      // as delivery loss rather than a shrunken denominator.
      if (state_.alive[v] == 0 || state_.joined_round[v] > g) continue;
      ++state_.eligible_generations[v];
    }
    state_.measured_held[v] += held;
    if (static_cast<double>(held) / gen_size <= config_.usability_threshold) {
      ++state_.unusable_generations[v];
    }
  }
  const std::size_t pool_held = attacker_pool_.view().take_count_and_clear(gen);
  if (measured_gen) attacker_pool_held_ += pool_held;
}

bool GossipEngine::participates(std::uint32_t v) const noexcept {
  if (churn_ && state_.alive[v] == 0) return false;
  return state_.evicted[v] == 0 && state_.roles[v] != Role::kCrash;
}

std::size_t GossipEngine::giver_cap(std::uint32_t v) const noexcept {
  if (!churn_) return kUncapped;
  const std::uint32_t cap = state_.capacity_cap[v];
  return cap == 0 ? kUncapped : cap;
}

bool GossipEngine::is_trade_attacker(std::uint32_t v) const noexcept {
  return state_.roles[v] == Role::kAttacker &&
         plan_.kind == AttackKind::kTradeLotus;
}

std::size_t GossipEngine::apply_service_cap(std::size_t wanted) const noexcept {
  if (config_.service_cap == 0) return wanted;
  return std::min<std::size_t>(wanted, config_.service_cap);
}

GossipResult GossipEngine::run() {
  stats_ = GossipResult{};
  for (Round round = 0; round < config_.rounds; ++round) {
    apply_churn(round);
    rotate_satiate_set(round);
    fold_expired_generation(round);
    attacker_pool_lagged_ = attacker_pool_;
    seed_updates(round);
    if (plan_.kind == AttackKind::kIdealLotus) ideal_multicast(round);
    rng_.shuffle(std::span<std::uint32_t>{order_});  // this round's order
    run_interactions(round, /*push_phase=*/false);
    run_interactions(round, /*push_phase=*/true);
    process_reports(round);
  }
  return collect_metrics();
}

void GossipEngine::seed_updates(Round round) {
  const IdRange released = clock_.released_in(round);
  for (UpdateId u = released.lo; u < released.hi; ++u) {
    for (const auto v : rng_.sample_without_replacement(config_.nodes,
                                                        config_.copies_seeded)) {
      if (state_.evicted[v] != 0) continue;  // evicted nodes are out of the membership
      if (churn_ && state_.alive[v] == 0) continue;  // dead seats receive nothing
      state_.holdings(v).set(u);
      if (state_.roles[v] == Role::kAttacker) attacker_pool_.set(u);
    }
  }
}

void GossipEngine::ideal_multicast(Round round) {
  // Out-of-band instant forwarding of everything the attacker has received
  // from the broadcaster. Needs at least one live attacker node. The service
  // cap does NOT apply: this attack bypasses the protocol entirely (§2), so
  // rate limiting cannot touch it — only reporting can.
  bool any_attacker = false;
  std::uint32_t reporter_target = 0;
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    if (state_.roles[v] == Role::kAttacker && state_.evicted[v] == 0) {
      any_attacker = true;
      reporter_target = v;
      break;
    }
  }
  if (!any_attacker) return;
  const sim::RingRange active = ring(clock_.active(round));
  const sim::ConstWindowBitsetView pool = attacker_pool_.view();
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    if (state_.roles[v] != Role::kHonest || state_.satiated[v] == 0) continue;
    if (churn_ && state_.alive[v] == 0) continue;
    const std::size_t given =
        state_.holdings(v).transfer_from(pool, active, kUncapped);
    stats_.attacker_dump_updates += given;
    // Unsolicited sends drip-feed below any single-message limit, so
    // obedient receivers account for them cumulatively; each report names
    // the sender of the excess (the first live attacker node) and resets the
    // tally.
    state_.oob_received[v] += given;
    if (state_.oob_received[v] > config_.service_limit) {
      file_report(round, reporter_target, v, state_.oob_received[v]);
      state_.oob_received[v] = 0;
    }
  }
}

// The exchange/push/dump cores below are pure windowed-bitset arithmetic:
// every count_and_not_range and capped transfer_from runs the shared
// sim::simd range kernels, so the engine has no word-loop code of its own to
// keep in sync.
GossipEngine::TransferOutcome GossipEngine::do_balanced_exchange(
    std::uint32_t i, std::uint32_t j, const PhaseRanges& ranges) {
  const sim::WindowBitsetView held_i = state_.holdings(i);
  const sim::WindowBitsetView held_j = state_.holdings(j);
  const std::size_t i_can_give =
      held_i.count_and_not_range(held_j, ranges.active);
  const std::size_t j_can_give =
      held_j.count_and_not_range(held_i, ranges.active);
  const std::size_t m = std::min(i_can_give, j_can_give);

  std::size_t give_i = m;  // i -> j
  std::size_t give_j = m;  // j -> i
  if (config_.unbalanced_exchange && m >= 1) {
    // Figure 3 variant: an obedient node is willing to hand over one more
    // update than it receives, provided it receives at least one.
    if (state_.obedient[i] != 0) give_i = std::min(m + 1, i_can_give);
    if (state_.obedient[j] != 0) give_j = std::min(m + 1, j_can_give);
  }
  give_i = apply_service_cap(give_i);
  give_j = apply_service_cap(give_j);
  // Heterogeneous capacities: a slow seat cannot hand over more than its
  // per-interaction cap, whatever the protocol would allow.
  give_i = std::min(give_i, giver_cap(i));
  give_j = std::min(give_j, giver_cap(j));
  if (give_i == 0 && give_j == 0) return {};

  const std::size_t moved_to_j =
      held_j.transfer_from(held_i, ranges.active, give_i);
  const std::size_t moved_to_i =
      held_i.transfer_from(held_j, ranges.active, give_j);
  return {moved_to_j, moved_to_i};
}

GossipEngine::TransferOutcome GossipEngine::do_optimistic_push(
    std::uint32_t i, std::uint32_t j, const PhaseRanges& ranges) {
  const sim::WindowBitsetView held_i = state_.holdings(i);
  const sim::WindowBitsetView held_j = state_.holdings(j);
  // Responder j takes up to push_size recently released updates it lacks.
  const std::size_t offered =
      held_i.count_and_not_range(held_j, ranges.recent);
  const std::size_t take = std::min(
      apply_service_cap(std::min<std::size_t>(offered, config_.push_size)),
      giver_cap(i));
  if (take == 0) return {};  // nothing in it for the responder: no exchange
  const std::size_t taken =
      held_j.transfer_from(held_i, ranges.recent, take);
  // In exchange the responder returns the same number of items: requested
  // soon-expiring updates when it has them, junk data otherwise. A slow
  // responder pads with junk beyond its capacity cap.
  const std::size_t returned = held_i.transfer_from(
      held_j, ranges.expiring, std::min(taken, giver_cap(j)));
  return {taken, returned};
}

std::size_t GossipEngine::do_attacker_dump(std::uint32_t a,
                                           std::uint32_t partner,
                                           const PhaseRanges& ranges,
                                           std::size_t limit) {
  if (state_.evicted[a] != 0 || state_.evicted[partner] != 0) return 0;
  if (churn_ && state_.alive[partner] == 0) return 0;
  if (state_.roles[partner] != Role::kHonest) return 0;
  if (state_.satiated[partner] == 0) return 0;  // isolated nodes get nothing
  // Dump: every update the attacker has ("every update he has", §2), up to
  // the protocol ceiling of this slot and the rate-limit defence. As in the
  // paper's ideal attack, attacking nodes forward what they receive from the
  // broadcaster (pooled across the colluding nodes); they do not grow their
  // pool through trades. The trade attack differs from the ideal attack
  // only in the delivery channel: protocol interactions instead of instant
  // out-of-band multicast, which is why it needs far more nodes — contact
  // frequency, not knowledge, is its binding constraint (§2).
  std::size_t cap = limit;
  if (config_.service_cap != 0) {
    cap = std::min<std::size_t>(cap, config_.service_cap);
  }
  return state_.holdings(partner).transfer_from(attacker_pool_lagged_.view(),
                                                ranges.active, cap);
}

bool GossipEngine::missing_expiring(std::uint32_t i,
                                    const PhaseRanges& ranges) const {
  return ranges.expiring.size() >
         state_.holdings(i).count_range(ranges.expiring);
}

void GossipEngine::exec_slot(Round round, std::uint32_t p,
                             const PhaseRanges& ranges, bool push_phase) {
  const std::uint32_t i = order_[p];
  const std::uint32_t j = state_.partner[p];
  if (!participates(i) || !participates(j)) return;
  // A trade attacker dumps his pool instead of trading; in a push the
  // receiver's protocol accepts at most push_size updates.
  const auto dump = [&](std::uint32_t attacker, std::uint32_t partner) {
    const std::size_t given = do_attacker_dump(
        attacker, partner, ranges, push_phase ? config_.push_size : kUncapped);
    stats_.attacker_dump_updates += given;
    file_report(round, attacker, partner, given);
  };
  if (is_trade_attacker(i)) {
    dump(i, j);
    return;
  }
  // Only honest nodes initiate from here on: the ideal attacker never
  // trades and crashed nodes never act.
  if (state_.roles[i] != Role::kHonest) return;
  // An honest node initiates a push only when it is missing soon-expiring
  // updates (a rational node has nothing to gain otherwise, and the protocol
  // only calls for pushes then). The protocol checks this before looking the
  // partner up; the partner pass has already looked every partner up, which
  // changes nothing because partner_of is a pure hash.
  if (push_phase && !missing_expiring(i, ranges)) return;
  if (is_trade_attacker(j)) {
    // The attacker was merely chosen as a partner; whether he can stuff
    // extra updates into a responder slot is a modelling choice (config).
    if (config_.trade_dump_on_response) dump(j, i);
    return;
  }
  if (state_.roles[j] != Role::kHonest) return;
  if (push_phase) {
    const auto [taken, returned] = do_optimistic_push(i, j, ranges);
    if (taken > 0) {
      ++stats_.pushes;
      stats_.push_updates += returned;
      stats_.junk_updates += taken - returned;
    }
    file_report(round, i, j, taken);
    file_report(round, j, i, returned);
  } else {
    const auto [to_j, to_i] = do_balanced_exchange(i, j, ranges);
    if (to_i + to_j > 0) ++stats_.balanced_exchanges;
    stats_.exchange_updates += to_i + to_j;
    file_report(round, i, j, to_j);
    file_report(round, j, i, to_i);
  }
}

void GossipEngine::run_interactions(Round round, bool push_phase) {
  const std::size_t n = order_.size();
  const crypto::PartnerPhase partner_of = schedule_.phase(
      round, push_phase ? crypto::PartnerPurpose::kOptimisticPush
                        : crypto::PartnerPurpose::kBalancedExchange);
  const PhaseRanges ranges{ring(clock_.active(round)),
                           ring(clock_.recent(round)),
                           ring(clock_.expiring_soon(round))};
  // Partner pass: every slot's partner is a pure keyed hash of (round,
  // initiator, purpose), known before any holdings move, so one pass
  // resolves the whole phase.
  auto& partner = state_.partner;
  for (std::size_t p = 0; p < n; ++p) partner[p] = partner_of(order_[p]);
  // The slots touch nodes in random order: fetch a later slot's node state
  // while the current one runs.
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchAhead < n) {
      state_.prefetch(order_[p + kPrefetchAhead]);
      state_.prefetch(partner[p + kPrefetchAhead]);
    }
    exec_slot(round, static_cast<std::uint32_t>(p), ranges, push_phase);
  }
}

void GossipEngine::file_report(Round round, std::uint32_t giver,
                               std::uint32_t receiver, std::size_t given) {
  if (!config_.reporting_enabled || given <= config_.service_limit ||
      state_.roles[receiver] != Role::kHonest ||
      state_.obedient[receiver] == 0) {
    return;
  }
  pending_reports_.push_back(crypto::make_record(
      registry_, round, giver, receiver, static_cast<std::uint32_t>(given)));
  ++stats_.reports_filed;
}

void GossipEngine::process_reports(Round round) {
  for (const auto& record : pending_reports_) {
    const auto offender = crypto::check_excessive_service(
        registry_, record, config_.service_limit);
    if (!offender.has_value()) continue;
    if (state_.evicted[*offender] != 0) continue;
    state_.evicted[*offender] = 1;
    if (state_.roles[*offender] == Role::kAttacker ||
        state_.roles[*offender] == Role::kCrash) {
      ++stats_.attackers_evicted;
      if (stats_.attackers_evicted == cast_.attacker_count &&
          stats_.full_eviction_round == 0) {
        stats_.full_eviction_round = round + 1;
      }
    }
  }
  pending_reports_.clear();
}

GossipResult GossipEngine::collect_metrics() const {
  GossipResult result = stats_;
  // Per-node delivery over the measured window (never empty: the
  // constructor rejects that) was folded in as each generation expired.
  const IdRange measured = clock_.measured(config_.warmup_rounds);
  const double gen_size = config_.updates_per_round;
  const auto generations =
      static_cast<std::uint32_t>(measured.size() / config_.updates_per_round);

  const bool lotus = plan_.kind == AttackKind::kIdealLotus ||
                     plan_.kind == AttackKind::kTradeLotus;
  double isolated_sum = 0.0;
  double satiated_sum = 0.0;
  double overall_sum = 0.0;
  std::uint32_t isolated_n = 0;
  std::uint32_t satiated_n = 0;
  std::uint32_t honest_n = 0;
  std::uint32_t below_n = 0;
  std::uint32_t stretched_nodes = 0;
  std::uint64_t unusable_pairs = 0;
  std::uint64_t eligible_pairs = 0;
  double worst = 1.0;
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    if (state_.roles[v] != Role::kHonest) continue;
    // A node is judged over the measured generations it was an eligible
    // member for: every one of them without churn. Under churn, seats that
    // were never eligible are excluded from every average (there is nothing
    // to measure them against).
    const std::uint32_t eligible =
        churn_ ? state_.eligible_generations[v] : generations;
    if (eligible == 0) continue;
    // Measured updates held at expiry over the updates the node was
    // eligible for.
    const double got = static_cast<double>(state_.measured_held[v]) /
                       (static_cast<double>(eligible) * gen_size);
    ++honest_n;
    overall_sum += got;
    worst = std::min(worst, got);
    if (got <= config_.usability_threshold) ++below_n;
    // Under rotation a node counts as satiated if the attacker ever fed it.
    if (lotus && state_.ever_satiated[v] != 0) {
      ++satiated_n;
      satiated_sum += got;
    } else {
      ++isolated_n;
      isolated_sum += got;
    }
    // Time-resolved usability over release generations.
    const std::uint32_t unusable = state_.unusable_generations[v];
    unusable_pairs += unusable;
    eligible_pairs += eligible;
    if (unusable * 10 >= eligible) ++stretched_nodes;
  }
  result.isolated_nodes = isolated_n;
  result.satiated_honest_nodes = satiated_n;
  result.attacker_nodes = cast_.attacker_count;
  result.overall_delivery = honest_n ? overall_sum / honest_n : 1.0;
  result.isolated_delivery = isolated_n ? isolated_sum / isolated_n : 1.0;
  result.satiated_delivery = satiated_n ? satiated_sum / satiated_n : 1.0;
  result.honest_below_usability =
      honest_n ? static_cast<double>(below_n) / honest_n : 0.0;
  result.worst_honest_delivery = honest_n ? worst : 1.0;
  result.unusable_node_generations =
      eligible_pairs ? static_cast<double>(unusable_pairs) /
                           static_cast<double>(eligible_pairs)
                     : 0.0;
  result.nodes_with_unusable_stretch =
      honest_n ? static_cast<double>(stretched_nodes) / honest_n : 0.0;
  result.attacker_coverage = static_cast<double>(attacker_pool_held_) /
                             static_cast<double>(measured.size());
  return result;
}

GossipResult run_gossip(const GossipConfig& config, const AttackPlan& plan) {
  GossipEngine engine{config, plan};
  return engine.run();
}

}  // namespace lotus::gossip
