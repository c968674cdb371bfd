#include "ref/reference.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "crypto/partner.h"
#include "crypto/sign.h"
#include "gossip/attack.h"
#include "gossip/update_store.h"
#include "sim/rng.h"

namespace lotus::ref {
namespace {

using gossip::AttackKind;
using gossip::IdRange;
using gossip::Role;
using gossip::Round;
using Bits = std::vector<bool>;

constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
constexpr Round kNever = std::numeric_limits<Round>::max();

std::size_t held_in(const Bits& bits, IdRange r) {
  std::size_t n = 0;
  for (auto u = r.lo; u < r.hi; ++u) n += bits[u];
  return n;
}

/// Updates in r that `from` holds and `to` lacks.
std::size_t missing(const Bits& from, const Bits& to, IdRange r) {
  std::size_t n = 0;
  for (auto u = r.lo; u < r.hi; ++u) n += from[u] && !to[u];
  return n;
}

/// Hands `to` up to `cap` updates of r it lacks, oldest (lowest id) first.
std::size_t give(Bits& to, const Bits& from, IdRange r, std::size_t cap) {
  std::size_t moved = 0;
  for (auto u = r.lo; u < r.hi && moved < cap; ++u) {
    if (from[u] && !to[u]) {
      to[u] = true;
      ++moved;
    }
  }
  return moved;
}

/// Everything the simulation knows about one node (one seat, under churn).
struct Node {
  Role role = Role::kHonest;
  bool obedient = false, satiated = false, ever_satiated = false;
  bool evicted = false, alive = true;
  Bits have;                   // every update id of the run
  Round joined = 0;            // round the seat's current identity joined
  Round decay_at = kNever;     // round a crashed seat's state ages out
  std::uint32_t slow_cap = 0;  // per-interaction giving capacity; 0 = none
  std::uint64_t oob = 0;       // unsolicited updates since the last report
  // Measured updates held at their deadline, measured generations at or
  // below the usability threshold, and generations the node was judged over.
  std::uint64_t held = 0;
  std::uint32_t unusable = 0, judged = 0;
};

class Simulator {
 public:
  Simulator(const gossip::GossipConfig& config, const gossip::AttackPlan& plan)
      : c_(config),
        plan_(plan),
        clock_(c_),
        schedule_(sim::derive_seed(c_.seed, 0x70617274ULL), c_.nodes),
        registry_(c_.nodes, sim::derive_seed(c_.seed, 0x6b657973ULL)),
        rng_(c_.seed),
        churn_rng_(sim::derive_seed(c_.seed, 0x6368726eULL)),
        churn_(c_.churn.enabled()),
        lotus_(plan_.kind == AttackKind::kIdealLotus ||
               plan_.kind == AttackKind::kTradeLotus),
        pool_(c_.total_updates(), false),
        node_(c_.nodes) {
    sim::Rng cast_rng{sim::derive_seed(c_.seed, 0x63617374ULL)};
    const gossip::Cast cast = gossip::make_cast(c_, plan_, cast_rng);
    attackers_ = cast.attacker_count;
    // Slow seats: one draw per seat, and only honest seats are ever slow.
    sim::Rng slow_rng{sim::derive_seed(c_.seed, 0x63617061ULL)};
    const bool slow =
        churn_ && c_.churn.slow_fraction > 0.0 && c_.churn.slow_cap > 0;
    for (std::uint32_t v = 0; v < c_.nodes; ++v) {
      Node& x = node_[v];
      x.role = cast.roles[v];
      x.obedient = cast.obedient[v];
      x.satiated = x.ever_satiated = cast.satiate_set[v];
      x.have.assign(c_.total_updates(), false);
      if (slow && slow_rng.next_bernoulli(c_.churn.slow_fraction) &&
          x.role == Role::kHonest) {
        x.slow_cap = c_.churn.slow_cap;
      }
      order_.push_back(v);
      if (x.role == Role::kHonest) rotation_.push_back(v);
    }
    sim::Rng rotation_rng{sim::derive_seed(c_.seed, 0x726f74ULL)};
    rotation_rng.shuffle(std::span<std::uint32_t>{rotation_});
  }

  ReferenceRun run() {
    for (t_ = 0; t_ < c_.rounds; ++t_) {
      churn();
      rotate();
      judge_expired_generation();
      const Bits lagged = pool_;  // the trade attackers' one-round-old pool
      seed();
      if (plan_.kind == AttackKind::kIdealLotus) multicast();
      rng_.shuffle(std::span<std::uint32_t>{order_});
      for (const auto i : order_) exchange_slot(i, lagged);
      for (const auto i : order_) push_slot(i, lagged);
      evict();
    }
    ReferenceRun out{metrics(), {}};
    for (const Node& x : node_) out.holdings.push_back(x.have);
    return out;
  }

 private:
  bool honest(std::uint32_t v) const { return node_[v].role == Role::kHonest; }
  bool live(std::uint32_t v) const { return !churn_ || node_[v].alive; }
  bool participates(std::uint32_t v) const {
    return live(v) && !node_[v].evicted && node_[v].role != Role::kCrash;
  }
  bool trade_attacker(std::uint32_t v) const {
    return node_[v].role == Role::kAttacker &&
           plan_.kind == AttackKind::kTradeLotus;
  }
  /// At most the service cap (the §4 rate limit), when one is set.
  std::size_t capped(std::size_t n) const {
    return c_.service_cap != 0 ? std::min<std::size_t>(n, c_.service_cap) : n;
  }
  /// What honest giver v may hand over in one interaction: the service cap
  /// and, for a slow seat, its capacity.
  std::size_t cap(std::uint32_t v, std::size_t wanted) const {
    const std::uint32_t slow = node_[v].slow_cap;
    return slow != 0 ? std::min<std::size_t>(capped(wanted), slow)
                     : capped(wanted);
  }

  /// An obedient honest receiver reports excessive service with a
  /// dual-signed record; records are checked at the end of the round.
  void report(std::uint32_t giver, std::uint32_t receiver, std::size_t given) {
    if (!c_.reporting_enabled || given <= c_.service_limit) return;
    if (!honest(receiver) || !node_[receiver].obedient) return;
    records_.push_back(crypto::make_record(registry_, t_, giver, receiver,
                                           static_cast<std::uint32_t>(given)));
    ++out_.reports_filed;
  }

  void churn() {
    if (!churn_) return;
    // One draw per seat for each transition every round, alive or not.
    const auto draws = [&](double p) {
      Bits hit(c_.nodes);
      for (std::uint32_t v = 0; v < c_.nodes; ++v) {
        hit[v] = churn_rng_.next_bernoulli(p);
      }
      return hit;
    };
    const Bits crash = draws(c_.churn.crash_rate);
    const Bits leave = draws(c_.churn.leave_rate);
    const Bits join = draws(c_.churn.join_rate);
    const auto forget = [](Node& x) {
      std::fill(x.have.begin(), x.have.end(), false);
    };
    for (std::uint32_t v = 0; v < c_.nodes; ++v) {
      Node& x = node_[v];
      if (x.decay_at == t_) {  // a crashed seat's state ages out
        forget(x);
        x.decay_at = kNever;
      }
      if (x.role != Role::kHonest) continue;
      if (x.alive && (crash[v] || leave[v])) {
        // A crash keeps the state for decay_rounds; a leave drops it.
        x.alive = false;
        ++(crash[v] ? out_.churn_crashes : out_.churn_leaves);
        if (crash[v] && c_.churn.decay_rounds > 0) {
          x.decay_at = t_ + c_.churn.decay_rounds;
        } else {
          forget(x);
        }
      } else if (!x.alive && join[v]) {
        x.alive = true;
        if (x.decay_at != kNever) {  // recovery: same identity, state kept
          x.decay_at = kNever;
          ++out_.churn_recoveries;
        } else {  // a fresh identity: empty state and a clean slate
          forget(x);
          x.joined = t_;
          x.evicted = false;
          x.oob = 0;
          ++out_.churn_joins;
        }
      }
    }
  }

  void rotate() {
    const Round period = plan_.rotation_period;
    if (period == 0 || !lotus_ || t_ % period != 0) return;
    // The attacker's own nodes stay in; the honest fill slides along a fixed
    // shuffled order by one fill per period.
    const auto target = static_cast<std::uint32_t>(
        std::clamp(plan_.satiate_fraction, 0.0, 1.0) *
            static_cast<double>(c_.nodes) +
        0.5);
    std::uint32_t members = 0;
    for (Node& x : node_) {
      x.satiated = x.role != Role::kHonest;
      members += x.satiated;
    }
    if (rotation_.empty()) return;
    const std::uint32_t fill = target > members ? target - members : 0;
    const std::size_t offset =
        static_cast<std::size_t>(t_ / period) * fill % rotation_.size();
    for (std::uint32_t k = 0; k < fill; ++k) {
      Node& x = node_[rotation_[(offset + k) % rotation_.size()]];
      x.satiated = x.ever_satiated = true;
    }
  }

  /// The generation whose deadline has just passed is judged against the
  /// members that exist at the deadline.
  void judge_expired_generation() {
    if (t_ < c_.update_lifetime) return;
    const Round g = t_ - c_.update_lifetime;
    const IdRange gen = clock_.released_in(g);
    const IdRange measured = clock_.measured(c_.warmup_rounds);
    if (gen.lo < measured.lo || gen.hi > measured.hi) return;
    for (Node& x : node_) {
      if (x.role != Role::kHonest) continue;
      if (churn_ && (!x.alive || x.joined > g)) continue;
      const std::size_t got = held_in(x.have, gen);
      ++x.judged;
      x.held += got;
      x.unusable += static_cast<double>(got) / c_.updates_per_round <=
                    c_.usability_threshold;
    }
  }

  void seed() {
    const IdRange released = clock_.released_in(t_);
    for (auto u = released.lo; u < released.hi; ++u) {
      for (const auto v :
           rng_.sample_without_replacement(c_.nodes, c_.copies_seeded)) {
        if (node_[v].evicted || !live(v)) continue;
        node_[v].have[u] = true;
        if (node_[v].role == Role::kAttacker) pool_[u] = true;
      }
    }
  }

  /// The ideal attacker forwards everything his nodes were seeded to every
  /// live satiated honest node out of band; no cap applies (§2).
  void multicast() {
    const auto first_live_attacker = std::find_if(
        node_.begin(), node_.end(),
        [](const Node& x) { return x.role == Role::kAttacker && !x.evicted; });
    if (first_live_attacker == node_.end()) return;
    const auto sender =
        static_cast<std::uint32_t>(first_live_attacker - node_.begin());
    for (std::uint32_t v = 0; v < c_.nodes; ++v) {
      Node& x = node_[v];
      if (!honest(v) || !x.satiated || !live(v)) continue;
      const std::size_t given = give(x.have, pool_, clock_.active(t_), kAll);
      out_.attacker_dump_updates += given;
      // Obedient receivers tally unsolicited updates across rounds.
      x.oob += given;
      if (x.oob > c_.service_limit) {
        report(sender, v, x.oob);
        x.oob = 0;
      }
    }
  }

  /// A trade attacker dumps from the lagged pool into a live satiated honest
  /// partner, up to the slot's ceiling; isolated nodes get nothing.
  void dump(std::uint32_t a, std::uint32_t p, std::size_t ceiling,
            const Bits& lagged) {
    std::size_t given = 0;
    if (!node_[a].evicted && !node_[p].evicted && live(p) && honest(p) &&
        node_[p].satiated) {
      given = give(node_[p].have, lagged, clock_.active(t_), capped(ceiling));
    }
    out_.attacker_dump_updates += given;
    report(a, p, given);
  }

  void exchange_slot(std::uint32_t i, const Bits& lagged) {
    if (!participates(i)) return;
    if (node_[i].role == Role::kAttacker && !trade_attacker(i)) return;
    const std::uint32_t j =
        schedule_.partner_of(t_, i, crypto::PartnerPurpose::kBalancedExchange);
    if (!participates(j)) return;
    if (trade_attacker(i) || trade_attacker(j)) {
      if (trade_attacker(i)) {
        dump(i, j, kAll, lagged);
      } else if (c_.trade_dump_on_response) {
        dump(j, i, kAll, lagged);
      }
      return;
    }
    if (!honest(i) || !honest(j)) return;
    // Both sides trade as many active updates as the poorer side can offer;
    // with unbalanced_exchange an obedient side gives one extra.
    Bits& hi = node_[i].have;
    Bits& hj = node_[j].have;
    const IdRange active = clock_.active(t_);
    const std::size_t i_has = missing(hi, hj, active);
    const std::size_t j_has = missing(hj, hi, active);
    const std::size_t m = std::min(i_has, j_has);
    const bool extra = c_.unbalanced_exchange && m >= 1;
    const std::size_t from_i =
        extra && node_[i].obedient ? std::min(m + 1, i_has) : m;
    const std::size_t from_j =
        extra && node_[j].obedient ? std::min(m + 1, j_has) : m;
    const std::size_t to_j = give(hj, hi, active, cap(i, from_i));
    const std::size_t to_i = give(hi, hj, active, cap(j, from_j));
    if (to_i + to_j > 0) ++out_.balanced_exchanges;
    out_.exchange_updates += to_i + to_j;
    report(i, j, to_j);
    report(j, i, to_i);
  }

  void push_slot(std::uint32_t i, const Bits& lagged) {
    if (!participates(i)) return;
    const auto purpose = crypto::PartnerPurpose::kOptimisticPush;
    if (trade_attacker(i)) {
      const std::uint32_t j = schedule_.partner_of(t_, i, purpose);
      if (participates(j)) dump(i, j, c_.push_size, lagged);
      return;
    }
    if (!honest(i)) return;
    // Only a node missing soon-expiring updates starts a push.
    const IdRange old = clock_.expiring_soon(t_);
    if (held_in(node_[i].have, old) >= old.size()) return;
    const std::uint32_t j = schedule_.partner_of(t_, i, purpose);
    if (!participates(j)) return;
    if (trade_attacker(j) && c_.trade_dump_on_response) {
      dump(j, i, c_.push_size, lagged);
    }
    if (!honest(j)) return;
    // i offers up to push_size recent updates j lacks; j returns as many:
    // old updates i lacks while it has them, junk for the rest.
    Bits& hi = node_[i].have;
    Bits& hj = node_[j].have;
    const IdRange recent = clock_.recent(t_);
    const std::size_t offer =
        cap(i, std::min<std::size_t>(missing(hi, hj, recent), c_.push_size));
    if (offer == 0) return;  // nothing in it for j: no exchange
    const std::size_t taken = give(hj, hi, recent, offer);
    const std::size_t returned = give(hi, hj, old, cap(j, taken));
    ++out_.pushes;
    out_.push_updates += returned;
    out_.junk_updates += taken - returned;
    report(i, j, taken);
    report(j, i, returned);
  }

  void evict() {
    for (const auto& record : records_) {
      const auto offender =
          crypto::check_excessive_service(registry_, record, c_.service_limit);
      if (!offender || node_[*offender].evicted) continue;
      node_[*offender].evicted = true;
      if (honest(*offender)) continue;
      ++out_.attackers_evicted;
      if (out_.attackers_evicted == attackers_ &&
          out_.full_eviction_round == 0) {
        out_.full_eviction_round = t_ + 1;
      }
    }
    records_.clear();
  }

  /// Delivery over the measured window. Every generation a node was judged
  /// over weighs the same, with or without churn.
  gossip::GossipResult metrics() const {
    struct Mean {
      double sum = 0.0;
      std::uint32_t n = 0;
      double value() const { return n ? sum / n : 1.0; }
    } all, isolated, satiated;
    double worst = 1.0;
    std::uint32_t below = 0, stretched = 0;
    std::uint64_t unusable = 0, judged = 0;
    for (const Node& x : node_) {
      if (x.role != Role::kHonest || x.judged == 0) continue;
      const double got = static_cast<double>(x.held) /
                         (static_cast<double>(x.judged) * c_.updates_per_round);
      Mean& cohort = lotus_ && x.ever_satiated ? satiated : isolated;
      for (Mean* m : {&all, &cohort}) {
        m->sum += got;
        ++m->n;
      }
      worst = std::min(worst, got);
      below += got <= c_.usability_threshold;
      unusable += x.unusable;
      judged += x.judged;
      stretched += x.unusable * 10 >= x.judged;
    }
    gossip::GossipResult r = out_;
    r.isolated_nodes = isolated.n;
    r.satiated_honest_nodes = satiated.n;
    r.attacker_nodes = attackers_;
    r.overall_delivery = all.value();
    r.isolated_delivery = isolated.value();
    r.satiated_delivery = satiated.value();
    r.honest_below_usability =
        all.n ? static_cast<double>(below) / all.n : 0.0;
    r.worst_honest_delivery = worst;
    r.unusable_node_generations =
        judged ? static_cast<double>(unusable) / static_cast<double>(judged)
               : 0.0;
    r.nodes_with_unusable_stretch =
        all.n ? static_cast<double>(stretched) / all.n : 0.0;
    const IdRange measured = clock_.measured(c_.warmup_rounds);
    r.attacker_coverage = static_cast<double>(held_in(pool_, measured)) /
                          static_cast<double>(measured.size());
    return r;
  }

  gossip::GossipConfig c_;
  gossip::AttackPlan plan_;
  gossip::UpdateClock clock_;
  crypto::PartnerSchedule schedule_;
  crypto::KeyRegistry registry_;
  sim::Rng rng_;
  sim::Rng churn_rng_;
  bool churn_, lotus_;
  std::uint32_t attackers_ = 0;
  Round t_ = 0;
  Bits pool_;  // every update the attacker's nodes were seeded
  std::vector<Node> node_;
  // The initiation order (reshuffled each round) and the rotation order.
  std::vector<std::uint32_t> order_, rotation_;
  std::vector<crypto::ExchangeRecord> records_;
  gossip::GossipResult out_;
};

}  // namespace

ReferenceRun simulate(const gossip::GossipConfig& c,
                      const gossip::AttackPlan& plan) {
  if (c.nodes < 2 || c.update_lifetime == 0 || c.updates_per_round == 0 ||
      c.copies_seeded > c.nodes) {
    throw std::invalid_argument(
        "need >= 2 nodes, nonzero update lifetime and rate, copies <= nodes");
  }
  if (c.recent_window > c.update_lifetime) {
    throw std::invalid_argument(
        "recent_window (" + std::to_string(c.recent_window) +
        ") must not exceed update_lifetime (" +
        std::to_string(c.update_lifetime) + ")");
  }
  if (c.rounds <= c.warmup_rounds + c.update_lifetime) {
    throw std::invalid_argument(
        "empty measured window: rounds (" + std::to_string(c.rounds) +
        ") must exceed warmup_rounds (" + std::to_string(c.warmup_rounds) +
        ") + update_lifetime (" + std::to_string(c.update_lifetime) + ")");
  }
  return Simulator{c, plan}.run();
}

}  // namespace lotus::ref
