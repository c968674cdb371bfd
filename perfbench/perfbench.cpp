// perfbench: the measured half of the benchmark; perfbench/run.py drives it.
//
// Each invocation runs one measured piece of one workload at one width and
// prints one JSON object on stdout. run.py alternates the widths, repeats
// pieces for the run's time budget, checks the outputs and reports medians.
// Every timing is taken here, from outside the library: around calls into
// the public functions of each layer, never from inside src/.
//
//   perfbench info
//   perfbench scale   --seed S --nodes N --rounds R --threads T --setup-reps K
//   perfbench replay  --seed S --nodes N --rounds R --threads T
//   perfbench figs    --seed S --threads T --setup-reps K --tmp DIR --out DIR
//                     [--only a,b] [--trace 1]
//   perfbench fixture --dir DIR --seed S --units U
//   perfbench fleet   --fixture DIR --work DIR --seed S --units U --workers W
//                     --setup-reps K [--trace 1]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/registry.h"
#include "crypto/partner.h"
#include "exp/cli.h"
#include "exp/trial_cache.h"
#include "exp/trial_store.h"
#include "fleet/queue.h"
#include "fleet/worker.h"
#include "gossip/engine.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "sim/simd.h"
#include "sim/window_bitset.h"

namespace {

namespace fs = std::filesystem;
using namespace lotus;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct CpuTimes {
  double user = 0;
  double sys = 0;
};

CpuTimes to_cpu(const rusage& ru) {
  return {static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6};
}

CpuTimes self_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return to_cpu(ru);
}

double cpu_total(const CpuTimes& t) { return t.user + t.sys; }

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A flat JSON object built in insertion order.
class Json {
 public:
  Json& add(const std::string& key, double v) { return raw(key, num(v)); }
  Json& add(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& add(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& add(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ",";
      s += num(v[i]);
    }
    return raw(key, s + "]");
  }
  /// p50 / p99 / sample count of per-call timings.
  Json& summary(const std::string& key, const std::vector<double>& v) {
    return raw(key, Json{}
                        .add("p50", percentile(v, 0.50))
                        .add("p99", percentile(v, 0.99))
                        .add("n", static_cast<std::uint64_t>(v.size()))
                        .str());
  }
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Arguments ---------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
    if (argc % 2 == 1) {
      throw std::runtime_error("arguments come in --key value pairs");
    }
  }
  std::string str(const std::string& key, std::string fallback = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) throw std::runtime_error("missing " + key);
    return fallback;
  }
  std::uint64_t u64(const std::string& key, std::uint64_t fallback = 0) const {
    const auto it = values_.find(key);
    if (it != values_.end()) return std::stoull(it->second);
    return fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Runs `fn` in `reps` fresh forked children, one after another, and returns
/// the seconds each child measured: every sample pays the cold cost a new
/// process pays, untouched by allocator or page-cache warmth in this one.
std::vector<double> cold_samples(std::uint64_t reps,
                                 const std::function<double()>& fn) {
  std::vector<double> out;
  std::fflush(stdout);
  for (std::uint64_t k = 0; k < reps; ++k) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      double v = -1;
      try {
        v = fn();
      } catch (...) {
      }
      const bool ok = ::write(fds[1], &v, sizeof v) == sizeof v;
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    double v = -1;
    const bool got = ::read(fds[0], &v, sizeof v) == sizeof v;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || v < 0) throw std::runtime_error("set-up sample failed");
    out.push_back(v);
  }
  return out;
}

// --- scale_1e5: one trade-lotus trial at scale ------------------------------

/// Table 1 seeds 12 copies into 250 nodes; scale_crossover keeps that
/// fraction as n grows so the unattacked epidemic still saturates.
gossip::GossipConfig scale_config(const Args& args) {
  gossip::GossipConfig config;
  config.nodes = static_cast<std::uint32_t>(args.u64("--nodes", 100000));
  config.copies_seeded = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (config.nodes * std::uint64_t{12} + 125) / 250));
  config.rounds = static_cast<std::uint32_t>(args.u64("--rounds", 60));
  config.seed = args.u64("--seed", 1);
  return config;
}

constexpr gossip::AttackPlan kScalePlan{gossip::AttackKind::kTradeLotus, 0.2};

std::string result_json(const gossip::GossipResult& r) {
  return Json{}
      .add("isolated_delivery", r.isolated_delivery)
      .add("satiated_delivery", r.satiated_delivery)
      .add("overall_delivery", r.overall_delivery)
      .add("honest_below_usability", r.honest_below_usability)
      .add("worst_honest_delivery", r.worst_honest_delivery)
      .add("unusable_node_generations", r.unusable_node_generations)
      .add("nodes_with_unusable_stretch", r.nodes_with_unusable_stretch)
      .add("attacker_coverage", r.attacker_coverage)
      .add("isolated_nodes", std::uint64_t{r.isolated_nodes})
      .add("satiated_honest_nodes", std::uint64_t{r.satiated_honest_nodes})
      .add("attacker_nodes", std::uint64_t{r.attacker_nodes})
      .add("balanced_exchanges", r.balanced_exchanges)
      .add("exchange_updates", r.exchange_updates)
      .add("pushes", r.pushes)
      .add("push_updates", r.push_updates)
      .add("junk_updates", r.junk_updates)
      .add("attacker_dump_updates", r.attacker_dump_updates)
      .add("churn_joins", r.churn_joins)
      .add("churn_leaves", r.churn_leaves)
      .add("churn_crashes", r.churn_crashes)
      .add("churn_recoveries", r.churn_recoveries)
      .add("reports_filed", r.reports_filed)
      .add("attackers_evicted", std::uint64_t{r.attackers_evicted})
      .add("full_eviction_round", std::uint64_t{r.full_eviction_round})
      .str();
}

int cmd_scale(const Args& args) {
  const auto config = scale_config(args);
  const std::size_t threads = args.u64("--threads", 1);
  const auto setup = cold_samples(args.u64("--setup-reps", 3), [&] {
    const auto t0 = Clock::now();
    const gossip::GossipEngine engine{config, kScalePlan,
                                      gossip::StateModel::kWindowed, threads};
    return since(t0);
  });

  const auto t0 = Clock::now();
  gossip::GossipEngine engine{config, kScalePlan, gossip::StateModel::kWindowed,
                              threads};
  const double ctor_s = since(t0);
  const CpuTimes cpu0 = self_cpu();
  const auto t1 = Clock::now();
  const gossip::GossipResult result = engine.run();
  const double run_s = since(t1);
  const double cpu_s = cpu_total(self_cpu()) - cpu_total(cpu0);

  std::vector<double> setup_all = setup;
  setup_all.push_back(ctor_s);
  std::cout << Json{}
                   .add("setup_s", setup_all)
                   .add("ctor_s", ctor_s)
                   .add("wall_s", run_s)
                   .add("cpu_s", cpu_s)
                   .add("rounds", std::uint64_t{config.rounds})
                   .add("nodes", std::uint64_t{config.nodes})
                   .add("state_bytes",
                        static_cast<std::uint64_t>(engine.state_bytes()))
                   .add("peak_rss_mb", self_peak_rss_mb())
                   .raw("result", result_json(result))
                   .str()
            << "\n";
  return 0;
}

// --- Layer replays for scale_1e5 --------------------------------------------
//
// "Replay" calls the same public function with the workload's exact shapes
// and seed, outside the engine, so each layer's per-call cost is visible
// without timers inside src/.

/// The 100-bit window every production run uses (10 updates x 10 rounds):
/// one balanced exchange is 2x count_and_not_range + 2x transfer_from.
std::vector<double> replay_exchange(std::uint64_t seed, std::uint64_t& sink) {
  constexpr std::uint64_t kWindow = 100;
  constexpr std::size_t kPairs = 300;
  constexpr std::size_t kBatches = 1000;
  sim::Rng rng{seed ^ 0x5eedULL};
  std::vector<std::uint64_t> words(kPairs * 4);
  std::vector<double> ns;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (auto& w : words) w = rng() & rng();  // ~25% density
    const std::uint64_t lo = rng() % 1000;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kPairs; ++k) {
      const sim::WindowBitsetView a{&words[4 * k], kWindow};
      const sim::WindowBitsetView c{&words[4 * k + 2], kWindow};
      const std::size_t a_needs = c.count_and_not_range(
          sim::ConstWindowBitsetView{a}, lo, lo + kWindow);
      const std::size_t c_needs = a.count_and_not_range(
          sim::ConstWindowBitsetView{c}, lo, lo + kWindow);
      const std::size_t give = std::min(a_needs, c_needs);
      sink += a.transfer_from(sim::ConstWindowBitsetView{c}, lo, lo + kWindow,
                              give);
      sink += c.transfer_from(sim::ConstWindowBitsetView{a}, lo, lo + kWindow,
                              give);
    }
    ns.push_back(since(t0) * 1e9 / kPairs);
  }
  return ns;
}

int cmd_replay(const Args& args) {
  const auto config = scale_config(args);
  const std::uint32_t n = config.nodes;
  const std::size_t threads = args.u64("--threads", 1);
  // The engine's own schedule key ("part"), so the partners are the trial's.
  const crypto::PartnerSchedule schedule{
      sim::derive_seed(config.seed, 0x70617274ULL), n};

  // sim.rng: the per-round batched Fisher-Yates over the initiation order.
  sim::Rng rng{config.seed};
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint64_t> draws(n - 1);
  std::vector<double> shuffle_ns;
  std::vector<double> partner_ns;
  std::vector<double> assign_ns;
  std::vector<double> waves;
  std::vector<double> wave1_share;
  std::vector<std::uint32_t> partner(n);
  std::vector<std::uint32_t> slot_wave(n);
  std::vector<std::uint32_t> wave_order(n);
  sim::WaveSchedule schedule_waves;
  std::uint64_t sink = 0;
  for (std::uint32_t round = 0; round < config.rounds; ++round) {
    auto t0 = Clock::now();
    rng.fill_below_descending(n, std::span<std::uint64_t>{draws});
    for (std::size_t k = 0; k < draws.size(); ++k) {
      const std::size_t i = n - k;
      std::swap(order[i - 1], order[static_cast<std::size_t>(draws[k])]);
    }
    shuffle_ns.push_back(since(t0) * 1e9 / n);

    for (const auto purpose : {crypto::PartnerPurpose::kBalancedExchange,
                               crypto::PartnerPurpose::kOptimisticPush}) {
      // crypto: every initiation slot's partner, both purposes, timed per
      // chunk of kChunk slots.
      constexpr std::uint32_t kChunk = 1024;
      for (std::uint32_t begin = 0; begin < n; begin += kChunk) {
        const std::uint32_t end = std::min(n, begin + kChunk);
        t0 = Clock::now();
        for (std::uint32_t p = begin; p < end; ++p) {
          partner[p] = schedule.partner_of(round, order[p], purpose);
        }
        partner_ns.push_back(since(t0) * 1e9 / (end - begin));
      }
      sink += partner[n / 2];

      // sim.parallel: the engine's serial wave assignment, every slot
      // interacting (an upper bound on the engine's, which skips idle slots).
      t0 = Clock::now();
      schedule_waves.begin(n);
      for (std::uint32_t p = 0; p < n; ++p) {
        slot_wave[p] = schedule_waves.add(order[p], partner[p]);
      }
      schedule_waves.seal();
      for (std::uint32_t p = 0; p < n; ++p) {
        wave_order[schedule_waves.place(slot_wave[p])] = p;
      }
      assign_ns.push_back(since(t0) * 1e9 / n);
      waves.push_back(schedule_waves.waves());
      wave1_share.push_back(
          static_cast<double>(schedule_waves.wave_end(1) -
                              schedule_waves.wave_begin(1)) /
          schedule_waves.items());
      sink += wave_order[0];
    }
  }

  // sim.parallel: one Barrier round trip across the pool's workers.
  std::vector<double> barrier_us;
  {
    constexpr std::size_t kTrips = 2000;
    sim::ThreadPool pool{threads};
    sim::Barrier barrier{pool.size()};
    barrier_us.resize(kTrips);
    pool.run_on_workers([&](std::size_t w) {
      for (std::size_t k = 0; k < kTrips; ++k) {
        const auto t0 = Clock::now();
        barrier.arrive_and_wait();
        if (w == 0) barrier_us[k] = since(t0) * 1e6;
      }
    });
  }

  // sim.bitset/simd: the exchange kernel on the production window.
  const auto exchange_ns = replay_exchange(config.seed, sink);

  std::cout << Json{}
                   .summary("shuffle_ns_per_node", shuffle_ns)
                   .summary("partner_of_ns", partner_ns)
                   .summary("wave_assign_ns_per_slot", assign_ns)
                   .add("waves_per_phase", mean(waves))
                   .add("wave1_share", mean(wave1_share))
                   .summary("barrier_us", barrier_us)
                   .summary("exchange_ns", exchange_ns)
                   .add("sink", sink % 2)
                   .str()
            << "\n";
  return 0;
}

// --- figs_quick: every registered bench at --quick, cold ---------------------

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in{s};
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Routes std::cout into `sink` for its lifetime, so a bench that throws
/// cannot leave std::cout writing into a destroyed buffer.
class CoutTo {
 public:
  explicit CoutTo(std::ostream& sink) : saved_(std::cout.rdbuf(sink.rdbuf())) {}
  ~CoutTo() { std::cout.rdbuf(saved_); }
  CoutTo(const CoutTo&) = delete;
  CoutTo& operator=(const CoutTo&) = delete;

 private:
  std::streambuf* saved_;
};

/// exp::open_store, reached the way lotus_figs reaches it: a driver Cli
/// pointing --cache-dir at `dir`.
std::unique_ptr<exp::TrialStore> open_store_at(exp::TrialCache& cache,
                                               const std::string& dir) {
  exp::Cli cli{{.program = "perfbench", .summary = "trial store"}};
  const char* argv[] = {"perfbench", "--cache-dir", dir.c_str()};
  if (cli.parse(3, argv) != exp::ParseStatus::kOk) {
    throw std::runtime_error("cache-dir parse failed: " + cli.error());
  }
  return exp::open_store(cache, cli);
}

int cmd_figs(const Args& args) {
  const std::string seed = std::to_string(args.u64("--seed", 1));
  const std::string threads = std::to_string(args.u64("--threads", 1));
  const fs::path tmp = args.str("--tmp");
  const fs::path out = args.str("--out");
  const bool trace = args.u64("--trace", 0) != 0;
  fs::create_directories(out);

  // Set-up: trial cache + store open on a fresh directory, as a user pays it.
  const auto setup = cold_samples(args.u64("--setup-reps", 50), [&] {
    const std::string dir =
        (tmp / ("setup-" + std::to_string(::getpid()))).string();
    const auto t0 = Clock::now();
    exp::TrialCache cache;
    const auto store = open_store_at(cache, dir);
    const double dt = since(t0);
    return store && store->enabled() ? dt : -1.0;
  });
  fs::remove_all(tmp);

  std::vector<const figs::BenchDef*> selected;
  const auto only = split(args.str("--only", "all"));
  for (const auto& bench : figs::all_benches()) {
    if (only == std::vector<std::string>{"all"} ||
        std::find(only.begin(), only.end(), bench.name) != only.end()) {
      selected.push_back(&bench);
    }
  }

  const auto t_open = Clock::now();
  exp::TrialCache cache;
  const auto store = open_store_at(cache, (tmp / "cache").string());
  const double open_s = since(t_open);
  if (!store || !store->enabled()) throw std::runtime_error("store disabled");

  exp::CsvSink sink;
  std::string benches = "[";
  int failures = 0;
  const CpuTimes cpu0 = self_cpu();
  const auto t0 = Clock::now();
  for (const figs::BenchDef* bench : selected) {
    std::vector<const char*> argv = {bench->name, "--quick", "--seed",
                                     seed.c_str(), "--threads", threads.c_str()};
    exp::Cli cli{bench->spec()};
    if (cli.parse(static_cast<int>(argv.size()), argv.data()) !=
        exp::ParseStatus::kOk) {
      throw std::runtime_error(std::string{bench->name} + ": " + cli.error());
    }
    const std::uint64_t misses0 = cache.misses();
    std::ostringstream captured;
    int rc = 0;
    double wall = 0;
    double b_cpu = 0;
    {
      const CoutTo redirect{captured};
      const CpuTimes b_cpu0 = trace ? self_cpu() : CpuTimes{};
      const auto b0 = Clock::now();
      rc = bench->run(cli, sink, cache);
      wall = since(b0);
      if (trace) b_cpu = cpu_total(self_cpu()) - cpu_total(b_cpu0);
    }
    if (rc != 0) ++failures;
    std::ofstream{out / (std::string{bench->name} + ".txt"),
                  std::ios::binary}
        << captured.str();
    if (benches.size() > 1) benches += ",";
    benches += Json{}
                   .add("name", std::string{bench->name})
                   .add("wall_s", wall)
                   .add("cpu_s", b_cpu)
                   .add("misses", cache.misses() - misses0)
                   .add("rc", static_cast<std::uint64_t>(rc == 0 ? 0 : 1))
                   .str();
  }
  store->flush();
  const double wall_s = since(t0);
  const double cpu_s = cpu_total(self_cpu()) - cpu_total(cpu0);

  std::cout << Json{}
                   .add("setup_s", setup)
                   .add("open_s", open_s)
                   .add("wall_s", wall_s)
                   .add("cpu_s", cpu_s)
                   .add("lookups", cache.hits() + cache.misses())
                   .add("hits", cache.hits())
                   .add("misses", cache.misses())
                   .add("appended", static_cast<std::uint64_t>(store->appended()))
                   .add("index_fallbacks",
                        static_cast<std::uint64_t>(store->index_fallbacks()))
                   .add("failures", static_cast<std::uint64_t>(failures))
                   .add("peak_rss_mb", self_peak_rss_mb())
                   .raw("benches", benches + "]")
                   .str()
            << "\n";
  return 0;
}

// --- fleet_resume: drain a mostly finished campaign --------------------------
//
// The campaign is a grid of `units` work units, one trial space (cache scope)
// each, of kXs x kSeeds trials. The fixture store holds ~90% of those trials;
// a drain looks every trial up, computes the missing ones with a cheap
// deterministic generator, stores and flushes them.

constexpr std::uint32_t kXs = 25;
constexpr std::uint32_t kSeeds = 20;
constexpr std::uint64_t kShards = 16;
constexpr std::uint64_t kLeaseMs = 30'000;

std::uint64_t scope_hash(std::uint64_t seed, std::uint64_t unit) {
  return exp::TrialStore::trial_key_mix(seed, unit, 0x5c09eULL);
}
double grid_x(std::uint32_t xi) { return static_cast<double>(xi) / (kXs - 1); }
std::uint64_t grid_seed(std::uint32_t si) { return si + 1; }

/// The trial value a unit computes for (scope, x, seed): exact and cheap.
double trial_value(std::uint64_t h, double x, std::uint64_t s) {
  const std::uint64_t mix =
      exp::TrialStore::trial_key_mix(h, std::bit_cast<std::uint64_t>(x), s);
  return static_cast<double>(mix >> 11) * 0x1.0p-53;
}

/// Whether the fixture already holds the trial: ~90% of the grid.
bool in_fixture(std::uint64_t h, double x, std::uint64_t s) {
  const std::uint64_t mix =
      exp::TrialStore::trial_key_mix(~h, std::bit_cast<std::uint64_t>(x), s);
  return mix % 10 != 0;
}

int cmd_fixture(const Args& args) {
  const std::string dir = args.str("--dir");
  const std::uint64_t seed = args.u64("--seed", 1);
  const std::uint64_t units = args.u64("--units", 2000);
  const auto t0 = Clock::now();
  fs::create_directories(dir);
  exp::TrialStore store{dir, kShards};
  std::uint64_t records = 0;
  for (std::uint64_t u = 0; u < units; ++u) {
    const std::uint64_t h = scope_hash(seed, u);
    for (std::uint32_t xi = 0; xi < kXs; ++xi) {
      for (std::uint32_t si = 0; si < kSeeds; ++si) {
        const double x = grid_x(xi);
        const std::uint64_t s = grid_seed(si);
        if (!in_fixture(h, x, s)) continue;
        store.append({h, std::bit_cast<std::uint64_t>(x), s,
                      trial_value(h, x, s)});
        ++records;
      }
    }
  }
  store.flush();
  if (!store.enabled()) throw std::runtime_error("fixture store disabled");
  std::cout << Json{}.add("records", records).add("seconds", since(t0)).str()
            << "\n";
  return 0;
}

/// One forked fleet worker: its own store handle and cache, one
/// fleet::Worker draining the shared queue. Writes its tally as JSON to
/// `report` and never returns to the parent's code.
[[noreturn]] void fleet_child(const std::string& queue_path,
                              const std::string& store_dir,
                              const std::string& report, std::uint64_t seed,
                              bool trace) {
  int code = 1;
  try {
    exp::TrialStore store{store_dir};
    exp::TrialCache cache;
    cache.attach_store(store);
    std::uint64_t lookups = 0, hits = 0, misses = 0, mismatches = 0;
    std::vector<double> scope_load_us, lookup_ns, store_ns, flush_us;
    double runner_s = 0;
    const auto runner = [&](const fleet::WorkUnit& unit) {
      const auto r0 = Clock::now();
      const std::uint64_t h = scope_hash(seed, unit.x_bits);
      bool first = true;
      for (std::uint32_t xi = 0; xi < kXs; ++xi) {
        for (std::uint32_t si = 0; si < kSeeds; ++si) {
          const double x = grid_x(xi);
          const std::uint64_t s = grid_seed(si);
          double value = 0;
          const auto t0 = trace ? Clock::now() : Clock::time_point{};
          const bool hit = cache.lookup(h, x, s, value);
          if (trace) {
            const double dt = since(t0);
            if (first) {
              scope_load_us.push_back(dt * 1e6);
            } else {
              lookup_ns.push_back(dt * 1e9);
            }
          }
          first = false;
          ++lookups;
          if (hit) {
            ++hits;
            if (value != trial_value(h, x, s)) ++mismatches;
            continue;
          }
          ++misses;
          value = trial_value(h, x, s);
          const auto t1 = trace ? Clock::now() : Clock::time_point{};
          cache.store(h, x, s, value);
          if (trace) store_ns.push_back(since(t1) * 1e9);
        }
      }
      const auto f0 = Clock::now();
      store.flush();
      if (trace) flush_us.push_back(since(f0) * 1e6);
      runner_s += since(r0);
      return store.enabled();
    };
    fleet::Worker worker{{.queue_path = queue_path,
                          .owner = static_cast<std::uint64_t>(::getpid()),
                          .lease_ms = kLeaseMs},
                         runner};
    const auto w0 = Clock::now();
    const auto summary = worker.run();
    const double run_s = since(w0);
    std::ofstream{report}
        << Json{}
               .add("completed", static_cast<std::uint64_t>(summary.completed))
               .add("superseded", static_cast<std::uint64_t>(summary.superseded))
               .add("failed", static_cast<std::uint64_t>(summary.failed))
               .add("io_error", std::uint64_t{summary.io_error ? 1u : 0u})
               .add("lookups", lookups)
               .add("hits", hits)
               .add("disk_hits", cache.disk_hits())
               .add("misses", misses)
               .add("mismatches", mismatches)
               .add("appended", static_cast<std::uint64_t>(store.appended()))
               .add("dedup_dropped",
                    static_cast<std::uint64_t>(store.dedup_dropped()))
               .add("index_fallbacks",
                    static_cast<std::uint64_t>(store.index_fallbacks()))
               .add("run_s", run_s)
               .add("runner_s", runner_s)
               .summary("scope_load_us", scope_load_us)
               .summary("lookup_ns", lookup_ns)
               .summary("store_ns", store_ns)
               .add("flush_us", flush_us)
               .str();
    code = 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench fleet worker: " << e.what() << "\n";
  }
  ::_exit(code);
}

struct RecordCheck {
  std::uint64_t records = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t foreign = 0;  // not a grid trial, or a wrong value
  std::uint64_t missing = 0;
};

/// Reads every committed record back and checks it against the grid: each
/// trial present exactly once with its generator value, nothing else.
RecordCheck check_records(const std::string& store_dir, std::uint64_t seed,
                          std::uint64_t units) {
  std::unordered_map<std::uint64_t, std::uint64_t> unit_of;
  for (std::uint64_t u = 0; u < units; ++u) unit_of[scope_hash(seed, u)] = u;
  std::vector<bool> seen(units * kXs * kSeeds, false);
  RecordCheck check;
  const exp::TrialStore store{store_dir};
  std::vector<exp::TrialStore::Record> records;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    records.clear();
    (void)store.shard(i).load(records);
    for (const auto& r : records) {
      ++check.records;
      const auto it = unit_of.find(r.key_hash);
      const double x = std::bit_cast<double>(r.x_bits);
      const auto xi = static_cast<std::int64_t>(std::llround(x * (kXs - 1)));
      const auto si = static_cast<std::int64_t>(r.seed) - 1;
      if (it == unit_of.end() || xi < 0 || xi >= kXs || si < 0 ||
          si >= kSeeds || grid_x(static_cast<std::uint32_t>(xi)) != x ||
          r.value != trial_value(r.key_hash, x, r.seed)) {
        ++check.foreign;
        continue;
      }
      const std::size_t k = (it->second * kXs + xi) * kSeeds + si;
      if (seen[k]) ++check.duplicates;
      seen[k] = true;
    }
  }
  check.missing = static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), false));
  return check;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

int cmd_fleet(const Args& args) {
  const fs::path fixture = args.str("--fixture");
  const fs::path work = args.str("--work");
  const std::uint64_t seed = args.u64("--seed", 1);
  const std::uint64_t units = args.u64("--units", 2000);
  const std::uint64_t workers = std::max<std::uint64_t>(1, args.u64("--workers", 1));
  const bool trace = args.u64("--trace", 0) != 0;

  fs::remove_all(work);
  fs::create_directories(work);
  const std::string store_dir = (work / "store").string();
  fs::copy(fixture, store_dir, fs::copy_options::recursive);

  std::vector<fleet::WorkUnit> grid;
  for (std::uint64_t u = 0; u < units; ++u) {
    grid.push_back({"resume", u, seed});
  }

  // Set-up: queue create + store open + attach_store, in fresh processes.
  const auto setup = cold_samples(args.u64("--setup-reps", 50), [&] {
    const std::string queue =
        (work / ("setup-" + std::to_string(::getpid()) + ".queue")).string();
    const auto t0 = Clock::now();
    if (!fleet::WorkQueue::create(queue, grid, kLeaseMs)) return -1.0;
    exp::TrialStore store{store_dir};
    exp::TrialCache cache;
    cache.attach_store(store);
    const double dt = since(t0);
    fs::remove(queue);
    return store.enabled() ? dt : -1.0;
  });

  const auto o0 = Clock::now();
  {
    exp::TrialStore opened{store_dir};
    exp::TrialCache cache;
    cache.attach_store(opened);
  }
  const double open_s = since(o0);

  const std::string queue = (work / "fleet.queue").string();
  const auto q0 = Clock::now();
  if (!fleet::WorkQueue::create(queue, grid, kLeaseMs)) {
    throw std::runtime_error("queue create failed");
  }
  const double enqueue_s = since(q0);

  std::fflush(stdout);
  const auto t0 = Clock::now();
  std::vector<pid_t> pids;
  std::uint64_t bad_exits = 0;
  for (std::uint64_t k = 0; k < workers; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      ++bad_exits;  // reap the workers already running before reporting
      break;
    }
    if (pid == 0) {
      fleet_child(queue, store_dir,
                  (work / ("worker-" + std::to_string(k) + ".json")).string(),
                  seed, trace);
    }
    pids.push_back(pid);
  }
  CpuTimes child_cpu;
  double child_rss_mb = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    rusage ru{};
    ::wait4(pid, &status, 0, &ru);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++bad_exits;
    const CpuTimes c = to_cpu(ru);
    child_cpu.user += c.user;
    child_cpu.sys += c.sys;
    child_rss_mb += static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  const double wall_s = since(t0);
  const double peak_rss_mb = self_peak_rss_mb() + child_rss_mb;

  const auto stats = fleet::WorkQueue{queue}.stats();
  const RecordCheck records = check_records(store_dir, seed, units);
  std::string reports = "[";
  for (std::uint64_t k = 0; k < workers; ++k) {
    const auto text =
        read_file(work / ("worker-" + std::to_string(k) + ".json"));
    if (k > 0) reports += ",";
    reports += text.empty() ? std::string{"null"} : text;
  }
  fs::remove_all(work);

  std::cout << Json{}
                   .add("setup_s", setup)
                   .add("open_s", open_s)
                   .add("enqueue_s", enqueue_s)
                   .add("wall_s", wall_s)
                   .add("user_s", child_cpu.user)
                   .add("sys_s", child_cpu.sys)
                   .add("bad_exits", bad_exits)
                   .add("queue_done",
                        static_cast<std::uint64_t>(stats ? stats->done : 0))
                   .add("grid_trials", units * kXs * kSeeds)
                   .add("records", records.records)
                   .add("duplicates", records.duplicates)
                   .add("foreign", records.foreign)
                   .add("missing", records.missing)
                   .add("peak_rss_mb", peak_rss_mb)
                   .raw("workers", reports + "]")
                   .str()
            << "\n";
  return 0;
}

/// Build and dispatch facts for the run metadata.
int cmd_info() {
  std::cout << Json{}
                   .add("isa", std::string{sim::simd::isa_name(
                                   sim::simd::active_isa())})
                   .add("build_type", std::string{PERFBENCH_BUILD_TYPE})
                   .add("compiler", std::string{PERFBENCH_COMPILER})
                   .str()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench info|scale|replay|figs|fixture|fleet [--key value]...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args{argc, argv};
    if (cmd == "info") return cmd_info();
    if (cmd == "scale") return cmd_scale(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "figs") return cmd_figs(args);
    if (cmd == "fixture") return cmd_fixture(args);
    if (cmd == "fleet") return cmd_fleet(args);
    std::cerr << "perfbench: unknown command '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
