// Unit tests for the experiment driver layer: config hashing, the
// content-addressed trial cache, the on-disk trial store, the shared bench
// CLI, and the CSV sink.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/critical.h"
#include "exp/cli.h"
#include "exp/csv.h"
#include "exp/hash.h"
#include "exp/trial_cache.h"
#include "exp/trial_store.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "sim/sweep.h"
#include "sim/table.h"

namespace lotus {
namespace {

// --- ConfigHash ----------------------------------------------------------

TEST(ConfigHash, StableForEqualConfigs) {
  const gossip::GossipConfig a;
  const gossip::GossipConfig b;
  EXPECT_EQ(exp::config_hash(a), exp::config_hash(b));
  const gossip::AttackPlan plan;
  EXPECT_EQ(exp::config_hash(a, plan), exp::config_hash(b, plan));
}

TEST(ConfigHash, EveryConfigFieldPerturbsTheHash) {
  using Mutation = std::function<void(gossip::GossipConfig&)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"nodes", [](auto& c) { c.nodes += 1; }},
      {"updates_per_round", [](auto& c) { c.updates_per_round += 1; }},
      {"update_lifetime", [](auto& c) { c.update_lifetime += 1; }},
      {"copies_seeded", [](auto& c) { c.copies_seeded += 1; }},
      {"push_size", [](auto& c) { c.push_size += 1; }},
      {"recent_window", [](auto& c) { c.recent_window += 1; }},
      {"old_window", [](auto& c) { c.old_window += 1; }},
      {"unbalanced_exchange", [](auto& c) { c.unbalanced_exchange = true; }},
      {"obedient_fraction", [](auto& c) { c.obedient_fraction = 0.5; }},
      {"service_cap", [](auto& c) { c.service_cap = 40; }},
      {"trade_dump_on_response",
       [](auto& c) { c.trade_dump_on_response = true; }},
      {"reporting_enabled", [](auto& c) { c.reporting_enabled = true; }},
      {"service_limit", [](auto& c) { c.service_limit += 1; }},
      {"rounds", [](auto& c) { c.rounds += 1; }},
      {"warmup_rounds", [](auto& c) { c.warmup_rounds += 1; }},
      {"usability_threshold", [](auto& c) { c.usability_threshold = 0.9; }},
      {"seed", [](auto& c) { c.seed += 1; }},
      {"churn.join_rate", [](auto& c) { c.churn.join_rate = 0.1; }},
      {"churn.leave_rate", [](auto& c) { c.churn.leave_rate = 0.02; }},
      {"churn.crash_rate", [](auto& c) { c.churn.crash_rate = 0.02; }},
      {"churn.decay_rounds", [](auto& c) { c.churn.decay_rounds = 5; }},
      {"churn.slow_fraction", [](auto& c) { c.churn.slow_fraction = 0.3; }},
      {"churn.slow_cap", [](auto& c) { c.churn.slow_cap = 4; }},
  };
  const auto base = exp::config_hash(gossip::GossipConfig{});
  for (const auto& [name, mutate] : mutations) {
    gossip::GossipConfig config;
    mutate(config);
    EXPECT_NE(exp::config_hash(config), base)
        << "field '" << name << "' does not perturb the config hash";
  }
}

TEST(ConfigHash, EveryPlanFieldPerturbsTheHash) {
  using Mutation = std::function<void(gossip::AttackPlan&)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"kind", [](auto& p) { p.kind = gossip::AttackKind::kCrash; }},
      {"attacker_fraction", [](auto& p) { p.attacker_fraction = 0.1; }},
      {"satiate_fraction", [](auto& p) { p.satiate_fraction = 0.6; }},
      {"rotation_period", [](auto& p) { p.rotation_period = 5; }},
  };
  const gossip::GossipConfig config;
  const auto base = exp::config_hash(config, gossip::AttackPlan{});
  for (const auto& [name, mutate] : mutations) {
    gossip::AttackPlan plan;
    mutate(plan);
    EXPECT_NE(exp::config_hash(config, plan), base)
        << "field '" << name << "' does not perturb the plan hash";
  }
}

TEST(ConfigHash, FieldHasherSeparatesTypesOrderAndVersion) {
  const auto digest = [](auto&&... adds) {
    exp::FieldHasher h;
    (h.add(adds), ...);
    return h.digest();
  };
  // A bool true and a uint32 1 are different fields.
  EXPECT_NE(digest(true), digest(std::uint32_t{1}));
  // Field order matters.
  EXPECT_NE(digest(std::uint32_t{1}, std::uint32_t{2}),
            digest(std::uint32_t{2}, std::uint32_t{1}));
  // A trailing field changes the digest (field count is folded in).
  EXPECT_NE(digest(std::uint32_t{1}), digest(std::uint32_t{1}, false));
  // The schema version participates.
  exp::FieldHasher v1{1};
  exp::FieldHasher v2{2};
  v1.add(std::uint32_t{7});
  v2.add(std::uint32_t{7});
  EXPECT_NE(v1.digest(), v2.digest());
}

TEST(ConfigHash, NodeAndRoundOverridesSeparateTrials) {
  // --nodes/--rounds rescale the simulation; the trial store must never
  // serve a 250-node trial to a 10^5-node sweep (or vice versa).
  const gossip::GossipConfig base;
  gossip::GossipConfig scaled = base;
  scaled.nodes = 100000;
  EXPECT_NE(exp::config_hash(scaled), exp::config_hash(base));

  gossip::GossipConfig longer = base;
  longer.rounds = 1000;
  EXPECT_NE(exp::config_hash(longer), exp::config_hash(base));
  EXPECT_NE(exp::config_hash(longer), exp::config_hash(scaled));

  core::CriticalQuery small_query;
  core::CriticalQuery big_query;
  big_query.config.nodes = 100000;
  EXPECT_NE(exp::trial_space_hash(big_query), exp::trial_space_hash(small_query));
}

TEST(ConfigHash, TrialSpaceHashIgnoresSearchShape) {
  core::CriticalQuery query;
  const auto base = exp::trial_space_hash(query);

  // Search-shape knobs never affect a single trial's value: same hash.
  core::CriticalQuery wider = query;
  wider.lo = 0.1;
  wider.hi = 0.8;
  wider.tolerance = 0.001;
  wider.seeds = 11;
  sim::ThreadPool pool{2};
  wider.pool = &pool;
  EXPECT_EQ(exp::trial_space_hash(wider), base);

  // Value-affecting knobs do.
  core::CriticalQuery other_attack = query;
  other_attack.attack = gossip::AttackKind::kIdealLotus;
  EXPECT_NE(exp::trial_space_hash(other_attack), base);
  core::CriticalQuery other_satiate = query;
  other_satiate.satiate_fraction = 0.5;
  EXPECT_NE(exp::trial_space_hash(other_satiate), base);
  core::CriticalQuery other_config = query;
  other_config.config.push_size += 1;
  EXPECT_NE(exp::trial_space_hash(other_config), base);
}

// --- TrialCache ----------------------------------------------------------

// A trial with enough RNG state that any perturbation of seed derivation or
// caching would show in the doubles.
double noisy_trial(double x, std::uint64_t seed) {
  sim::Rng rng{seed};
  double acc = x;
  for (int i = 0; i < 32; ++i) acc += rng.next_double() * (1.0 - x);
  return acc;
}

TEST(TrialCache, CachedSweepsBitIdenticalToUncachedAtAnyWidth) {
  const auto xs = sim::linspace(0.0, 1.0, 9);
  const auto uncached = sim::sweep_stats("s", xs, 5, 2008, noisy_trial, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::TrialCache cache;
    auto scope = cache.scope(0x1234);
    const auto cached =
        sim::sweep_stats("s", xs, 5, 2008, noisy_trial, threads, &scope);
    ASSERT_EQ(cached.mean.ys.size(), uncached.mean.ys.size());
    for (std::size_t i = 0; i < uncached.mean.ys.size(); ++i) {
      // EXPECT_EQ, not NEAR: the contract is bit-identical output.
      EXPECT_EQ(cached.mean.ys[i], uncached.mean.ys[i]);
      EXPECT_EQ(cached.stddev.ys[i], uncached.stddev.ys[i]);
    }
    EXPECT_EQ(cache.hits(), 0u);  // first pass: everything is a miss
    EXPECT_EQ(cache.misses(), xs.size() * 5);
  }
}

TEST(TrialCache, SecondSweepRunsNoTrials) {
  std::atomic<int> runs{0};
  const auto counting = [&](double x, std::uint64_t seed) {
    runs.fetch_add(1);
    return noisy_trial(x, seed);
  };
  const auto xs = sim::linspace(0.0, 1.0, 7);
  exp::TrialCache cache;
  auto scope = cache.scope(1);
  const auto first = sim::sweep_stats("s", xs, 3, 9, counting, 4, &scope);
  EXPECT_EQ(runs.load(), static_cast<int>(xs.size() * 3));
  const auto second = sim::sweep_stats("s", xs, 3, 9, counting, 4, &scope);
  EXPECT_EQ(runs.load(), static_cast<int>(xs.size() * 3));  // all hits
  EXPECT_EQ(cache.hits(), xs.size() * 3);
  for (std::size_t i = 0; i < first.mean.ys.size(); ++i) {
    EXPECT_EQ(first.mean.ys[i], second.mean.ys[i]);
  }
}

TEST(TrialCache, CriticalPointReusesSweepTrials) {
  // The fig1 shape: sweep a curve over [lo, hi], then bisect the same trial
  // space. The bisection's bracket probes must be served from the cache.
  const double lo = 0.0;
  const double hi = 1.0;
  const std::size_t seeds = 3;
  const auto xs = sim::linspace(lo, hi, 9);
  const auto trial = [](double x, std::uint64_t seed) {
    sim::Rng rng{seed};
    return 1.0 - x + 0.01 * rng.next_double();
  };

  const double uncached =
      sim::critical_point(lo, hi, 1e-3, 0.5, seeds, 42, trial, 1);

  exp::TrialCache cache;
  auto scope = cache.scope(7);
  (void)sim::sweep_mean("s", xs, seeds, 42, trial, 2, &scope);
  EXPECT_EQ(cache.hits(), 0u);
  const double cached =
      sim::critical_point(lo, hi, 1e-3, 0.5, seeds, 42, trial, 2, &scope);
  EXPECT_EQ(cached, uncached);
  // The lo and hi probes (seeds trials each) were already in the cache.
  EXPECT_GE(cache.hits(), 2 * seeds);
}

// The pitfall counters cannot show: a warm bisection whose speculative
// batches skipped only the known trials would still re-run the off-path
// points the cold run discarded, with every lookup a hit. A known batch root
// must step unspeculated, so the rerun runs nothing. Width 4 speculates two
// levels per batch at one seed, width 8 three.
TEST(TrialCache, WarmCriticalPointRunsNoTrials) {
  std::atomic<int> runs{0};
  const auto counting = [&](double x, std::uint64_t seed) {
    runs.fetch_add(1);
    sim::Rng rng{seed};
    return 1.0 - x + 0.01 * rng.next_double();
  };

  exp::TrialCache serial;
  auto serial_scope = serial.scope(3);
  const double reference =
      sim::critical_point(0.0, 1.0, 1e-3, 0.5, 1, 42, counting, 1,
                          &serial_scope);

  for (const std::size_t width : {4u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    exp::TrialCache cache;
    auto scope = cache.scope(3);
    const double cold = sim::critical_point(0.0, 1.0, 1e-3, 0.5, 1, 42,
                                            counting, width, &scope);
    EXPECT_EQ(cold, reference);
    // Speculation stays outside the cache: it counts what width 1 does.
    EXPECT_EQ(cache.hits(), serial.hits());
    EXPECT_EQ(cache.misses(), serial.misses());
    EXPECT_EQ(cache.size(), serial.size());

    runs = 0;
    const double warm = sim::critical_point(0.0, 1.0, 1e-3, 0.5, 1, 42,
                                            counting, width, &scope);
    EXPECT_EQ(warm, reference);
    EXPECT_EQ(runs.load(), 0);
  }
}

// contains() sees records the attached store holds on disk, so a warm
// bisection in a fresh process runs no trials either.
TEST(TrialCache, ContainsSeesDiskRecordsAndCountsNothing) {
  const std::string dir = testing::TempDir() + "exp_store_contains";
  std::filesystem::remove_all(dir);
  std::atomic<int> runs{0};
  const auto counting = [&](double x, std::uint64_t seed) {
    runs.fetch_add(1);
    sim::Rng rng{seed};
    return 1.0 - x + 0.01 * rng.next_double();
  };
  double cold = 0.0;
  {
    exp::TrialCache cache;
    exp::TrialStore store{dir, 4};
    cache.attach_store(store);
    auto scope = cache.scope(5);
    cold = sim::critical_point(0.0, 1.0, 1e-3, 0.5, 1, 42, counting, 8,
                               &scope);
    store.flush();
  }

  exp::TrialCache cache;
  exp::TrialStore store{dir, 4};
  cache.attach_store(store);
  EXPECT_TRUE(cache.contains(5, 0.0, sim::derive_seed(42, 0)));
  EXPECT_FALSE(cache.contains(5, 0.0, sim::derive_seed(42, 1)));
  EXPECT_FALSE(cache.contains(6, 0.0, sim::derive_seed(42, 0)));
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);

  runs = 0;
  auto scope = cache.scope(5);
  EXPECT_EQ(sim::critical_point(0.0, 1.0, 1e-3, 0.5, 1, 42, counting, 8,
                                &scope),
            cold);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.disk_hits(), cache.hits());
}

// Concurrent sweeps that want the same trial run it once: the first lookup
// claims the key, the rest wait for its value and count as hits.
TEST(TrialCache, ConcurrentLookupsOfOneKeyRunOneTrial) {
  const std::string dir = testing::TempDir() + "exp_store_claims";
  std::filesystem::remove_all(dir);
  exp::TrialCache cache;
  exp::TrialStore store{dir, 4};
  cache.attach_store(store);
  auto scope = cache.scope(11);
  std::atomic<int> runs{0};
  const auto slow_trial = [&](double x, std::uint64_t seed) {
    runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return noisy_trial(x, seed);
  };
  constexpr int kThreads = 8;
  std::vector<double> values(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      values[t] = sim::run_memoized(&scope, 0.25, 7, slow_trial);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(store.appended(), 1u);
  for (const double value : values) EXPECT_EQ(value, noisy_trial(0.25, 7));
}

// A claimant whose trial throws releases the key: a waiting lookup claims
// it in turn instead of hanging.
TEST(TrialCache, ThrowingClaimantReleasesTheKey) {
  exp::TrialCache cache;
  auto scope = cache.scope(12);
  std::atomic<int> runs{0};
  const auto first_throws = [&](double x, std::uint64_t seed) {
    const int run = runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (run == 0) throw std::runtime_error("trial failed");
    return noisy_trial(x, seed);
  };
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        (void)sim::run_memoized(&scope, 0.5, 3, first_throws);
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 2));
  EXPECT_TRUE(cache.contains(12, 0.5, 3));
}

TEST(TrialCache, ScopesWithDifferentHashesDoNotAlias) {
  exp::TrialCache cache;
  auto a = cache.scope(1);
  auto b = cache.scope(2);
  a.store(0.5, 3, 1.25);
  double value = 0.0;
  EXPECT_FALSE(b.lookup(0.5, 3, value));
  EXPECT_TRUE(a.lookup(0.5, 3, value));
  EXPECT_EQ(value, 1.25);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(TrialCache, ScopedMemoBindsAndAlwaysResetsTheSlot) {
  exp::TrialCache cache;
  sim::TrialMemo* slot = nullptr;
  {
    exp::ScopedMemo memo{cache, 9, slot, true};
    ASSERT_NE(slot, nullptr);
    slot->store(0.25, 1, 2.5);
    double value = 0.0;
    EXPECT_TRUE(slot->lookup(0.25, 1, value));
    EXPECT_EQ(value, 2.5);
  }
  EXPECT_EQ(slot, nullptr);
  {
    exp::ScopedMemo memo{cache, 9, slot, /*enabled=*/false};
    EXPECT_EQ(slot, nullptr);  // disabled: the sweep runs uncached
  }
  EXPECT_EQ(slot, nullptr);
}

// --- TrialStore (store-v2 sharded engine) --------------------------------

/// Fresh store directory for one test: TempDir persists across runs, so
/// wipe it.
std::string fresh_store_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "exp_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Overwrites `size` bytes at `offset` in a store file.
void patch_file(const std::string& path, std::streamoff offset,
                const void* bytes, std::size_t size) {
  std::fstream f{path, std::ios::binary | std::ios::in | std::ios::out};
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  ASSERT_TRUE(f.good());
}

constexpr std::uint64_t kTestShards = 4;

const std::vector<exp::TrialStore::Record> kSampleRecords = {
    {0x1111, std::bit_cast<std::uint64_t>(0.25), 7, 0.125},
    {0x1111, std::bit_cast<std::uint64_t>(0.5), 8, -3.75},
    // Denormal-ish and negative-zero values must survive by bit pattern.
    {0x2222, std::bit_cast<std::uint64_t>(-0.0), 9, 5e-324},
};

void write_sample_store(const std::string& dir) {
  exp::TrialStore store{dir, kTestShards};
  ASSERT_EQ(store.open_status(), exp::TrialStore::LoadStatus::kFresh);
  for (const auto& record : kSampleRecords) store.append(record);
  store.flush();
}

/// The shard file a key routes to under kTestShards.
std::string shard_file_for(const std::string& dir, std::uint64_t key_hash) {
  return exp::shard_path(dir, static_cast<std::size_t>(key_hash % kTestShards));
}

/// All committed records across every shard, in shard order.
std::vector<exp::TrialStore::Record> load_all_records(
    const std::string& dir, std::uint64_t shards = kTestShards) {
  std::vector<exp::TrialStore::Record> all;
  for (std::uint64_t i = 0; i < shards; ++i) {
    std::vector<exp::TrialStore::Record> one;
    const exp::TrialStore::Shard shard{exp::shard_path(dir, i)};
    (void)shard.load(one);
    all.insert(all.end(), one.begin(), one.end());
  }
  return all;
}

TEST(TrialStore, RoundTripsRecordsBitExactlyAcrossShards) {
  const auto dir = fresh_store_dir("roundtrip");
  write_sample_store(dir);
  exp::TrialStore reloaded{dir, kTestShards};
  EXPECT_EQ(reloaded.open_status(), exp::TrialStore::LoadStatus::kLoaded);
  EXPECT_EQ(reloaded.shard_count(), kTestShards);
  for (const auto& expected : kSampleRecords) {
    const auto& records = reloaded.records_for(expected.key_hash);
    bool found = false;
    for (const auto& record : records) {
      if (record == expected) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(record.value),
                  std::bit_cast<std::uint64_t>(expected.value));
        found = true;
      }
    }
    EXPECT_TRUE(found) << "record with key " << expected.key_hash
                       << " missing after reload";
  }
  EXPECT_EQ(load_all_records(dir).size(), kSampleRecords.size());
}

TEST(TrialStore, ShardingRoutesByKeyHashModN) {
  const auto dir = fresh_store_dir("routing");
  write_sample_store(dir);
  // 0x1111 % 4 == 1, 0x2222 % 4 == 2: exactly those shard files exist, the
  // untouched ones were never created.
  EXPECT_TRUE(std::filesystem::exists(exp::shard_path(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(exp::shard_path(dir, 2)));
  EXPECT_FALSE(std::filesystem::exists(exp::shard_path(dir, 0)));
  EXPECT_FALSE(std::filesystem::exists(exp::shard_path(dir, 3)));

  std::vector<exp::TrialStore::Record> shard1;
  ASSERT_EQ(exp::TrialStore::Shard{exp::shard_path(dir, 1)}.load(shard1),
            exp::TrialStore::LoadStatus::kLoaded);
  EXPECT_EQ(shard1.size(), 2u);  // both 0x1111 records, in append order
  EXPECT_EQ(shard1[0], kSampleRecords[0]);
  EXPECT_EQ(shard1[1], kSampleRecords[1]);
}

TEST(TrialStore, AppendsAccumulateAcrossSessions) {
  const auto dir = fresh_store_dir("accumulate");
  write_sample_store(dir);
  {
    exp::TrialStore store{dir, kTestShards};
    store.append({0x3333, std::bit_cast<std::uint64_t>(0.75), 10, 2.5});
    // flush via destructor
  }
  exp::TrialStore reloaded{dir, kTestShards};
  const auto& records = reloaded.records_for(0x3333);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key_hash, 0x3333u);
  EXPECT_EQ(records[0].value, 2.5);
  EXPECT_EQ(load_all_records(dir).size(), kSampleRecords.size() + 1);
}

TEST(TrialStore, ManifestShardCountWinsOverTheFlag) {
  const auto dir = fresh_store_dir("manifest_wins");
  write_sample_store(dir);  // creates the manifest with kTestShards
  exp::TrialStore reopened{dir, 16};
  EXPECT_EQ(reopened.shard_count(), kTestShards);
  EXPECT_EQ(reopened.open_status(), exp::TrialStore::LoadStatus::kLoaded);
  // And the records still route correctly under the manifest's N.
  EXPECT_EQ(reopened.records_for(0x1111).size(), 2u);
}

TEST(TrialStore, CorruptManifestRestartsTheWholeStoreCold) {
  const auto dir = fresh_store_dir("bad_manifest");
  write_sample_store(dir);
  const std::uint64_t junk = 0xdeadbeefULL;
  patch_file(exp::manifest_path(dir), 2 * sizeof(std::uint64_t), &junk,
             sizeof(junk));
  exp::TrialStore store{dir, kTestShards};
  EXPECT_EQ(store.open_status(),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
  EXPECT_TRUE(store.enabled());  // discarded but usable: restarted cold
  // The routing was unknowable, so the old shard files are gone.
  EXPECT_FALSE(std::filesystem::exists(exp::shard_path(dir, 1)));
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_NE(store.summary().find("corrupt manifest"), std::string::npos);

  // The rebuilt manifest is valid: a fresh open loads it.
  store.append(kSampleRecords[0]);
  store.flush();
  exp::TrialStore after{dir, kTestShards};
  EXPECT_EQ(after.open_status(), exp::TrialStore::LoadStatus::kLoaded);
  EXPECT_EQ(after.records_for(0x1111).size(), 1u);
}

TEST(TrialStore, RejectsShardVersionMismatch) {
  const auto dir = fresh_store_dir("version");
  write_sample_store(dir);
  const std::uint64_t future = exp::TrialStore::kFormatVersion + 1;
  patch_file(shard_file_for(dir, 0x1111), sizeof(std::uint64_t), &future,
             sizeof(future));
  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedVersion);
  EXPECT_TRUE(store.enabled());
  // Only the bad shard went cold; 0x2222's shard still serves.
  EXPECT_EQ(store.records_for(0x2222).size(), 1u);
  EXPECT_NE(store.summary().find("incompatible"), std::string::npos);
}

TEST(TrialStore, RejectsShardWithForeignMagic) {
  const auto dir = fresh_store_dir("magic");
  write_sample_store(dir);
  const std::uint64_t junk = 0xdeadbeefULL;
  patch_file(shard_file_for(dir, 0x1111), 0, &junk, sizeof(junk));
  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
}

TEST(TrialStore, DiscardsShardTruncatedMidRecordThenSelfHeals) {
  const auto dir = fresh_store_dir("truncated");
  write_sample_store(dir);
  // Cut the shard's last record in half: the header now promises more bytes
  // than the file holds, so nothing in it can be trusted.
  const auto path = shard_file_for(dir, 0x1111);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - exp::TrialStore::kRecordBytes / 2);
  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
  EXPECT_TRUE(store.enabled());

  // The next append resets the shard under its lock: a *working* cold
  // shard, and new appends round-trip.
  store.append(kSampleRecords[0]);
  store.flush();
  exp::TrialStore after{dir, kTestShards};
  const auto& records = after.records_for(0x1111);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], kSampleRecords[0]);
}

TEST(TrialStore, DiscardsHugeCorruptRecordCountWithoutAllocating) {
  const auto dir = fresh_store_dir("huge_count");
  write_sample_store(dir);
  // A corrupt count whose byte size wraps past 2^64 must fail the
  // truncation check, not bypass it and reserve() terabytes.
  const std::uint64_t huge = std::uint64_t{1} << 59;
  patch_file(shard_file_for(dir, 0x1111), 2 * sizeof(std::uint64_t), &huge,
             sizeof(huge));
  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
}

TEST(TrialStore, DiscardsShardChecksumMismatch) {
  const auto dir = fresh_store_dir("checksum");
  write_sample_store(dir);
  // Flip one byte inside the second record's value word (shard 1 holds both
  // 0x1111 records).
  const std::uint8_t junk = 0xa5;
  patch_file(shard_file_for(dir, 0x1111),
             static_cast<std::streamoff>(exp::TrialStore::kHeaderBytes +
                                         exp::TrialStore::kRecordBytes + 27),
             &junk, 1);
  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
}

TEST(TrialStore, ChecksumCorruptShardIsHealedByTheNextFlush) {
  // The header of a shard with a flipped record byte still looks plausible,
  // so the plain append fast-path would chain new records onto a prefix no
  // load will ever accept — the shard would grow forever while serving
  // nothing. A store whose load saw the corruption must reset the shard
  // when it flushes.
  const auto dir = fresh_store_dir("heal");
  write_sample_store(dir);
  const std::uint8_t junk = 0xa5;
  patch_file(shard_file_for(dir, 0x1111),
             static_cast<std::streamoff>(exp::TrialStore::kHeaderBytes + 5),
             &junk, 1);

  exp::TrialStore store{dir, kTestShards};
  EXPECT_TRUE(store.records_for(0x1111).empty());
  EXPECT_EQ(store.shard_status(1),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
  const auto sick_bytes =
      std::filesystem::file_size(shard_file_for(dir, 0x1111));
  store.append({0x1111, std::bit_cast<std::uint64_t>(0.9), 12, 6.5});
  store.flush();
  // The heal is recorded and the shard is back on the cheap append path.
  EXPECT_EQ(store.shard_status(1), exp::TrialStore::LoadStatus::kLoaded);
  EXPECT_NE(store.summary().find("reset"), std::string::npos);

  // The shard was reset, not extended: smaller than the corrupt file and
  // fully loadable again.
  EXPECT_LT(std::filesystem::file_size(shard_file_for(dir, 0x1111)),
            sick_bytes);
  exp::TrialStore after{dir, kTestShards};
  const auto& records = after.records_for(0x1111);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seed, 12u);
  EXPECT_EQ(after.shard_status(1), exp::TrialStore::LoadStatus::kLoaded);
}

TEST(TrialStore, HealNeverWipesAShardAnotherProcessRepaired) {
  // Between our (corrupt) load and our flush, another writer may have reset
  // and refilled the shard; the heal re-validates under the lock and must
  // append instead of wiping their records.
  const auto dir = fresh_store_dir("heal_race");
  write_sample_store(dir);
  const std::uint8_t junk = 0xa5;
  patch_file(shard_file_for(dir, 0x1111),
             static_cast<std::streamoff>(exp::TrialStore::kHeaderBytes + 5),
             &junk, 1);

  exp::TrialStore observer{dir, kTestShards};
  EXPECT_TRUE(observer.records_for(0x1111).empty());  // sees the corruption

  {  // the "other process": heals the shard first
    exp::TrialStore repairer{dir, kTestShards};
    EXPECT_TRUE(repairer.records_for(0x1111).empty());
    repairer.append({0x1111, std::bit_cast<std::uint64_t>(0.8), 20, 1.0});
    repairer.flush();
  }

  observer.append({0x1111, std::bit_cast<std::uint64_t>(0.9), 21, 2.0});
  observer.flush();

  exp::TrialStore after{dir, kTestShards};
  const auto& records = after.records_for(0x1111);
  ASSERT_EQ(records.size(), 2u);  // the repairer's record survived
  EXPECT_EQ(records[0].seed, 20u);
  EXPECT_EQ(records[1].seed, 21u);
}

TEST(TrialStore, TakeRecordsTransfersOwnershipAndReloadsOnDemand) {
  const auto dir = fresh_store_dir("take");
  write_sample_store(dir);
  exp::TrialStore store{dir, kTestShards};
  const auto taken = store.take_records_for(0x1111);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(store.loaded(), 2u);  // still counted as loaded
  EXPECT_TRUE(store.shard_loaded(1));
  // A later reader is served by a fresh disk read, not the moved-out husk.
  EXPECT_EQ(store.records_for(0x1111).size(), 2u);
}

TEST(TrialStore, RecoversCommittedPrefixAfterTornAppend) {
  const auto dir = fresh_store_dir("torn");
  write_sample_store(dir);
  // A crash between writing records and updating the header leaves valid
  // committed records followed by garbage the header does not cover.
  {
    std::ofstream tail{shard_file_for(dir, 0x1111),
                       std::ios::binary | std::ios::app};
    tail.write("torn-append-garbage", 19);
  }
  exp::TrialStore store{dir, kTestShards};
  ASSERT_EQ(store.records_for(0x1111).size(), 2u);
  EXPECT_EQ(store.shard_status(1), exp::TrialStore::LoadStatus::kLoaded);

  // The next append overwrites the torn tail and the shard is fully valid.
  store.append({0x1111, std::bit_cast<std::uint64_t>(0.1), 11, 1.5});
  store.flush();
  exp::TrialStore after{dir, kTestShards};
  EXPECT_EQ(after.records_for(0x1111).size(), 3u);
  EXPECT_EQ(after.shard_status(1), exp::TrialStore::LoadStatus::kLoaded);
}

TEST(TrialStore, InterleavedWritersUnionInsteadOfLastFlushWins) {
  // The documented v1 data-loss bug: two open handles on one store, each
  // flushing its own appends. v1 replayed each handle's in-memory prefix, so
  // the last flush clobbered the other's records; v2 re-reads the committed
  // header under the shard flock and extends it.
  const auto dir = fresh_store_dir("interleaved");
  exp::TrialStore a{dir, kTestShards};
  exp::TrialStore b{dir, kTestShards};
  a.append({0x1111, std::bit_cast<std::uint64_t>(0.1), 1, 1.0});
  a.flush();
  b.append({0x1111, std::bit_cast<std::uint64_t>(0.2), 2, 2.0});
  b.flush();
  a.append({0x1111, std::bit_cast<std::uint64_t>(0.3), 3, 3.0});
  a.flush();

  exp::TrialStore reloaded{dir, kTestShards};
  EXPECT_EQ(reloaded.records_for(0x1111).size(), 3u);
}

#ifdef __unix__
TEST(TrialStore, TwoWriterProcessesLoseNoCommittedRecords) {
  // The fleet-sweep regime the sharded engine exists for: two *processes*
  // appending to one cache directory, interleaving flushes. Every committed
  // record from both must survive.
  const auto dir = fresh_store_dir("two_procs");
  constexpr int kPerWriter = 120;
  const auto writer = [&dir](std::uint64_t tag) {
    exp::TrialStore store{dir, kTestShards};
    if (!store.enabled()) _exit(3);
    for (int i = 0; i < kPerWriter; ++i) {
      // Keys cycle through every shard; `tag` (the seed field) tells the
      // two writers' records apart.
      store.append({static_cast<std::uint64_t>(i),
                    std::bit_cast<std::uint64_t>(static_cast<double>(i)), tag,
                    static_cast<double>(i) + static_cast<double>(tag)});
      if (i % 7 == 0) store.flush();
    }
    store.flush();
    _exit(store.enabled() ? 0 : 4);
  };

  const pid_t first = fork();
  ASSERT_GE(first, 0);
  if (first == 0) writer(1000);
  const pid_t second = fork();
  ASSERT_GE(second, 0);
  if (second == 0) writer(2000);

  int status = 0;
  ASSERT_EQ(waitpid(first, &status, 0), first);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "writer 1 exit status " << status;
  ASSERT_EQ(waitpid(second, &status, 0), second);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "writer 2 exit status " << status;

  const auto all = load_all_records(dir);
  EXPECT_EQ(all.size(), 2u * kPerWriter);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& record : all) seen.insert({record.key_hash, record.seed});
  for (const std::uint64_t tag : {1000u, 2000u}) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(seen.contains({static_cast<std::uint64_t>(i), tag}))
          << "record (" << i << ", " << tag << ") was lost";
    }
  }
}
#endif  // __unix__

TEST(TrialStore, AppendDedupElidesRecordsAnotherHandleAlreadyCommitted) {
  const auto dir = fresh_store_dir("dedup_handles");
  const exp::TrialStore::Record record{
      0x1111, std::bit_cast<std::uint64_t>(0.25), 7, 0.125};
  {
    exp::TrialStore first{dir, kTestShards};
    first.append(record);
    first.flush();
    EXPECT_EQ(first.dedup_dropped(), 0u);
  }
  {
    // The default append path probes the committed prefix under the shard
    // flock, so a second handle re-appending the same trial is a no-op —
    // the fix for the duplicate-append gap concurrent writers used to hit.
    exp::TrialStore second{dir, kTestShards};
    second.append(record);
    second.append(record);  // in-batch duplicate folds into the same probe
    second.flush();
    ASSERT_TRUE(second.enabled());
    EXPECT_EQ(second.dedup_dropped(), 2u);
  }
  exp::TrialStore reloaded{dir, kTestShards};
  const auto& records = reloaded.records_for(0x1111);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], record);
}

#ifdef __unix__
TEST(TrialStore, RacingAppendersCommitEachRecordExactlyOnce) {
  // The fleet regression test for the duplicate-append gap: two processes
  // flush the SAME batch of records in interleaved small flushes. The
  // bloom-probe-before-spill under the shard's exclusive flock must commit
  // each (key, x, seed) exactly once no matter how the flushes interleave.
  const auto dir = fresh_store_dir("dedup_race");
  constexpr int kRecords = 64;
  {
    exp::TrialStore init{dir, kTestShards};
    ASSERT_TRUE(init.enabled());
  }
  const auto racer = [&dir]() {
    exp::TrialStore store{dir, kTestShards};
    if (!store.enabled()) _exit(3);
    for (int i = 0; i < kRecords; ++i) {
      store.append({static_cast<std::uint64_t>(i % 7),
                    std::bit_cast<std::uint64_t>(static_cast<double>(i)),
                    4242, 0.5 * static_cast<double>(i)});
      if (i % 4 == 0) store.flush();
    }
    store.flush();
    _exit(store.enabled() ? 0 : 4);
  };
  pid_t pids[2] = {-1, -1};
  for (auto& pid : pids) {
    pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) racer();
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "racer exit status " << status;
  }
  const auto all = load_all_records(dir);
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kRecords));
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& record : all) {
    EXPECT_TRUE(seen.insert({record.key_hash, record.x_bits}).second)
        << "record (" << record.key_hash << ", " << record.x_bits
        << ") was committed twice";
  }
}
#endif  // __unix__

TEST(TrialStore, CacheAppendsOnlyFreshTrialsToTheStore) {
  const auto dir = fresh_store_dir("cache_appends");
  {
    exp::TrialStore store{dir, kTestShards};
    exp::TrialCache cache;
    cache.attach_store(store);
    cache.store(1, 0.5, 7, 2.5);
    cache.store(1, 0.5, 7, 2.5);  // duplicate: must not be re-appended
    cache.store(2, 0.5, 7, 3.5);
    EXPECT_EQ(store.appended(), 2u);
  }
  exp::TrialStore reloaded{dir, kTestShards};
  exp::TrialCache warm;
  warm.attach_store(reloaded);
  // Entries already on disk are merged before any append decision, so
  // re-storing them appends nothing — whether the shard was first touched
  // by a lookup (key 1) or by the store() itself (key 2).
  double value = 0.0;
  EXPECT_TRUE(warm.lookup(1, 0.5, 7, value));
  EXPECT_EQ(value, 2.5);
  warm.store(1, 0.5, 7, 2.5);
  warm.store(2, 0.5, 7, 3.5);
  EXPECT_EQ(reloaded.appended(), 0u);
  EXPECT_EQ(warm.size(), 2u);
}

TEST(TrialStore, CacheLoadsOnlyTheShardsItsScopesTouch) {
  const auto dir = fresh_store_dir("lazy");
  write_sample_store(dir);  // shard 1 (0x1111 x2) and shard 2 (0x2222 x1)

  exp::TrialStore store{dir, kTestShards};
  exp::TrialCache cache;
  cache.attach_store(store);
  EXPECT_EQ(store.loaded(), 0u);  // attach reads nothing

  double value = 0.0;
  EXPECT_TRUE(cache.lookup(0x1111, 0.25, 7, value));
  EXPECT_EQ(value, 0.125);
  EXPECT_EQ(store.loaded(), 2u);  // only shard 1 was read
  EXPECT_TRUE(store.shard_loaded(1));
  EXPECT_FALSE(store.shard_loaded(2));

  EXPECT_TRUE(cache.lookup(0x2222, -0.0, 9, value));
  EXPECT_EQ(store.loaded(), 3u);
  EXPECT_TRUE(store.shard_loaded(2));
  EXPECT_EQ(cache.disk_hits(), 2u);
}

// The warm/cold property the whole subsystem exists for: a sweep run cold,
// then rerun warm from disk in a fresh process (here: a fresh TrialCache),
// must produce bit-identical values without running a single trial.
TEST(TrialStore, WarmSweepIsBitIdenticalAndRunsNoTrials) {
  const auto dir = fresh_store_dir("warm_cold");
  const auto xs = sim::linspace(0.0, 1.0, 9);
  const std::size_t seeds = 4;
  std::atomic<int> runs{0};
  const auto counting = [&](double x, std::uint64_t seed) {
    runs.fetch_add(1);
    return noisy_trial(x, seed);
  };

  sim::SweepResult cold;
  {
    exp::TrialCache cache;
    exp::TrialStore store{dir, kTestShards};
    cache.attach_store(store);
    auto scope = cache.scope(0xf1f1);
    cold = sim::sweep_stats("s", xs, seeds, 2008, counting, 4, &scope);
    EXPECT_EQ(cache.disk_hits(), 0u);
    store.flush();
  }
  const int cold_runs = runs.load();
  EXPECT_EQ(cold_runs, static_cast<int>(xs.size() * seeds));

  exp::TrialCache cache;
  exp::TrialStore store{dir, kTestShards};
  EXPECT_EQ(store.open_status(), exp::TrialStore::LoadStatus::kLoaded);
  cache.attach_store(store);
  auto scope = cache.scope(0xf1f1);
  const auto warm = sim::sweep_stats("s", xs, seeds, 2008, counting, 4, &scope);

  EXPECT_EQ(runs.load(), cold_runs);  // zero trials run warm
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.hits(), xs.size() * seeds);
  EXPECT_EQ(cache.disk_hits(), xs.size() * seeds);  // every hit came from disk
  EXPECT_EQ(store.loaded(), xs.size() * seeds);
  // One trial space -> one shard: the others were never read.
  std::size_t shards_loaded = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    if (store.shard_loaded(i)) ++shards_loaded;
  }
  EXPECT_EQ(shards_loaded, 1u);
  ASSERT_EQ(warm.mean.ys.size(), cold.mean.ys.size());
  for (std::size_t i = 0; i < cold.mean.ys.size(); ++i) {
    // EXPECT_EQ, not NEAR: warm output must be byte-identical.
    EXPECT_EQ(warm.mean.ys[i], cold.mean.ys[i]);
    EXPECT_EQ(warm.stddev.ys[i], cold.stddev.ys[i]);
  }
}

TEST(TrialStore, CorruptShardFallsBackToAColdCacheRun) {
  const auto dir = fresh_store_dir("corrupt_fallback");
  const auto xs = sim::linspace(0.0, 1.0, 5);
  const std::uint64_t config_hash = 1;
  {
    exp::TrialCache cache;
    exp::TrialStore store{dir, kTestShards};
    cache.attach_store(store);
    auto scope = cache.scope(config_hash);
    (void)sim::sweep_mean("s", xs, 2, 9, noisy_trial, 2, &scope);
  }
  const auto path = shard_file_for(dir, config_hash);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);

  exp::TrialCache cache;
  exp::TrialStore store{dir, kTestShards};
  cache.attach_store(store);
  auto scope = cache.scope(config_hash);
  const auto rerun = sim::sweep_mean("s", xs, 2, 9, noisy_trial, 2, &scope);
  EXPECT_EQ(store.shard_status(static_cast<std::size_t>(
                store.shard_of(config_hash))),
            exp::TrialStore::LoadStatus::kDiscardedCorrupt);
  EXPECT_EQ(cache.hits(), 0u);  // nothing poisoned, nothing served
  EXPECT_EQ(cache.misses(), xs.size() * 2);
  const auto reference = sim::sweep_mean("r", xs, 2, 9, noisy_trial, 1);
  for (std::size_t i = 0; i < reference.ys.size(); ++i) {
    EXPECT_EQ(rerun.ys[i], reference.ys[i]);
  }
}

// --- Sidecar index + mmap read path --------------------------------------

TEST(TrialStore, FlushWritesAValidSidecarIndex) {
  const auto dir = fresh_store_dir("idx_flush");
  write_sample_store(dir);
  // Shard 1 (both 0x1111 records) got an index bound to its prefix.
  const exp::TrialStore::Shard shard{shard_file_for(dir, 0x1111)};
  bool corrupt = true;
  const auto index = shard.read_index(&corrupt);
  ASSERT_TRUE(index.has_value());
  EXPECT_FALSE(corrupt);
  EXPECT_EQ(index->covered_count, 2u);
  EXPECT_TRUE(index->may_contain(0x1111));
  ASSERT_EQ(index->runs_for(0x1111).size(), 1u);
  EXPECT_EQ(index->runs_for(0x1111)[0],
            (exp::TrialStore::Shard::IndexRun{0x1111, 0, 2}));
  EXPECT_TRUE(index->runs_for(0x9999).empty());
}

TEST(TrialStore, MappedShardDecodesRecordsInPlace) {
  const auto dir = fresh_store_dir("idx_map");
  write_sample_store(dir);
  const exp::TrialStore::Shard shard{shard_file_for(dir, 0x1111)};
  exp::TrialStore::Shard::Mapping mapping;
  ASSERT_EQ(shard.map(mapping), exp::TrialStore::LoadStatus::kLoaded);
  EXPECT_TRUE(mapping.usable());
  EXPECT_TRUE(mapping.has_index());
  ASSERT_EQ(mapping.count(), 2u);
  EXPECT_EQ(mapping.record(0), kSampleRecords[0]);
  EXPECT_EQ(mapping.record(1), kSampleRecords[1]);
  EXPECT_EQ(mapping.uncovered(), 0u);
  EXPECT_TRUE(mapping.may_contain(0x1111));

  std::vector<exp::TrialStore::Record> out;
  EXPECT_EQ(mapping.collect(0x1111, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], kSampleRecords[0]);
  EXPECT_EQ(out[1], kSampleRecords[1]);
  out.clear();
  EXPECT_EQ(mapping.collect(0x9999, out), 0u);  // negative: bloom probe
  EXPECT_TRUE(out.empty());
}

TEST(TrialStore, IndexedLookupServesOnlyTheRequestedTrialSpace) {
  const auto dir = fresh_store_dir("idx_lookup");
  write_sample_store(dir);
  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  ASSERT_TRUE(store.indexed_records_for(0x1111, out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(store.loaded(), 2u);
  EXPECT_TRUE(store.shard_loaded(1));
  EXPECT_FALSE(store.shard_loaded(2));
  // A key the store never saw is one bloom probe, not a scan.
  std::vector<exp::TrialStore::Record> none;
  // 0x5555 % 4 == 1: routes to the mapped shard but holds no records.
  ASSERT_TRUE(store.indexed_records_for(0x5555, none));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(store.loaded(), 2u);
  EXPECT_EQ(store.index_fallbacks(), 0u);
}

// The property the index must never break: for every key hash (present or
// absent), the indexed lookup returns exactly the records a sequential
// scan finds, in the same order.
TEST(TrialStore, IndexedAndScanLookupsReturnIdenticalTrials) {
  const auto dir = fresh_store_dir("idx_property");
  sim::Rng rng{2008};
  std::vector<exp::TrialStore::Record> written;
  {
    exp::TrialStore store{dir, kTestShards};
    // Interleaved keys across several flushes, so shards hold multiple
    // runs per key and the incremental index extension is exercised.
    for (int flush = 0; flush < 4; ++flush) {
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t key = rng.next_below(13);  // all 4 shards
        const exp::TrialStore::Record record{
            key, std::bit_cast<std::uint64_t>(rng.next_double()),
            rng.next_below(1000), rng.next_double()};
        store.append(record);
        written.push_back(record);
      }
      store.flush();
    }
  }

  exp::TrialStore indexed{dir, kTestShards};
  exp::TrialStore scanned{dir, kTestShards};
  for (std::uint64_t key = 0; key < 20; ++key) {  // 13..19 are absent
    std::vector<exp::TrialStore::Record> via_index;
    ASSERT_TRUE(indexed.indexed_records_for(key, via_index))
        << "no usable index for key " << key;
    std::vector<exp::TrialStore::Record> via_scan;
    for (const auto& record : scanned.records_for(key)) {
      if (record.key_hash == key) via_scan.push_back(record);
    }
    EXPECT_EQ(via_index, via_scan) << "key " << key;
    if (key >= 13) {
      EXPECT_TRUE(via_index.empty());
    }
  }
  EXPECT_EQ(indexed.index_fallbacks(), 0u);
}

TEST(TrialStore, MissingIndexFallsBackToSequentialScan) {
  const auto dir = fresh_store_dir("idx_missing");
  write_sample_store(dir);
  std::filesystem::remove(
      exp::TrialStore::Shard{shard_file_for(dir, 0x1111)}.index_path());

  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  EXPECT_FALSE(store.indexed_records_for(0x1111, out));  // no index: scan
  EXPECT_EQ(store.index_fallbacks(), 1u);
  EXPECT_NE(store.summary().find("scanned without index"), std::string::npos);

  // The cache still serves every trial through the scan fallback.
  exp::TrialCache cache;
  cache.attach_store(store);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(0x1111, 0.25, 7, value));
  EXPECT_EQ(value, 0.125);
  EXPECT_TRUE(cache.lookup(0x1111, 0.5, 8, value));
  EXPECT_EQ(value, -3.75);
  EXPECT_EQ(cache.disk_hits(), 2u);
}

TEST(TrialStore, CorruptIndexFallsBackAndServesIdenticalTrials) {
  const auto dir = fresh_store_dir("idx_corrupt");
  write_sample_store(dir);
  const exp::TrialStore::Shard shard{shard_file_for(dir, 0x1111)};
  // Flip a byte inside the bloom filter: the self-checksum must catch it.
  const std::uint8_t junk = 0xa5;
  patch_file(shard.index_path(),
             static_cast<std::streamoff>(exp::TrialStore::kIndexHeaderBytes +
                                         1),
             &junk, 1);
  bool corrupt = false;
  EXPECT_FALSE(shard.read_index(&corrupt).has_value());
  EXPECT_TRUE(corrupt);

  // The mapping still validates the shard (full checksum pass) and the
  // cache serves the same trials through the scan fallback.
  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  EXPECT_FALSE(store.indexed_records_for(0x1111, out));
  exp::TrialCache cache;
  cache.attach_store(store);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(0x1111, 0.25, 7, value));
  EXPECT_EQ(value, 0.125);
}

TEST(TrialStore, StaleTailIndexStillServesRecordsAppendedAfterIt) {
  // A writer can die between committing records and refreshing the index
  // (the index write is best-effort). The stale index still covers a valid
  // prefix, so the mapping binds it and scans only the uncovered tail.
  const auto dir = fresh_store_dir("idx_tail");
  write_sample_store(dir);
  const exp::TrialStore::Shard shard{shard_file_for(dir, 0x1111)};
  // Preserve the index as written, then append behind its back.
  const std::string saved = shard.index_path() + ".saved";
  std::filesystem::copy_file(shard.index_path(), saved);
  {
    exp::TrialStore store{dir, kTestShards};
    store.append({0x1111, std::bit_cast<std::uint64_t>(0.75), 11, 4.5});
    store.append({0x5555, std::bit_cast<std::uint64_t>(0.1), 12, 5.5});
    store.flush();
  }
  std::filesystem::rename(saved, shard.index_path());  // stale again

  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  ASSERT_TRUE(store.indexed_records_for(0x1111, out));  // tail-bound index
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].seed, 11u);
  std::vector<exp::TrialStore::Record> other;
  ASSERT_TRUE(store.indexed_records_for(0x5555, other));
  ASSERT_EQ(other.size(), 1u);  // tail-only key, absent from the bloom
  EXPECT_EQ(other[0].seed, 12u);
}

TEST(TrialStore, IndexCoveringMoreThanTheShardIsRejected) {
  // The reverse staleness: the shard shrank under the index (it was
  // rebuilt with fewer records while an old copy of its index survived).
  // covered > count can never bind; the reader must scan, not trust it.
  const auto dir = fresh_store_dir("idx_shrunk");
  const exp::TrialStore::Record first{
      0x1111, std::bit_cast<std::uint64_t>(0.25), 7, 0.125};
  const exp::TrialStore::Record second{
      0x1111, std::bit_cast<std::uint64_t>(0.5), 8, 1.5};
  const exp::TrialStore::Shard shard{shard_file_for(dir, 0x1111)};
  const std::string saved = shard.index_path() + ".saved";
  {
    exp::TrialStore store{dir, kTestShards};
    store.append(first);
    store.append(second);
    store.append({0x1111, std::bit_cast<std::uint64_t>(0.75), 9, 2.5});
    store.flush();
  }
  std::filesystem::copy_file(shard.index_path(), saved);  // covers 3
  std::filesystem::remove(shard.path());
  std::filesystem::remove(shard.index_path());
  {
    exp::TrialStore store{dir, kTestShards};  // rebuild with 2 records
    store.append(first);
    store.append(second);
    store.flush();
  }
  std::filesystem::rename(saved, shard.index_path());  // stale: covers 3

  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  EXPECT_FALSE(store.indexed_records_for(0x1111, out));  // scan fallback
  const auto& records = store.records_for(0x1111);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], first);
  EXPECT_EQ(records[1], second);
}

TEST(TrialStore, TornAppendRecoversCommittedPrefixUnderMmap) {
  const auto dir = fresh_store_dir("idx_torn");
  write_sample_store(dir);
  {
    std::ofstream tail{shard_file_for(dir, 0x1111),
                       std::ios::binary | std::ios::app};
    tail.write("torn-append-garbage", 19);
  }
  exp::TrialStore store{dir, kTestShards};
  std::vector<exp::TrialStore::Record> out;
  ASSERT_TRUE(store.indexed_records_for(0x1111, out));  // mmap + index path
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], kSampleRecords[0]);
  EXPECT_EQ(out[1], kSampleRecords[1]);
  EXPECT_EQ(store.shard_status(1), exp::TrialStore::LoadStatus::kLoaded);
}

TEST(TrialStore, ClearedCacheRepopulatesRecordsFlushedAfterTheFirstMap) {
  // The mapping is a snapshot; records this process flushes after mapping
  // a shard must still be visible when the cache is cleared and
  // repopulates from the store (flush marks the shard for remap).
  const auto dir = fresh_store_dir("idx_remap");
  write_sample_store(dir);
  exp::TrialStore store{dir, kTestShards};
  exp::TrialCache cache;
  cache.attach_store(store);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(0x1111, 0.25, 7, value));  // maps shard 1
  cache.store(0x1111, 0.9, 21, 6.25);                 // fresh trial
  store.flush();                                      // now on disk
  cache.clear();
  EXPECT_TRUE(cache.lookup(0x1111, 0.9, 21, value));  // served from disk
  EXPECT_EQ(value, 6.25);
  EXPECT_EQ(cache.disk_hits(), 1u);
}

TEST(TrialCache, ReattachingAStoreForgetsOldMergeDecisions) {
  // A key probed (and found absent) against one store must be re-merged
  // when a different store is attached, or its records there never load.
  const auto dir_a = fresh_store_dir("reattach_a");
  const auto dir_b = fresh_store_dir("reattach_b");
  exp::TrialStore empty{dir_a, kTestShards};
  exp::TrialStore full{dir_b, kTestShards};
  full.append({0x1111, std::bit_cast<std::uint64_t>(0.25), 7, 2.5});
  full.flush();

  exp::TrialCache cache;
  cache.attach_store(empty);
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(0x1111, 0.25, 7, value));  // merged: nothing
  cache.attach_store(full);
  EXPECT_TRUE(cache.lookup(0x1111, 0.25, 7, value));
  EXPECT_EQ(value, 2.5);
}

TEST(TrialStore, DisabledStoreIsANoOp) {
  exp::TrialStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.open_status(), exp::TrialStore::LoadStatus::kDisabled);
  store.append({1, 2, 3, 4.0});
  store.flush();  // must not crash or create files
  EXPECT_TRUE(store.records_for(1).empty());
  EXPECT_EQ(store.shard_count(), 0u);
}

// --- Cli -----------------------------------------------------------------

exp::CliSpec test_spec() {
  return {.program = "bench",
          .summary = "test bench",
          .points = 24,
          .seeds = 3,
          .quick_points = 10,
          .quick_seeds = 1,
          .seed = 2008};
}

exp::ParseStatus parse(exp::Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsWithNoArguments) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {}), exp::ParseStatus::kOk);
  EXPECT_EQ(cli.points(), 24u);
  EXPECT_EQ(cli.seeds(), 3u);
  EXPECT_EQ(cli.seed(), 2008u);
  EXPECT_EQ(cli.threads(), 0u);
  EXPECT_TRUE(cli.csv().empty());
  EXPECT_FALSE(cli.quick());
  EXPECT_TRUE(cli.cache_enabled());
}

TEST(Cli, ParsesEveryFlag) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--quick", "--points", "7", "--seeds", "2", "--seed",
                        "123", "--threads", "5", "--csv", "out.csv",
                        "--no-cache"}),
            exp::ParseStatus::kOk);
  EXPECT_TRUE(cli.quick());
  EXPECT_EQ(cli.points(), 7u);  // explicit --points beats --quick
  EXPECT_EQ(cli.seeds(), 2u);
  EXPECT_EQ(cli.seed(), 123u);
  EXPECT_EQ(cli.threads(), 5u);
  EXPECT_EQ(cli.csv(), "out.csv");
  EXPECT_FALSE(cli.cache_enabled());
}

TEST(Cli, QuickAppliesSpecDefaults) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--quick"}), exp::ParseStatus::kOk);
  EXPECT_EQ(cli.points(), 10u);
  EXPECT_EQ(cli.seeds(), 1u);
}

TEST(Cli, HelpShortCircuits) {
  exp::Cli cli{test_spec()};
  EXPECT_EQ(parse(cli, {"--help"}), exp::ParseStatus::kHelp);
  exp::Cli dash{test_spec()};
  EXPECT_EQ(parse(dash, {"-h"}), exp::ParseStatus::kHelp);
  EXPECT_NE(cli.usage().find("--csv"), std::string::npos);
}

TEST(Cli, RejectsMalformedValues) {
  const std::vector<std::vector<const char*>> bad = {
      {"--points", "abc"},   {"--points", "-3"},  {"--points", "0"},
      {"--points", "12abc"}, {"--seeds", "0"},    {"--seeds"},
      {"--seed", "1.5"},     {"--threads", "+4"}, {"--csv"},
      {"--bogus"},           {"--points", "99999999999999999999"},
  };
  for (const auto& args : bad) {
    exp::Cli cli{test_spec()};
    EXPECT_EQ(parse(cli, args), exp::ParseStatus::kError)
        << "accepted malformed arguments starting with " << args.front();
    EXPECT_FALSE(cli.error().empty());
  }
}

TEST(Cli, NodesAndRoundsOverridesParse) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--nodes", "100000", "--rounds", "1000"}),
            exp::ParseStatus::kOk);
  EXPECT_EQ(cli.nodes(), 100000u);
  EXPECT_EQ(cli.rounds(), 1000u);
  EXPECT_NE(cli.usage().find("--nodes"), std::string::npos);
  EXPECT_NE(cli.usage().find("--rounds"), std::string::npos);

  gossip::GossipConfig config;
  cli.apply_scale(config);
  EXPECT_EQ(config.nodes, 100000u);
  EXPECT_EQ(config.rounds, 1000u);

  // Defaults: 0 = keep the bench scenario's scale.
  exp::Cli defaulted{test_spec()};
  ASSERT_EQ(parse(defaulted, {}), exp::ParseStatus::kOk);
  EXPECT_EQ(defaulted.nodes(), 0u);
  EXPECT_EQ(defaulted.rounds(), 0u);
  gossip::GossipConfig untouched;
  defaulted.apply_scale(untouched);
  EXPECT_EQ(untouched.nodes, gossip::GossipConfig{}.nodes);
  EXPECT_EQ(untouched.rounds, gossip::GossipConfig{}.rounds);
}

TEST(Cli, NodesAndRoundsRejectDegenerateValues) {
  const std::vector<std::vector<const char*>> bad = {
      {"--nodes", "0"},          {"--nodes", "1"},  // engine needs >= 2
      {"--nodes", "5000000000"},                    // must fit 32 bits
      {"--rounds", "0"},         {"--rounds", "5000000000"},
  };
  for (const auto& args : bad) {
    exp::Cli cli{test_spec()};
    EXPECT_EQ(parse(cli, args), exp::ParseStatus::kError)
        << "accepted " << args.front() << " " << args.back();
    EXPECT_FALSE(cli.error().empty());
  }
}

TEST(Cli, ThreadsZeroMeansAuto) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--threads", "0"}), exp::ParseStatus::kOk);
  EXPECT_EQ(cli.threads(), 0u);
}

TEST(Cli, StoreFlagsDefaultOnWithDotLotusCache) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {}), exp::ParseStatus::kOk);
  EXPECT_EQ(cli.cache_dir(), ".lotus-cache");
  EXPECT_TRUE(cli.store_enabled());
  EXPECT_FALSE(cli.quiet_cache());
  EXPECT_FALSE(cli.seed_explicit());
  EXPECT_FALSE(cli.points_explicit());
}

TEST(Cli, CacheDirNoStoreAndQuietCacheParse) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--cache-dir", "/tmp/trials", "--quiet-cache"}),
            exp::ParseStatus::kOk);
  EXPECT_EQ(cli.cache_dir(), "/tmp/trials");
  EXPECT_TRUE(cli.store_enabled());
  EXPECT_TRUE(cli.quiet_cache());

  exp::Cli no_store{test_spec()};
  ASSERT_EQ(parse(no_store, {"--no-store"}), exp::ParseStatus::kOk);
  EXPECT_TRUE(no_store.cache_enabled());
  EXPECT_FALSE(no_store.store_enabled());

  // --no-cache implies no store: there is no cache to spill.
  exp::Cli no_cache{test_spec()};
  ASSERT_EQ(parse(no_cache, {"--no-cache"}), exp::ParseStatus::kOk);
  EXPECT_FALSE(no_cache.store_enabled());

  exp::Cli bad{test_spec()};
  EXPECT_EQ(parse(bad, {"--cache-dir"}), exp::ParseStatus::kError);
}

TEST(Cli, SeedExplicitTracksTheFlag) {
  exp::Cli cli{test_spec()};
  ASSERT_EQ(parse(cli, {"--seed", "2008"}), exp::ParseStatus::kOk);
  EXPECT_TRUE(cli.seed_explicit());  // explicit even when equal to default
  EXPECT_EQ(cli.seed(), 2008u);
}

TEST(Cli, ForwardedArgsRoundTripEveryForwardedFlag) {
  // A multi-bench tool parses its argv, forwards the shared flags, and a
  // bench's own Cli (other defaults) re-parses them: every forwarded flag
  // must arrive, and forwarding again must give the same argv.
  exp::Cli tool{test_spec()};
  ASSERT_EQ(parse(tool, {"--quick", "--points", "7", "--seeds", "2", "--seed",
                         "123", "--threads", "5", "--nodes", "1000",
                         "--rounds", "60", "--no-cache", "--csv", "out.csv",
                         "--quiet-cache"}),
            exp::ParseStatus::kOk);
  const std::vector<std::string> forwarded = tool.forwarded_args();
  std::vector<const char*> argv = {"fig"};
  for (const auto& arg : forwarded) argv.push_back(arg.c_str());
  exp::Cli bench{{.program = "fig",
                  .summary = "another bench",
                  .points = 30,
                  .seeds = 4,
                  .quick_points = 6,
                  .quick_seeds = 2,
                  .seed = 7}};
  ASSERT_EQ(bench.parse(static_cast<int>(argv.size()), argv.data()),
            exp::ParseStatus::kOk)
      << bench.error();
  EXPECT_TRUE(bench.quick());
  EXPECT_EQ(bench.points(), 7u);
  EXPECT_EQ(bench.seeds(), 2u);
  EXPECT_EQ(bench.seed(), 123u);
  EXPECT_EQ(bench.threads(), 5u);
  EXPECT_EQ(bench.nodes(), 1000u);
  EXPECT_EQ(bench.rounds(), 60u);
  EXPECT_FALSE(bench.cache_enabled());
  EXPECT_TRUE(bench.csv().empty());  // the tool's own flags stay behind
  EXPECT_FALSE(bench.quiet_cache());
  EXPECT_EQ(bench.forwarded_args(), forwarded);

  // Nothing given, nothing forwarded: the bench keeps its defaults.
  exp::Cli bare{test_spec()};
  ASSERT_EQ(parse(bare, {}), exp::ParseStatus::kOk);
  EXPECT_TRUE(bare.forwarded_args().empty());
}

TEST(Cli, StringAndBoolOptionsParseAndReject) {
  std::string only;
  bool list = false;
  exp::Cli cli{test_spec()};
  cli.add_string("--only", "subset", &only);
  cli.add_flag("--list", "list benches", &list);
  ASSERT_EQ(parse(cli, {"--list", "--only", "fig1_attacks,token_rare"}),
            exp::ParseStatus::kOk);
  EXPECT_TRUE(list);
  EXPECT_EQ(only, "fig1_attacks,token_rare");
  EXPECT_NE(cli.usage().find("--only"), std::string::npos);
  EXPECT_NE(cli.usage().find("--list"), std::string::npos);

  std::string value;
  exp::Cli bad{test_spec()};
  bad.add_string("--name", "a name", &value);
  EXPECT_EQ(parse(bad, {"--name"}), exp::ParseStatus::kError);
}

TEST(Cli, CustomOptionsParseAndReject) {
  std::uint64_t push_size = 2;
  exp::Cli cli{test_spec()};
  cli.add_option("--push-size", "push size", &push_size);
  ASSERT_EQ(parse(cli, {"--push-size", "9"}), exp::ParseStatus::kOk);
  EXPECT_EQ(push_size, 9u);
  EXPECT_NE(cli.usage().find("--push-size"), std::string::npos);

  std::uint64_t other = 1;
  exp::Cli bad{test_spec()};
  bad.add_option("--other", "other", &other);
  EXPECT_EQ(parse(bad, {"--other", "x"}), exp::ParseStatus::kError);
}

// --- CsvSink -------------------------------------------------------------

TEST(CsvSink, DisabledSinkIsANoOp) {
  exp::CsvSink sink;
  EXPECT_FALSE(sink.enabled());
  sim::Table table{{"a"}};
  table.add_row({"1"});
  sink.write(table);  // must not crash or create files
}

TEST(CsvSink, WritesSectionedBlocksMatchingTheTables) {
  const std::string path = testing::TempDir() + "exp_test_sink.csv";
  sim::Table first{{"a", "b"}};
  first.add_row({"1", "2"});
  sim::Table second{{"c"}};
  second.add_row({"3"});
  {
    exp::CsvSink sink{path};
    EXPECT_TRUE(sink.enabled());
    std::ostringstream out;
    exp::emit(out, sink, first, "alpha");
    EXPECT_NE(out.str().find("| a"), std::string::npos);  // stdout view
    sink.write(second, "beta");
  }
  std::ifstream in{path};
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "# alpha\na,b\n1,2\n\n# beta\nc\n3\n");
}

TEST(CsvSink, SectionPrefixNamespacesBlocks) {
  // The lotus_figs driver shares one sink across benches and prefixes each
  // bench's sections, so same-named sections stay distinguishable.
  const std::string path = testing::TempDir() + "exp_test_prefix.csv";
  sim::Table table{{"a"}};
  table.add_row({"1"});
  {
    exp::CsvSink sink{path};
    sink.set_section_prefix("fig1_attacks/");
    sink.write(table, "delivery");
    sink.set_section_prefix("fig2_pushsize/");
    sink.write(table, "delivery");
  }
  std::ifstream in{path};
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(),
            "# fig1_attacks/delivery\na\n1\n\n# fig2_pushsize/delivery\na\n1\n");
}

TEST(CsvSink, ThrowsOnUnwritablePath) {
  EXPECT_THROW(exp::CsvSink{"/nonexistent-dir/x/y.csv"}, std::runtime_error);
}

TEST(CsvSinkDeathTest, OpenOrExitReportsLikeACliError) {
  // Benches open their sink through this helper so a typo'd --csv path is
  // the same clean exit-2 + "program: message" contract as a bad flag.
  EXPECT_EXIT((void)exp::open_csv_or_exit("/nonexistent-dir/x/y.csv", "bench"),
              testing::ExitedWithCode(2), "bench: cannot open CSV");
}

}  // namespace
}  // namespace lotus
