// Microbenchmarks (google-benchmark) for the primitives on the simulators'
// hot paths: RNG, bitset transfers, GF(256), EigenTrust, and one full BAR
// Gossip round-equivalent run at Table 1 scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>
#include <string>

#include "coding/gf256.h"
#include "coding/rlnc.h"
#include "crypto/partner.h"
#include "exp/trial_store.h"
#include "fleet/queue.h"
#include "gossip/config.h"
#include "gossip/engine.h"
#include "rep/eigentrust.h"
#include "sim/bitset.h"
#include "sim/rng.h"
#include "sim/window_bitset.h"

namespace {

using namespace lotus;

void BM_RngNextBelow(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(250));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_RngSampleWithoutReplacement(benchmark::State& state) {
  // Table 1's update seeding (12 copies among 250 nodes) and the same
  // shape at 10^5 nodes (4800 copies), where a quadratic membership test
  // would dominate the trial.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  sim::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample_without_replacement(n, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_RngSampleWithoutReplacement)
    ->ArgNames({"n", "k"})
    ->Args({250, 12})
    ->Args({100000, 4800});

void BM_RngFillBelowDescending(benchmark::State& state) {
  // The Fisher-Yates variate sequence (bounds n, n-1, ..., 2) that the
  // engine's per-round Rng::shuffle of its initiation order consumes,
  // drawn as one batch.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{9};
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    rng.fill_below_descending(n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFillBelowDescending)->ArgName("n")->Arg(256)->Arg(4096);

void BM_BitsetTransfer(benchmark::State& state) {
  // 128 bits is the windowed engine's exchange width (Table 1: a 100-bit
  // window rounds to two words); 1200/4800 are the dense-bitset token and
  // scale shapes.
  const auto bits = static_cast<std::size_t>(state.range(0));
  sim::DynamicBitset src{bits};
  sim::Rng rng{2};
  for (std::size_t i = 0; i < bits; i += 1 + rng.next_below(3)) src.set(i);
  for (auto _ : state) {
    sim::DynamicBitset dst{bits};
    benchmark::DoNotOptimize(dst.transfer_from(src, 0, bits, bits));
  }
}
BENCHMARK(BM_BitsetTransfer)->ArgName("bits")->Arg(128)->Arg(1200)->Arg(4800);

void BM_BitsetCountAnd(benchmark::State& state) {
  // The |have AND have| reduction of the exchange/push loops, full width.
  const auto bits = static_cast<std::size_t>(state.range(0));
  sim::DynamicBitset a{bits};
  sim::DynamicBitset b{bits};
  sim::Rng rng{3};
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.next_bernoulli(0.5)) a.set(i);
    if (rng.next_bernoulli(0.5)) b.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count_and(b));
  }
}
BENCHMARK(BM_BitsetCountAnd)->ArgName("bits")->Arg(128)->Arg(4800);

void BM_BitsetCountAndNotRange(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  sim::DynamicBitset a{bits};
  sim::DynamicBitset b{bits};
  sim::Rng rng{3};
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.next_bernoulli(0.5)) a.set(i);
    if (rng.next_bernoulli(0.5)) b.set(i);
  }
  const std::size_t lo = bits / 12;          // unaligned range edges
  const std::size_t hi = bits - bits / 24;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count_and_not_range(b, lo, hi));
  }
}
BENCHMARK(BM_BitsetCountAndNotRange)->ArgName("bits")->Arg(128)->Arg(4800);

void BM_WindowExchange(benchmark::State& state) {
  // One balanced exchange on the production 100-bit window (Table 1: 10
  // updates x 10 rounds) through the engine's compiled two-word mask
  // kernel: two and-not counts, then two capped transfers handed those
  // counts, over an active range that wraps the ring seam. Each exchange
  // takes the next of 4096 ring pairs, each pair drawn at its own density
  // in [0.25, 0.75] and restored before use, so the branch predictor cannot
  // learn one fixed pair's candidate counts.
  constexpr std::uint64_t kWindow = 100;
  constexpr std::size_t kPairs = 4096;
  sim::Rng rng{5};
  std::vector<std::uint64_t> init(4 * kPairs, 0);
  for (std::size_t k = 0; k < 2 * kPairs; ++k) {
    const double density = 0.25 + 0.5 * rng.next_double();
    for (std::uint64_t id = 0; id < kWindow; ++id) {
      if (rng.next_bernoulli(density)) {
        init[2 * k + id / 64] |= std::uint64_t{1} << (id % 64);
      }
    }
  }
  std::vector<std::uint64_t> words = init;
  const sim::RingMask<2> active{
      sim::WindowBitsetView{words.data(), kWindow}.ring(150, 150 + kWindow),
      2};  // seam at 200
  std::size_t k = 0;
  for (auto _ : state) {
    std::uint64_t* a = &words[4 * k];
    std::uint64_t* c = &words[4 * k + 2];
    std::copy_n(&init[4 * k], 4, a);
    benchmark::ClobberMemory();
    const std::size_t a_needs = active.count_and_not(c, a);
    const std::size_t c_needs = active.count_and_not(a, c);
    const std::size_t give = std::min(a_needs, c_needs);
    benchmark::DoNotOptimize(active.transfer(a, c, a_needs, give));
    benchmark::DoNotOptimize(active.transfer(c, a, c_needs, give));
    benchmark::ClobberMemory();
    k = (k + 1) % kPairs;
  }
}
BENCHMARK(BM_WindowExchange);

void BM_PartnerSchedule(benchmark::State& state) {
  // One interaction phase's partner pass, as the engine runs it: the phase
  // is keyed once, then every initiator is hashed.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const crypto::PartnerSchedule schedule{42, n};
  std::vector<std::uint32_t> partner(n);
  std::uint32_t round = 0;
  for (auto _ : state) {
    const crypto::PartnerPhase partner_of =
        schedule.phase(round++, crypto::PartnerPurpose::kBalancedExchange);
    for (std::uint32_t v = 0; v < n; ++v) partner[v] = partner_of(v);
    benchmark::DoNotOptimize(partner.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PartnerSchedule)->ArgName("n")->Arg(250)->Arg(100000);

void BM_GF256Mul(benchmark::State& state) {
  std::uint8_t a = 1;
  std::uint8_t b = 57;
  for (auto _ : state) {
    a = coding::GF256::mul(a ? a : 1, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GF256Mul);

void BM_RlncDecode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  sim::Rng data_rng{4};
  std::vector<std::vector<std::uint8_t>> source(k);
  for (auto& block : source) {
    block.resize(256);
    for (auto& byte : block) {
      byte = static_cast<std::uint8_t>(data_rng.next_below(256));
    }
  }
  const coding::Encoder encoder{source};
  for (auto _ : state) {
    coding::Decoder decoder{k, 256};
    sim::Rng rng{5};
    while (!decoder.complete()) decoder.add(encoder.encode(rng));
    benchmark::DoNotOptimize(decoder.decode());
  }
}
BENCHMARK(BM_RlncDecode)->Arg(8)->Arg(32);

void BM_EigenTrust(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rep::TrustMatrix matrix{n};
  sim::Rng rng{6};
  for (std::size_t e = 0; e < n * 8; ++e) {
    matrix.add_trust(rng.next_below(n), rng.next_below(n),
                     1.0 + rng.next_double());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigentrust(matrix, 0.15, 15));
  }
}
BENCHMARK(BM_EigenTrust)->Arg(100)->Arg(250);

/// Builds (once per distinct shape) a store of `records` trials spread
/// over 256 trial spaces, like a long sweep campaign, and returns its
/// directory. flush() writes the sidecar indexes alongside the shards.
const std::string& micro_store_dir(std::uint64_t shards,
                                   std::uint64_t records) {
  static std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> dirs;
  auto& dir = dirs[{shards, records}];
  if (!dir.empty()) return dir;
  dir = (std::filesystem::temp_directory_path() /
         ("lotus_micro_store_" + std::to_string(shards) + "_" +
          std::to_string(records)))
            .string();
  std::filesystem::remove_all(dir);
  exp::TrialStore store{dir, shards};
  // Grouped by key, the way sweeps append (a scope's trials arrive
  // together), so shards hold long per-key runs like a real campaign.
  const std::uint64_t per_key = records / 256;
  for (std::uint64_t i = 0; i < records; ++i) {
    store.append({i / per_key, std::bit_cast<std::uint64_t>(
                                   static_cast<double>(i)),
                  i, static_cast<double>(i)});
  }
  store.flush();
  return dir;
}

void BM_StoreColdLoadPerScope(benchmark::State& state) {
  // What a bench pays at startup to warm one trial space from disk.
  // Args: {shards, total records, indexed}. indexed=0 is the sequential
  // whole-shard load (v1 degenerates to it at 1 shard: every record read
  // and copied); indexed=1 is the zero-copy path — mmap the shard and pull
  // only the requested key's byte ranges through the sidecar index, so the
  // cost is per-scope, independent of total store size.
  const auto shards = static_cast<std::uint64_t>(state.range(0));
  const auto records = static_cast<std::uint64_t>(state.range(1));
  const bool indexed = state.range(2) != 0;
  const std::string& dir = micro_store_dir(shards, records);
  std::size_t scope_records = 0;
  for (auto _ : state) {
    exp::TrialStore store{dir, shards};
    if (indexed) {
      std::vector<exp::TrialStore::Record> out;
      benchmark::DoNotOptimize(store.indexed_records_for(0, out));
      scope_records = out.size();
      benchmark::DoNotOptimize(out.data());
    } else {
      scope_records = store.records_for(0).size();
      benchmark::DoNotOptimize(scope_records);
    }
  }
  state.counters["scope_records"] =
      static_cast<double>(scope_records);
}
BENCHMARK(BM_StoreColdLoadPerScope)
    ->ArgNames({"shards", "records", "indexed"})
    ->Args({1, 64 * 1024, 0})
    ->Args({1, 64 * 1024, 1})
    ->Args({16, 64 * 1024, 0})
    ->Args({16, 64 * 1024, 1})
    ->Args({1, 1024 * 1024, 0})
    ->Args({1, 1024 * 1024, 1})
    ->Args({16, 1024 * 1024, 0})
    ->Args({16, 1024 * 1024, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_StoreNegativeLookup(benchmark::State& state) {
  // A key hash the store has never seen: with the sidecar index this is
  // one bloom probe against the mapped shard — no record bytes touched —
  // so misses stay O(1) no matter how big the store grows.
  const auto shards = static_cast<std::uint64_t>(state.range(0));
  const auto records = static_cast<std::uint64_t>(state.range(1));
  const std::string& dir = micro_store_dir(shards, records);
  exp::TrialStore store{dir, shards};
  std::vector<exp::TrialStore::Record> out;
  std::uint64_t absent = 1000003;  // keys on disk are 0..255
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(store.indexed_records_for(absent, out));
    absent += shards;  // same shard every probe, fresh bloom positions
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_StoreNegativeLookup)
    ->ArgNames({"shards", "records"})
    ->Args({16, 64 * 1024})
    ->Args({16, 1024 * 1024})
    ->Unit(benchmark::kNanosecond);

void BM_GossipFullRun(benchmark::State& state) {
  gossip::GossipConfig config;  // Table 1 scale, shorter horizon
  config.rounds = 40;
  config.warmup_rounds = 5;
  config.seed = 7;
  gossip::AttackPlan plan;
  plan.kind = gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::run_gossip(config, plan));
  }
}
BENCHMARK(BM_GossipFullRun)->Unit(benchmark::kMillisecond);

void BM_QueueClaimComplete(benchmark::State& state) {
  // One fleet work-queue transition pair: claim the next unit, complete it.
  // Both take the exclusive flock and the claim scans the slot array, so
  // the cost grows with queue size as a drain progresses — iterating a full
  // drain (recreating the queue when empty) prices the whole-campaign
  // average a worker actually pays, not just the first claim.
  const auto units_n = static_cast<std::size_t>(state.range(0));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lotus_micro_queue").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/queue.bin";
  std::vector<fleet::WorkUnit> units(units_n);
  for (std::size_t i = 0; i < units_n; ++i) {
    units[i].bench = "unit_" + std::to_string(i);
  }
  auto recreate = [&] {
    if (!fleet::WorkQueue::create(path, units, 60'000)) {
      state.SkipWithError("queue create failed");
    }
  };
  recreate();
  fleet::WorkQueue queue{path};
  std::size_t remaining = units_n;
  for (auto _ : state) {
    if (remaining == 0) {
      state.PauseTiming();
      recreate();
      remaining = units_n;
      state.ResumeTiming();
    }
    fleet::ClaimTicket ticket;
    if (queue.claim(1, ticket) != fleet::WorkQueue::ClaimStatus::kClaimed ||
        queue.complete(ticket) !=
            fleet::WorkQueue::CompleteStatus::kCompleted) {
      state.SkipWithError("claim/complete transition failed");
      break;
    }
    --remaining;
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_QueueClaimComplete)
    ->ArgNames({"units"})
    ->Args({64})
    ->Args({1024})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
