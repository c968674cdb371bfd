// Tests for the sweep fleet: the crash-safe work queue and the claim/run/
// complete worker loop.
//
// The fork-based tests SIGKILL real worker processes at randomized points
// mid-claim and mid-append and then assert the two fleet invariants the
// design hangs on: every unit is completed exactly once (the queue's
// absorbing kDone + lease reclamation), and the merged store holds exactly
// the record set of a single-process run (append-time dedup).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/trial_store.h"
#include "fleet/queue.h"
#include "fleet/worker.h"

#ifdef __unix__
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace lotus {
namespace {

using fleet::ClaimTicket;
using fleet::WorkQueue;
using fleet::WorkUnit;

/// Fresh scratch directory for one test: TempDir persists across runs, so
/// wipe it.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fleet_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Overwrites `size` bytes at `offset` in a queue or store file.
void patch_file(const std::string& path, std::streamoff offset,
                const void* bytes, std::size_t size) {
  std::fstream f{path, std::ios::binary | std::ios::in | std::ios::out};
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  ASSERT_TRUE(f.good());
}

std::vector<WorkUnit> make_units(std::size_t n) {
  std::vector<WorkUnit> units;
  for (std::size_t i = 0; i < n; ++i) {
    units.push_back({"unit_" + std::to_string(i),
                     std::bit_cast<std::uint64_t>(0.125 * double(i + 1)),
                     500 + i});
  }
  return units;
}

constexpr std::uint64_t kTestShards = 4;

/// All committed records across every shard of a store directory.
std::vector<exp::TrialStore::Record> load_all_records(const std::string& dir) {
  std::vector<exp::TrialStore::Record> all;
  for (std::uint64_t i = 0; i < kTestShards; ++i) {
    std::vector<exp::TrialStore::Record> one;
    const exp::TrialStore::Shard shard{
        exp::shard_path(dir, static_cast<std::size_t>(i))};
    (void)shard.load(one);
    all.insert(all.end(), one.begin(), one.end());
  }
  return all;
}

// --- WorkQueue ------------------------------------------------------------

TEST(WorkQueue, CreateRejectsBadInputs) {
  const std::string path = fresh_dir("create_bad") + "/queue";
  EXPECT_FALSE(WorkQueue::create(path, {}, 1000));           // empty
  EXPECT_FALSE(WorkQueue::create(path, make_units(2), 0));   // no lease
  WorkUnit long_name;
  long_name.bench = std::string(WorkUnit::kBenchBytes, 'x');  // no room for NUL
  EXPECT_FALSE(WorkQueue::create(path, {long_name}, 1000));
  WorkUnit max_name;
  max_name.bench = std::string(WorkUnit::kBenchBytes - 1, 'y');
  EXPECT_TRUE(WorkQueue::create(path, {max_name}, 1000));
  const WorkQueue queue{path};
  const auto units = queue.units();
  ASSERT_TRUE(units.has_value());
  ASSERT_EQ(units->size(), 1u);
  EXPECT_EQ((*units)[0].bench, max_name.bench);
}

TEST(WorkQueue, UnitsRoundTripInSlotOrder) {
  const std::string path = fresh_dir("roundtrip") + "/queue";
  const auto created = make_units(5);
  ASSERT_TRUE(WorkQueue::create(path, created, 1000));
  const WorkQueue queue{path};
  const auto units = queue.units();
  ASSERT_TRUE(units.has_value());
  EXPECT_EQ(*units, created);
  const auto stats = queue.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->units, 5u);
  EXPECT_EQ(stats->pending, 5u);
  EXPECT_EQ(stats->done, 0u);
}

TEST(WorkQueue, ClaimCompleteDrainsAndDoneIsAbsorbing) {
  const std::string path = fresh_dir("drain") + "/queue";
  const auto created = make_units(3);
  ASSERT_TRUE(WorkQueue::create(path, created, 60'000));
  WorkQueue queue{path};

  std::vector<ClaimTicket> tickets(3);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.claim(100 + i, tickets[i]), WorkQueue::ClaimStatus::kClaimed);
    EXPECT_EQ(tickets[i].slot, i);  // issued in slot order
    EXPECT_EQ(tickets[i].unit, created[i]);
    EXPECT_EQ(tickets[i].claims, 1u);
  }
  // Everything claimed under live leases: the next claimant must wait.
  ClaimTicket extra;
  EXPECT_EQ(queue.claim(999, extra), WorkQueue::ClaimStatus::kBusy);

  for (const auto& ticket : tickets) {
    EXPECT_EQ(queue.complete(ticket), WorkQueue::CompleteStatus::kCompleted);
  }
  EXPECT_EQ(queue.claim(999, extra), WorkQueue::ClaimStatus::kDrained);
  // kDone is absorbing: a second complete reports, never double-counts.
  EXPECT_EQ(queue.complete(tickets[0]), WorkQueue::CompleteStatus::kAlreadyDone);

  const auto stats = queue.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 3u);
  EXPECT_EQ(stats->pending, 0u);
  EXPECT_EQ(stats->claimed, 0u);
  EXPECT_EQ(stats->reclaims, 0u);
}

TEST(WorkQueue, ExpiredLeaseIsReclaimedAndStaleCompleteIsSuperseded) {
  const std::string path = fresh_dir("lease") + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(1), 60));
  WorkQueue queue{path};

  ClaimTicket first;
  ASSERT_EQ(queue.claim(1, first), WorkQueue::ClaimStatus::kClaimed);
  ClaimTicket second;
  EXPECT_EQ(queue.claim(2, second), WorkQueue::ClaimStatus::kBusy);

  // Reclaim after expiry: the unit is re-issued with the next claim ordinal.
  const auto deadline = WorkQueue::now_ms() + 5000;
  WorkQueue::ClaimStatus status = WorkQueue::ClaimStatus::kBusy;
  while (status == WorkQueue::ClaimStatus::kBusy &&
         WorkQueue::now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    status = queue.claim(2, second);
  }
  ASSERT_EQ(status, WorkQueue::ClaimStatus::kClaimed);
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_EQ(second.unit, first.unit);
  EXPECT_EQ(second.claims, 2u);

  // The original owner lost the lease; its renew fails, and its complete
  // still marks the (idempotent) unit done but reports the supersession.
  EXPECT_FALSE(queue.renew(first));
  EXPECT_EQ(queue.complete(first), WorkQueue::CompleteStatus::kSuperseded);
  EXPECT_EQ(queue.complete(second), WorkQueue::CompleteStatus::kAlreadyDone);

  const auto stats = queue.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 1u);
  EXPECT_EQ(stats->reclaims, 1u);
}

TEST(WorkQueue, RenewKeepsALeaseAliveAcrossItsNominalExpiry) {
  const std::string path = fresh_dir("renew") + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(1), 100));
  WorkQueue queue{path};

  ClaimTicket ticket;
  ASSERT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kClaimed);
  // Renew every ~40ms for 3 nominal lease lengths: the unit must never be
  // claimable by anyone else.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(queue.renew(ticket));
    ClaimTicket thief;
    EXPECT_EQ(queue.claim(2, thief), WorkQueue::ClaimStatus::kBusy);
  }
  EXPECT_EQ(queue.complete(ticket), WorkQueue::CompleteStatus::kCompleted);
  EXPECT_FALSE(queue.renew(ticket));  // done: nothing left to renew
}

TEST(WorkQueue, TornMutableBlockIsReclaimedWithIdentityIntact) {
  const std::string path = fresh_dir("torn") + "/queue";
  const auto created = make_units(2);
  ASSERT_TRUE(WorkQueue::create(path, created, 60'000));
  WorkQueue queue{path};

  ClaimTicket ticket;
  ASSERT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kClaimed);
  ASSERT_EQ(ticket.slot, 0u);

  // Simulate a SIGKILL mid-pwrite: garbage over slot 0's mutable block (the
  // only bytes a transition touches). The checksum fails, so the slot reads
  // as reclaimable-now — despite its lease nominally having hours left.
  const std::vector<std::uint8_t> garbage(WorkQueue::kMutableBytes, 0xFF);
  patch_file(path,
             static_cast<std::streamoff>(WorkQueue::kHeaderBytes +
                                         WorkQueue::kIdentityBytes),
             garbage.data(), garbage.size());

  const auto stats = queue.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->torn, 1u);
  EXPECT_EQ(stats->pending, 2u);  // torn counts as reclaimable

  ClaimTicket again;
  ASSERT_EQ(queue.claim(2, again), WorkQueue::ClaimStatus::kClaimed);
  EXPECT_EQ(again.slot, 0u);
  EXPECT_EQ(again.unit, created[0]);  // identity block untouched
  EXPECT_EQ(queue.complete(again), WorkQueue::CompleteStatus::kCompleted);
}

TEST(WorkQueue, CorruptIdentityBlockIsSkippedNotDispatched) {
  const std::string path = fresh_dir("bad_identity") + "/queue";
  const auto created = make_units(2);
  ASSERT_TRUE(WorkQueue::create(path, created, 60'000));
  WorkQueue queue{path};

  // Flip a byte inside slot 0's bench name: its checksum fails, and claim
  // must skip the slot rather than hand out a garbage unit.
  const std::uint8_t flip = 0x5A;
  patch_file(path, static_cast<std::streamoff>(WorkQueue::kHeaderBytes + 2),
             &flip, sizeof(flip));

  ClaimTicket ticket;
  ASSERT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kClaimed);
  EXPECT_EQ(ticket.slot, 1u);  // slot 0 skipped
  EXPECT_EQ(ticket.unit, created[1]);
  EXPECT_EQ(queue.complete(ticket), WorkQueue::CompleteStatus::kCompleted);
  // The corrupt slot can never drain, and units() refuses to invent one.
  EXPECT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kDrained);
  EXPECT_FALSE(queue.units().has_value());
}

TEST(WorkQueue, StatePersistsAcrossHandles) {
  const std::string path = fresh_dir("handles") + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(2), 60'000));
  ClaimTicket ticket;
  {
    WorkQueue one{path};
    ASSERT_EQ(one.claim(7, ticket), WorkQueue::ClaimStatus::kClaimed);
  }
  WorkQueue two{path};
  const auto stats = two.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->claimed, 1u);
  EXPECT_EQ(stats->pending, 1u);
  // The ticket is honoured by any handle: the queue's state lives on disk.
  EXPECT_EQ(two.complete(ticket), WorkQueue::CompleteStatus::kCompleted);
}

TEST(WorkQueue, MissingOrInvalidFileReportsIoError) {
  const std::string path = fresh_dir("missing") + "/queue";
  WorkQueue queue{path};
  ClaimTicket ticket;
  EXPECT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kIoError);
  EXPECT_FALSE(queue.stats().has_value());
  EXPECT_FALSE(queue.units().has_value());

  // A file that is not a queue (bad magic) is IoError too, never garbage.
  std::ofstream{path} << "not a queue";
  EXPECT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kIoError);
}

// --- fleet::Worker --------------------------------------------------------

TEST(FleetWorker, DrainsTheQueueInSlotOrder) {
  const std::string path = fresh_dir("worker_drain") + "/queue";
  const auto created = make_units(4);
  ASSERT_TRUE(WorkQueue::create(path, created, 60'000));

  std::vector<std::string> ran;
  fleet::Worker worker{{path, 7, 0, 60'000, 5}, [&](const WorkUnit& unit) {
                         ran.push_back(unit.bench);
                         return true;
                       }};
  const auto summary = worker.run();
  EXPECT_EQ(summary.completed, 4u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.superseded, 0u);
  EXPECT_FALSE(summary.io_error);
  ASSERT_EQ(ran.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ran[i], created[i].bench);

  const auto stats = WorkQueue{path}.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 4u);
}

TEST(FleetWorker, FailedUnitIsLeftClaimedAndRetriedAfterLeaseExpiry) {
  const std::string path = fresh_dir("worker_retry") + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(2), 120));

  // unit_1 fails its first attempt; the worker leaves it claimed, cycles on
  // kBusy until its own lease expires, reclaims it, and succeeds.
  bool failed_once = false;
  fleet::Worker worker{{path, 7, 0, 120, 10}, [&](const WorkUnit& unit) {
                         if (unit.bench == "unit_1" && !failed_once) {
                           failed_once = true;
                           return false;
                         }
                         return true;
                       }};
  const auto summary = worker.run();
  EXPECT_TRUE(failed_once);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_FALSE(summary.io_error);

  const auto stats = WorkQueue{path}.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 2u);
  EXPECT_EQ(stats->reclaims, 1u);  // the failed attempt's lease expired
}

TEST(FleetWorker, RenewalThreadOutlivesAUnitSlowerThanTheLease) {
  const std::string path = fresh_dir("worker_renew") + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(1), 150));

  // The unit takes ~3 lease lengths; the renewal thread (lease/3 cadence)
  // must keep the lease alive so nothing is reclaimed.
  fleet::Worker worker{{path, 7, 0, 150, 10}, [&](const WorkUnit&) {
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(450));
                         return true;
                       }};
  const auto summary = worker.run();
  EXPECT_EQ(summary.completed, 1u);
  EXPECT_EQ(summary.superseded, 0u);

  const auto stats = WorkQueue{path}.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 1u);
  EXPECT_EQ(stats->reclaims, 0u);
}

// --- Crash injection (fork + SIGKILL) -------------------------------------

#ifdef __unix__

TEST(FleetCrash, SigkillMidClaimIsReclaimedAfterLeaseExpiry) {
  const std::string dir = fresh_dir("kill_claim");
  const std::string path = dir + "/queue";
  ASSERT_TRUE(WorkQueue::create(path, make_units(1), 150));

  // The child claims the unit and dies holding it — the worst time short of
  // mid-pwrite (covered by the torn-block test).
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    WorkQueue queue{path};
    ClaimTicket ticket;
    if (queue.claim(static_cast<std::uint64_t>(::getpid()), ticket) !=
        WorkQueue::ClaimStatus::kClaimed) {
      _exit(2);
    }
    raise(SIGKILL);
    _exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  WorkQueue queue{path};
  {
    const auto stats = queue.stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->claimed, 1u);  // the dead worker's claim is visible
  }
  // Not claimable until the lease runs out...
  ClaimTicket ticket;
  EXPECT_EQ(queue.claim(1, ticket), WorkQueue::ClaimStatus::kBusy);
  // ...then re-issued, and the unit drains normally.
  const auto deadline = WorkQueue::now_ms() + 5000;
  WorkQueue::ClaimStatus claim_status = WorkQueue::ClaimStatus::kBusy;
  while (claim_status == WorkQueue::ClaimStatus::kBusy &&
         WorkQueue::now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    claim_status = queue.claim(1, ticket);
  }
  ASSERT_EQ(claim_status, WorkQueue::ClaimStatus::kClaimed);
  EXPECT_EQ(ticket.claims, 2u);
  EXPECT_EQ(queue.complete(ticket), WorkQueue::CompleteStatus::kCompleted);
  const auto stats = queue.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->done, 1u);
  EXPECT_EQ(stats->reclaims, 1u);
}

TEST(FleetCrash, SigkillMidAppendLeavesAValidDedupedStore) {
  const std::string dir = fresh_dir("kill_append");
  const std::string path = dir + "/queue";
  const std::string store_dir = dir + "/store";
  ASSERT_TRUE(WorkQueue::create(path, make_units(1), 150));
  {
    exp::TrialStore init{store_dir, kTestShards};
    ASSERT_TRUE(init.enabled());
  }
  const exp::TrialStore::Record a{11, std::bit_cast<std::uint64_t>(0.25), 1,
                                  0.5};
  const exp::TrialStore::Record b{12, std::bit_cast<std::uint64_t>(0.5), 2,
                                  -1.5};

  // The child claims, commits the unit's records, and dies before
  // complete(): the fleet's "mid-append" crash (after the store flush, the
  // queue slot is still claimed).
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    WorkQueue queue{path};
    ClaimTicket ticket;
    if (queue.claim(static_cast<std::uint64_t>(::getpid()), ticket) !=
        WorkQueue::ClaimStatus::kClaimed) {
      _exit(2);
    }
    exp::TrialStore store{store_dir, kTestShards};
    if (!store.enabled()) _exit(3);
    store.append(a);
    store.append(b);
    store.flush();
    if (!store.enabled()) _exit(4);
    raise(SIGKILL);
    _exit(5);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The committed prefix survived the SIGKILL: every touched shard loads
  // clean (what `lotus_store verify` checks), with the child's records in it.
  for (std::uint64_t s = 0; s < kTestShards; ++s) {
    std::vector<exp::TrialStore::Record> out;
    const exp::TrialStore::Shard shard{
        exp::shard_path(store_dir, static_cast<std::size_t>(s))};
    const auto loaded = shard.load(out);
    EXPECT_TRUE(loaded == exp::TrialStore::LoadStatus::kLoaded ||
                loaded == exp::TrialStore::LoadStatus::kFresh);
  }
  ASSERT_EQ(load_all_records(store_dir).size(), 2u);

  // A replacement worker reclaims the unit after lease expiry and re-runs
  // it; append-time dedup keeps the re-run single-counted.
  WorkQueue queue{path};
  ClaimTicket ticket;
  const auto deadline = WorkQueue::now_ms() + 5000;
  WorkQueue::ClaimStatus claim_status = WorkQueue::ClaimStatus::kBusy;
  while (claim_status == WorkQueue::ClaimStatus::kBusy &&
         WorkQueue::now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    claim_status = queue.claim(1, ticket);
  }
  ASSERT_EQ(claim_status, WorkQueue::ClaimStatus::kClaimed);
  {
    exp::TrialStore store{store_dir, kTestShards};
    ASSERT_TRUE(store.enabled());
    store.append(a);
    store.append(b);
    store.flush();
    ASSERT_TRUE(store.enabled());
    EXPECT_EQ(store.dedup_dropped(), 2u);
  }
  EXPECT_EQ(queue.complete(ticket), WorkQueue::CompleteStatus::kCompleted);

  const auto all = load_all_records(store_dir);
  ASSERT_EQ(all.size(), 2u);  // no unit lost, none double-counted
  std::set<std::uint64_t> keys;
  for (const auto& record : all) keys.insert(record.key_hash);
  EXPECT_TRUE(keys.contains(11u));
  EXPECT_TRUE(keys.contains(12u));
}

/// The synthetic trial a work unit produces — deterministic, so re-runs of
/// a reclaimed unit commit identical records.
exp::TrialStore::Record record_for(const WorkUnit& unit) {
  return {unit.seed, unit.x_bits, unit.seed,
          0.25 + 0.5 * static_cast<double>(unit.seed % 16)};
}

std::string slurp(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(FleetCrash, RandomizedKillsDrainExactlyOnceAndMatchSingleProcessStore) {
  // The fleet property test: N worker processes × M units with a first wave
  // of workers SIGKILLing themselves at randomized points (mid-claim or
  // mid-append), respawned until the queue drains. Invariants:
  //   1. every unit is completed exactly once (the completion log written
  //      right after a kCompleted transition has one line per slot);
  //   2. every shard of the merged fleet store holds the same record set
  //      as a single-process run of the same units (append dedup: re-runs
  //      of reclaimed units never double-commit).
  const std::string dir = fresh_dir("kill_prop");
  const std::string path = dir + "/queue";
  const std::string fleet_dir = dir + "/fleet";
  const std::string single_dir = dir + "/single";
  const std::string log_path = dir + "/completions.log";

  constexpr std::size_t kUnits = 12;
  constexpr std::uint64_t kLeaseMs = 250;
  constexpr unsigned kKillers = 5;      // the first wave all dies
  constexpr unsigned kMaxWorkers = 3;   // concurrently live
  constexpr unsigned kMaxGenerations = 40;
  const auto units = make_units(kUnits);
  ASSERT_TRUE(WorkQueue::create(path, units, kLeaseMs));
  {
    exp::TrialStore init{fleet_dir, kTestShards};
    ASSERT_TRUE(init.enabled());
  }

  // The single-process reference store.
  {
    exp::TrialStore single{single_dir, kTestShards};
    ASSERT_TRUE(single.enabled());
    for (const auto& unit : units) single.append(record_for(unit));
    single.flush();
    ASSERT_TRUE(single.enabled());
  }

  const auto spawn = [&](unsigned generation) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Worker child: the raw claim/run/complete loop, with a deterministic
    // per-generation kill schedule (seeded PRNG, so "randomized" and
    // reproducible at once).
    std::mt19937_64 rng(0x20080815u + generation);
    const bool killer = generation < kKillers;
    const bool kill_mid_claim = (rng() & 1u) != 0;
    std::uint64_t units_before_kill = rng() % 2;  // die on the 1st or 2nd
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) _exit(5);
    exp::TrialStore store{fleet_dir, kTestShards};
    if (!store.enabled()) _exit(3);
    WorkQueue queue{path};
    for (;;) {
      ClaimTicket ticket;
      const auto status =
          queue.claim(static_cast<std::uint64_t>(::getpid()), ticket);
      if (status == WorkQueue::ClaimStatus::kDrained) break;
      if (status == WorkQueue::ClaimStatus::kIoError) _exit(4);
      if (status == WorkQueue::ClaimStatus::kBusy) {
        ::usleep(20'000);
        continue;
      }
      const bool die_now = killer && units_before_kill-- == 0;
      if (die_now && kill_mid_claim) raise(SIGKILL);  // claimed, ran nothing
      store.append(record_for(ticket.unit));
      store.flush();
      if (!store.enabled()) _exit(3);
      if (die_now) raise(SIGKILL);  // records committed, slot still claimed
      const auto completed = queue.complete(ticket);
      if (completed == WorkQueue::CompleteStatus::kIoError) _exit(4);
      if (completed == WorkQueue::CompleteStatus::kCompleted) {
        char line[32];
        const int len =
            std::snprintf(line, sizeof(line), "%zu\n", ticket.slot);
        if (::write(log_fd, line, static_cast<std::size_t>(len)) != len) {
          _exit(5);
        }
      }
    }
    _exit(0);
  };

  WorkQueue queue{path};
  std::vector<pid_t> live;
  unsigned generation = 0;
  std::size_t killed = 0;
  for (;;) {
    const auto stats = queue.stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->done == kUnits) break;
    while (live.size() < kMaxWorkers && generation < kMaxGenerations) {
      live.push_back(spawn(generation++));
      ASSERT_GT(live.back(), 0);
    }
    ASSERT_FALSE(live.empty()) << "queue stuck after " << generation
                               << " generations: " << stats->done << "/"
                               << kUnits << " done";
    int status = 0;
    const pid_t reaped = waitpid(-1, &status, 0);
    ASSERT_GT(reaped, 0);
    live.erase(std::find(live.begin(), live.end(), reaped));
    if (WIFSIGNALED(status)) {
      ASSERT_EQ(WTERMSIG(status), SIGKILL);  // only self-inflicted kills
      ++killed;
    } else {
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "worker exited " << WEXITSTATUS(status);
    }
  }
  for (const pid_t pid : live) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  EXPECT_GE(killed, 1u) << "the kill schedule never fired; weaker test";

  // Invariant 1: every unit completed exactly once.
  {
    const auto stats = queue.stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->done, kUnits);
    EXPECT_GE(stats->reclaims, killed);  // every kill forced a reclaim
  }
  std::map<std::size_t, int> completions;
  {
    std::ifstream log{log_path};
    std::size_t slot = 0;
    while (log >> slot) ++completions[slot];
  }
  ASSERT_EQ(completions.size(), kUnits);
  for (const auto& [slot, count] : completions) {
    EXPECT_EQ(count, 1) << "slot " << slot << " completed " << count
                        << " times";
  }

  // Invariant 2: shard by shard, the fleet store holds exactly the
  // single-process records — same set, none twice. Append order differs
  // with scheduling, so the loaded records are compared sorted.
  const auto sorted_records = [](const std::string& store_dir, std::size_t i) {
    const exp::TrialStore::Shard shard{exp::shard_path(store_dir, i)};
    std::vector<exp::TrialStore::Record> out;
    const auto status = shard.load(out);
    EXPECT_TRUE(status == exp::TrialStore::LoadStatus::kLoaded ||
                status == exp::TrialStore::LoadStatus::kFresh)
        << shard.path();
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tuple{a.key_hash, a.x_bits, a.seed,
                        std::bit_cast<std::uint64_t>(a.value)} <
             std::tuple{b.key_hash, b.x_bits, b.seed,
                        std::bit_cast<std::uint64_t>(b.value)};
    });
    return out;
  };
  for (std::uint64_t s = 0; s < kTestShards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    EXPECT_EQ(sorted_records(single_dir, i), sorted_records(fleet_dir, i))
        << "shard " << i << " differs between fleet and single-process stores";
  }
  EXPECT_EQ(slurp(exp::manifest_path(single_dir)),
            slurp(exp::manifest_path(fleet_dir)));
}

#endif  // __unix__

}  // namespace
}  // namespace lotus
