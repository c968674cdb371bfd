// lotus_fleet: drive a sweep fleet — N worker processes draining a
// crash-safe work queue into one shared trial store.
//
// subcommands:
//
//   run     build a claim file of work units (one per selected figure
//           bench), fork --workers processes, and drain the queue. Every
//           worker runs benches through its own exp::TrialCache backed by
//           the SAME sharded store directory; per-shard flocks plus
//           append-time dedup make the fleet's store hold exactly the
//           record set a single-process `lotus_figs` run produces, however
//           units land on workers (ctest fleet_smoke checks `lotus_store
//           stats` reports the same per-shard counts and 0 duplicates).
//           Workers killed mid-unit are respawned and the queue's lease
//           machinery re-issues their units.
//   status  print the queue's slot tallies (pending/claimed/done, reclaim
//           and torn counts).
//
// Bench-shaping flags (--quick, --points, --seeds, --seed, --threads,
// --nodes, --rounds, --no-cache) are forwarded to every
// bench a worker runs, exactly as lotus_figs forwards them — a fleet run
// and a lotus_figs run given the same flags demand the same trials.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/registry.h"
#include "exp/trial_cache.h"
#include "exp/trial_store.h"
#include "fleet/queue.h"
#include "fleet/worker.h"

namespace {

using lotus::figs::BenchDef;
using lotus::fleet::WorkQueue;
using lotus::fleet::WorkUnit;

constexpr std::string_view kUsage =
    "usage: lotus_fleet <run|status> [options]\n"
    "\n"
    "Sweep fleet: a crash-safe work queue drained by N worker processes\n"
    "into one trial store. `lotus_fleet <sub> --help` lists each\n"
    "subcommand's options.\n";

int usage_error(const std::string& message) {
  std::cerr << "lotus_fleet: " << message << "\n\n" << kUsage;
  return 2;
}

/// --only value -> bench definitions, registry order (lotus_figs' rules).
std::vector<const BenchDef*> select_benches(const std::string& only) {
  std::vector<const BenchDef*> selected;
  if (only.empty()) {
    for (const auto& bench : lotus::figs::all_benches()) {
      selected.push_back(&bench);
    }
    return selected;
  }
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= only.size()) {
    const auto comma = only.find(',', start);
    const auto end = comma == std::string::npos ? only.size() : comma;
    if (end > start) names.emplace_back(only.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (names.empty()) {
    std::cerr << "lotus_fleet: --only selected no benches\n";
    std::exit(2);
  }
  for (const auto& name : names) {
    if (lotus::figs::find_bench(name) == nullptr) {
      std::cerr << "lotus_fleet: unknown bench '" << name << "'\n";
      std::exit(2);
    }
  }
  for (const auto& bench : lotus::figs::all_benches()) {
    for (const auto& name : names) {
      if (name == bench.name) {
        selected.push_back(&bench);
        break;
      }
    }
  }
  return selected;
}


// --- run ------------------------------------------------------------------

struct RunFlags {
  std::uint64_t workers = 4;
  std::uint64_t lease_ms = 30'000;
  std::uint64_t respawns = 0;  ///< 0 -> 2 * workers
  std::string queue_path;
  std::string only;
};

/// The whole life of one worker process: runs in the forked child, never
/// returns to the parent's code path.
int worker_process(const lotus::exp::Cli& cli, const RunFlags& flags) {
  // Bench tables go to stdout; in a fleet N workers would interleave them
  // into garbage, and the authoritative output is a warm lotus_figs run
  // over the fleet's store — so worker stdout is discarded.
  if (std::freopen("/dev/null", "w", stdout) == nullptr) return 1;

  lotus::exp::TrialCache cache;
  std::unique_ptr<lotus::exp::TrialStore> store;
  if (cli.store_enabled()) {
    store = std::make_unique<lotus::exp::TrialStore>(cli.cache_dir());
    if (store->enabled()) cache.attach_store(*store);
  }

  const auto shared = cli.forwarded_args();
  lotus::exp::CsvSink sink;  // disabled: fleet workers emit no CSV
  const auto runner = [&](const WorkUnit& unit) {
    const BenchDef* bench = lotus::figs::find_bench(unit.bench);
    if (bench == nullptr) return false;
    std::vector<const char*> bench_argv = {bench->name};
    for (const auto& arg : shared) bench_argv.push_back(arg.c_str());
    lotus::exp::Cli bench_cli{bench->spec()};
    if (bench_cli.parse(static_cast<int>(bench_argv.size()),
                        bench_argv.data()) != lotus::exp::ParseStatus::kOk) {
      return false;
    }
    if (bench->run(bench_cli, sink, cache) != 0) return false;
    // Commit this unit's records BEFORE the unit can be marked done: a
    // worker killed after complete() must leave a store that already holds
    // everything the completed unit produced.
    if (store) {
      store->flush();
      if (!store->enabled()) return false;  // flush failed: don't complete
    }
    return true;
  };

  lotus::fleet::Worker worker{
      {.queue_path = flags.queue_path,
       .owner = static_cast<std::uint64_t>(::getpid()),
       .lease_ms = flags.lease_ms},
      runner};
  const auto summary = worker.run();
  std::cerr << "[lotus_fleet worker " << ::getpid() << "] "
            << summary.completed << " completed, " << summary.superseded
            << " superseded, " << summary.failed << " failed\n";
  return summary.io_error || summary.failed > 0 ? 1 : 0;
}

int run_fleet(lotus::exp::Cli& cli, const RunFlags& flags) {
  if (flags.workers == 0) return usage_error("--workers must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(cli.cache_dir(), ec);  // queue lives here
  const std::string queue_path =
      flags.queue_path.empty() ? cli.cache_dir() + "/fleet.queue"
                               : flags.queue_path;
  RunFlags resolved = flags;
  resolved.queue_path = queue_path;

  const auto selected = select_benches(flags.only);
  std::vector<WorkUnit> units;
  units.reserve(selected.size());
  for (const BenchDef* bench : selected) {
    units.push_back({bench->name, WorkUnit::kWholeSweep, WorkUnit::kBenchSeed});
  }
  if (!WorkQueue::create(queue_path, units, flags.lease_ms)) {
    std::cerr << "lotus_fleet: cannot create queue at " << queue_path << "\n";
    return 1;
  }

  const std::uint64_t max_respawns =
      flags.respawns != 0 ? flags.respawns : 2 * flags.workers;
  std::uint64_t respawns_left = max_respawns;

  const auto spawn = [&]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) ::_exit(worker_process(cli, resolved));
    return pid;
  };

  std::size_t alive = 0;
  for (std::uint64_t i = 0; i < flags.workers; ++i) {
    if (spawn() > 0) ++alive;
  }
  if (alive == 0) {
    std::cerr << "lotus_fleet: could not fork any worker\n";
    return 1;
  }

  int exit_code = 0;
  while (alive > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;
    }
    --alive;
    if (WIFSIGNALED(status)) {
      // A worker died mid-unit (OOM kill, crash, operator SIGKILL). Its
      // lease expires and the unit is re-issued; respawn a replacement so
      // the fleet keeps its width, up to a bound that stops a crash loop.
      std::cerr << "[lotus_fleet] worker " << pid << " died on signal "
                << WTERMSIG(status) << "\n";
      if (respawns_left > 0) {
        --respawns_left;
        if (spawn() > 0) ++alive;
      } else {
        exit_code = 1;
      }
    } else if (WEXITSTATUS(status) != 0 && exit_code == 0) {
      exit_code = WEXITSTATUS(status);
    }
  }

  WorkQueue queue{queue_path};
  const auto stats = queue.stats();
  if (!stats) {
    std::cerr << "lotus_fleet: cannot read queue stats\n";
    return 1;
  }
  std::cerr << "[lotus_fleet] " << stats->done << "/" << stats->units
            << " units done, " << stats->reclaims << " reclaims ("
            << max_respawns - respawns_left << " respawns)\n";
  if (stats->done != stats->units) {
    std::cerr << "[lotus_fleet] queue not drained (" << stats->pending
              << " pending, " << stats->claimed << " claimed)\n";
    return 1;
  }
  return exit_code;
}

// --- status -----------------------------------------------------------------

int run_status(const std::string& queue_path) {
  if (queue_path.empty()) return usage_error("status needs --queue PATH");
  WorkQueue queue{queue_path};
  const auto stats = queue.stats();
  if (!stats) {
    std::cerr << "lotus_fleet: no valid queue at " << queue_path << "\n";
    return 1;
  }
  std::cout << queue_path << ": " << stats->units << " units ("
            << stats->pending << " pending, " << stats->claimed
            << " claimed, " << stats->done << " done), " << stats->reclaims
            << " reclaims, " << stats->torn << " torn\n";
  return stats->done == stats->units ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing subcommand");
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (command != "run" && command != "status") {
    return usage_error("unknown subcommand '" + command + "'");
  }

  lotus::exp::Cli cli{{.program = "lotus_fleet " + command,
                       .summary =
                           "Sweep fleet: crash-safe work queue drained by "
                           "forked workers into one trial store.",
                       .seed = 2008}};
  RunFlags run_flags;
  std::string queue_path;
  if (command == "run") {
    cli.add_option("--workers", "worker processes to fork (default 4)",
                   &run_flags.workers);
    cli.add_option("--lease-ms", "claim lease in ms (default 30000)",
                   &run_flags.lease_ms);
    cli.add_option("--respawns",
                   "max crashed-worker respawns (default 2x workers)",
                   &run_flags.respawns);
    cli.add_string("--queue", "claim file path (default CACHE/fleet.queue)",
                   &run_flags.queue_path);
    cli.add_string("--only", "comma-separated subset of benches",
                   &run_flags.only);
  } else {
    cli.add_string("--queue", "claim file path", &queue_path);
  }

  std::vector<const char*> sub_argv;
  sub_argv.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) sub_argv.push_back(argv[i]);
  if (const auto rc = cli.handle(static_cast<int>(sub_argv.size()),
                                 sub_argv.data())) {
    return *rc;
  }

  if (command == "run") return run_fleet(cli, run_flags);
  return run_status(queue_path);
}
