// lotus_figs: run many figure families in ONE process against ONE shared
// trial cache and on-disk trial store.
//
// fig1/fig2/fig3 and the curve benches probe overlapping (config, x, seed)
// grids; run separately, each process recomputes the overlap. This driver
// runs every registered bench (or a --only subset) through one
// exp::TrialCache backed by one sharded exp::TrialStore under --cache-dir,
// so each distinct trial is computed once per *machine*: a warm rerun
// serves every known grid point from disk — loading only the shards the
// selected benches' trial spaces route to — and its stdout is
// byte-identical to the cold run. Appends take per-shard advisory locks and
// drop records another process already committed, so several driver
// processes may share one cache directory without doubling a record.
//
// Flag forwarding: --quick/--no-cache go to every bench; --points/--seeds/
// --seed/--threads are forwarded only when given explicitly, so each bench
// otherwise keeps its own defaults (token_rare's seed is 9, the figures'
// 2008). Per-figure cache chatter is off by default — one summary line on
// stderr at the end covers the whole run (--quiet-cache silences even
// that). CSV sections are prefixed "<bench>/" so one --csv file carries
// every figure without name collisions.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "exp/trial_cache.h"
#include "exp/trial_store.h"

namespace {

using lotus::figs::BenchDef;

/// --only value -> bench definitions, preserving registry order so a warm
/// run replays the cold run's order. Exits like a CLI error on an unknown
/// name.
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
    std::cerr << "lotus_figs: --only selected no benches\n";
    std::exit(2);
  }
  for (const auto& bench : lotus::figs::all_benches()) {
    for (const auto& name : names) {
      if (name == bench.name) {
        selected.push_back(&bench);
        break;
      }
    }
  }
  for (const auto& name : names) {
    if (lotus::figs::find_bench(name) == nullptr) {
      std::cerr << "lotus_figs: unknown bench '" << name
                << "' (--list shows the registry)\n";
      std::exit(2);
    }
  }
  return selected;
}

/// The argv a bench would have been invoked with standalone, minus anything
/// the driver owns (CSV, store, stats).
std::vector<std::string> forwarded_args(const lotus::exp::Cli& cli) {
  std::vector<std::string> args;
  if (cli.quick()) args.emplace_back("--quick");
  if (cli.points_explicit()) {
    args.emplace_back("--points");
    args.emplace_back(std::to_string(cli.points()));
  }
  if (cli.seeds_explicit()) {
    args.emplace_back("--seeds");
    args.emplace_back(std::to_string(cli.seeds()));
  }
  if (cli.seed_explicit()) {
    args.emplace_back("--seed");
    args.emplace_back(std::to_string(cli.seed()));
  }
  if (cli.threads() != 0) {
    args.emplace_back("--threads");
    args.emplace_back(std::to_string(cli.threads()));
  }
  if (cli.nodes() != 0) {
    args.emplace_back("--nodes");
    args.emplace_back(std::to_string(cli.nodes()));
  }
  if (cli.rounds() != 0) {
    args.emplace_back("--rounds");
    args.emplace_back(std::to_string(cli.rounds()));
  }
  if (!cli.cache_enabled()) args.emplace_back("--no-cache");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lotus;
  exp::Cli cli{{.program = "lotus_figs",
                .summary =
                    "Run several figure families in one process against one "
                    "shared trial cache + on-disk store.",
                .seed = 2008}};
  std::string only;
  bool list = false;
  cli.add_flag("--list", "list the registered benches and exit", &list);
  cli.add_string("--only", "comma-separated subset of benches to run", &only);
  if (const auto rc = cli.handle(argc, argv)) return *rc;
  if (list) {
    for (const auto& bench : figs::all_benches()) {
      std::cout << bench.name << "\n";
    }
    return 0;
  }

  const auto selected = select_benches(only);
  exp::CsvSink sink = exp::open_csv_or_exit(cli.csv(), cli.program());
  exp::TrialCache cache;
  const std::unique_ptr<exp::TrialStore> store = exp::open_store(cache, cli);

  const auto shared = forwarded_args(cli);
  int exit_code = 0;
  bool first = true;
  for (const BenchDef* bench : selected) {
    std::vector<const char*> bench_argv = {bench->name};
    for (const auto& arg : shared) bench_argv.push_back(arg.c_str());
    exp::Cli bench_cli{bench->spec()};
    if (bench_cli.parse(static_cast<int>(bench_argv.size()),
                        bench_argv.data()) != exp::ParseStatus::kOk) {
      std::cerr << "lotus_figs: internal flag forwarding failed for "
                << bench->name << ": " << bench_cli.error() << "\n";
      return 2;
    }
    if (!first) std::cout << "\n";
    first = false;
    sink.set_section_prefix(std::string{bench->name} + "/");
    int rc = 0;
    try {
      rc = bench->run(bench_cli, sink, cache);
    } catch (const std::invalid_argument& e) {
      std::cerr << "lotus_figs: " << bench->name
                << ": invalid configuration: " << e.what() << "\n";
      return 2;
    }
    if (rc != 0 && exit_code == 0) exit_code = rc;
  }
  if (store) store->flush();
  cache.report(cli.program(), cli.cache_enabled() && !cli.quiet_cache());
  return exit_code;
}
