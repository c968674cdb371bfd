// The shared bench command line.
//
// Every figure bench accepts the same flag set — --quick, --points, --seeds,
// --seed, --threads, --csv, --cache-dir, --no-cache, --no-store,
// --quiet-cache, --help — parsed by exp::Cli from a per-bench
// CliSpec holding the defaults. Benches with fixed scenarios (no sweep)
// accept the full set for interface uniformity; --threads fans their runs
// out, the sweep-shaping and cache flags are simply inert there and the
// usage text says so. Bench-specific flags (e.g.
// debug_baseline's --push-size, lotus_figs' --only/--list) register via
// add_option / add_string / add_flag.
//
// parse() never prints or exits, so it is directly unit-testable; benches
// call handle(), which prints usage/help for them and returns the exit code
// when the process should stop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gossip/config.h"

namespace lotus::exp {

/// Per-bench defaults for the shared flags.
struct CliSpec {
  std::string program;
  std::string summary;
  /// False for fixed-scenario benches: --quick/--points/--seeds and the
  /// cache flags are accepted but inert (and documented as such); --threads
  /// still sets how many of their runs go side by side.
  bool sweeps = true;
  std::size_t points = 24;
  std::size_t seeds = 3;
  std::size_t quick_points = 10;
  std::size_t quick_seeds = 1;
  std::uint64_t seed = 2008;
};

enum class ParseStatus { kOk, kHelp, kError };

class Cli {
 public:
  explicit Cli(CliSpec spec);

  /// Registers a bench-specific unsigned value flag (e.g. "--push-size").
  /// `*target` keeps its current value unless the flag is given; it must
  /// outlive parse(). Register before parsing.
  void add_option(std::string name, std::string help, std::uint64_t* target);

  /// Registers a bench-specific string value flag (e.g. "--only a,b"). The
  /// value must be non-empty; same target/lifetime rules as add_option.
  void add_string(std::string name, std::string help, std::string* target);

  /// Registers a bench-specific boolean flag (e.g. "--list"); giving the
  /// flag sets `*target` to true.
  void add_flag(std::string name, std::string help, bool* target);

  /// Parses argv. kError leaves a message in error(); no output, no exit.
  [[nodiscard]] ParseStatus parse(int argc, const char* const* argv);

  /// parse() plus the standard plumbing: prints usage on --help (stdout) or
  /// a parse error (stderr), and returns the process exit code for those
  /// cases. std::nullopt means "parsed fine, run the bench".
  [[nodiscard]] std::optional<int> handle(int argc, const char* const* argv);

  /// Sweep shape after resolving --quick: an explicit --points/--seeds wins
  /// over the quick defaults.
  [[nodiscard]] std::size_t points() const noexcept;
  [[nodiscard]] std::size_t seeds() const noexcept;
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Width of the bench's pool; 0 = sim::sweep_threads() (env or hardware).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  /// CSV output path; empty = no CSV requested.
  [[nodiscard]] const std::string& csv() const noexcept { return csv_; }
  [[nodiscard]] const std::string& program() const noexcept {
    return spec_.program;
  }
  [[nodiscard]] bool quick() const noexcept { return quick_; }
  [[nodiscard]] bool cache_enabled() const noexcept { return cache_; }
  /// Directory holding the on-disk trial store (exp::TrialStore).
  [[nodiscard]] const std::string& cache_dir() const noexcept {
    return cache_dir_;
  }
  /// False after --no-store (or --no-cache, which implies it).
  [[nodiscard]] bool store_enabled() const noexcept {
    return store_ && cache_;
  }
  /// True after --quiet-cache: no cache/store stats on stderr.
  [[nodiscard]] bool quiet_cache() const noexcept { return quiet_cache_; }
  /// --nodes override for the gossip benches; 0 = keep the bench default.
  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }
  /// --rounds override for the gossip benches; 0 = keep the bench default.
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }
  /// Applies --nodes/--rounds onto a gossip config (no-op when not given):
  /// scale sweeps reuse the existing figure benches instead of bespoke
  /// binaries. Note config_hash covers both fields, so overridden runs get
  /// their own trial-store scopes.
  void apply_scale(gossip::GossipConfig& config) const noexcept {
    if (nodes_ != 0) config.nodes = nodes_;
    if (rounds_ != 0) config.rounds = rounds_;
  }
  /// Whether the user gave the flag explicitly (vs the spec's default) —
  /// what a driver forwards to per-bench CLIs, so bench defaults survive.
  [[nodiscard]] bool points_explicit() const noexcept {
    return explicit_points_;
  }
  [[nodiscard]] bool seeds_explicit() const noexcept { return explicit_seeds_; }
  [[nodiscard]] bool seed_explicit() const noexcept { return explicit_seed_; }

  /// The shared flags a multi-bench tool (lotus_figs, lotus_fleet) hands on
  /// to each bench's own Cli: --quick, --points, --seeds, --seed, --threads,
  /// --nodes, --rounds and --no-cache, each only when given, so every
  /// bench keeps its own defaults. CSV, store and stats flags stay with the
  /// tool. One list makes a fleet run and a lotus_figs run demand the same
  /// trials.
  [[nodiscard]] std::vector<std::string> forwarded_args() const;

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string help;
    std::uint64_t* target;
  };
  struct StringOption {
    std::string name;
    std::string help;
    std::string* target;
  };
  struct Flag {
    std::string name;
    std::string help;
    bool* target;
  };

  [[nodiscard]] ParseStatus fail(std::string message);

  CliSpec spec_;
  std::vector<Option> options_;
  std::vector<StringOption> string_options_;
  std::vector<Flag> flags_;

  std::size_t points_;
  std::size_t seeds_;
  std::uint64_t seed_;
  std::size_t threads_ = 0;
  std::string csv_;
  std::string cache_dir_ = ".lotus-cache";
  std::uint32_t nodes_ = 0;
  std::uint32_t rounds_ = 0;
  bool quick_ = false;
  bool cache_ = true;
  bool store_ = true;
  bool quiet_cache_ = false;
  bool explicit_points_ = false;
  bool explicit_seeds_ = false;
  bool explicit_seed_ = false;
  std::string error_;
};

}  // namespace lotus::exp
