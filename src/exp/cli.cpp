#include "exp/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace lotus::exp {

namespace {

/// Strict unsigned parse: digits only (no sign, no whitespace — strtoull
/// alone would accept " -1" by wrapping), every character consumed, no
/// overflow.
bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
  }
  const std::string buffer{text};  // strtoull needs a terminator
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(buffer.c_str(), &end, 10);
  if (end != buffer.c_str() + buffer.size() || errno == ERANGE) return false;
  out = parsed;
  return true;
}

}  // namespace

Cli::Cli(CliSpec spec)
    : spec_(std::move(spec)),
      points_(spec_.points),
      seeds_(spec_.seeds),
      seed_(spec_.seed) {}

void Cli::add_option(std::string name, std::string help,
                     std::uint64_t* target) {
  options_.push_back({std::move(name), std::move(help), target});
}

void Cli::add_string(std::string name, std::string help, std::string* target) {
  string_options_.push_back({std::move(name), std::move(help), target});
}

void Cli::add_flag(std::string name, std::string help, bool* target) {
  flags_.push_back({std::move(name), std::move(help), target});
}

ParseStatus Cli::fail(std::string message) {
  error_ = std::move(message);
  return ParseStatus::kError;
}

ParseStatus Cli::parse(int argc, const char* const* argv) {
  const auto value_of = [&](int& i, std::string_view& out) {
    if (i + 1 >= argc) return false;
    out = argv[++i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--help" || arg == "-h") return ParseStatus::kHelp;
    if (arg == "--quick") {
      quick_ = true;
      continue;
    }
    if (arg == "--no-cache") {
      cache_ = false;
      continue;
    }
    if (arg == "--no-store") {
      store_ = false;
      continue;
    }
    if (arg == "--quiet-cache") {
      quiet_cache_ = true;
      continue;
    }
    if (arg == "--points" || arg == "--seeds" || arg == "--seed" ||
        arg == "--threads" || arg == "--nodes" || arg == "--rounds") {
      std::string_view text;
      if (!value_of(i, text)) {
        return fail("missing value for " + std::string{arg});
      }
      std::uint64_t value = 0;
      if (!parse_u64(text, value)) {
        return fail("invalid value '" + std::string{text} + "' for " +
                    std::string{arg});
      }
      if ((arg == "--points" || arg == "--seeds") && value == 0) {
        return fail(std::string{arg} + " must be >= 1");
      }
      if (arg == "--nodes" && value < 2) {
        return fail("--nodes must be >= 2");
      }
      if (arg == "--rounds" && value == 0) {
        return fail("--rounds must be >= 1");
      }
      if ((arg == "--nodes" || arg == "--rounds") &&
          value > std::numeric_limits<std::uint32_t>::max()) {
        return fail(std::string{arg} + " does not fit in 32 bits");
      }
      if (arg == "--points") {
        points_ = static_cast<std::size_t>(value);
        explicit_points_ = true;
      } else if (arg == "--seeds") {
        seeds_ = static_cast<std::size_t>(value);
        explicit_seeds_ = true;
      } else if (arg == "--seed") {
        seed_ = value;
        explicit_seed_ = true;
      } else if (arg == "--nodes") {
        nodes_ = static_cast<std::uint32_t>(value);
      } else if (arg == "--rounds") {
        rounds_ = static_cast<std::uint32_t>(value);
      } else {
        threads_ = static_cast<std::size_t>(value);
      }
      continue;
    }
    if (arg == "--csv" || arg == "--cache-dir") {
      std::string_view text;
      if (!value_of(i, text)) {
        return fail("missing value for " + std::string{arg});
      }
      if (text.empty()) {
        return fail(std::string{arg} + " needs a non-empty path");
      }
      (arg == "--csv" ? csv_ : cache_dir_) = std::string{text};
      continue;
    }
    bool matched = false;
    for (const auto& flag : flags_) {
      if (arg != flag.name) continue;
      *flag.target = true;
      matched = true;
      break;
    }
    for (const auto& option : string_options_) {
      if (matched || arg != option.name) continue;
      std::string_view text;
      if (!value_of(i, text)) {
        return fail("missing value for " + option.name);
      }
      if (text.empty()) {
        return fail(option.name + " needs a non-empty value");
      }
      *option.target = std::string{text};
      matched = true;
      break;
    }
    for (const auto& option : options_) {
      if (matched || arg != option.name) continue;
      std::string_view text;
      if (!value_of(i, text)) {
        return fail("missing value for " + option.name);
      }
      if (!parse_u64(text, *option.target)) {
        return fail("invalid value '" + std::string{text} + "' for " +
                    option.name);
      }
      matched = true;
      break;
    }
    if (!matched) return fail("unknown option '" + std::string{arg} + "'");
  }
  return ParseStatus::kOk;
}

std::optional<int> Cli::handle(int argc, const char* const* argv) {
  switch (parse(argc, argv)) {
    case ParseStatus::kOk:
      return std::nullopt;
    case ParseStatus::kHelp:
      std::cout << usage();
      return 0;
    case ParseStatus::kError:
      std::cerr << spec_.program << ": " << error_ << "\n\n" << usage();
      return 2;
  }
  return 2;  // unreachable
}

std::size_t Cli::points() const noexcept {
  if (quick_ && !explicit_points_) return spec_.quick_points;
  return points_;
}

std::size_t Cli::seeds() const noexcept {
  if (quick_ && !explicit_seeds_) return spec_.quick_seeds;
  return seeds_;
}

std::vector<std::string> Cli::forwarded_args() const {
  std::vector<std::string> args;
  if (quick_) args.emplace_back("--quick");
  const auto value = [&](const char* flag, std::uint64_t v) {
    args.emplace_back(flag);
    args.emplace_back(std::to_string(v));
  };
  if (explicit_points_) value("--points", points());
  if (explicit_seeds_) value("--seeds", seeds());
  if (explicit_seed_) value("--seed", seed_);
  if (threads_ != 0) value("--threads", threads_);
  if (nodes_ != 0) value("--nodes", nodes_);
  if (rounds_ != 0) value("--rounds", rounds_);
  if (!cache_) args.emplace_back("--no-cache");
  return args;
}

std::string Cli::usage() const {
  std::vector<std::pair<std::string, std::string>> lines;
  lines.reserve(8 + options_.size());
  lines.emplace_back(
      "--quick", "fast smoke run (" + std::to_string(spec_.quick_points) +
                     " points, " + std::to_string(spec_.quick_seeds) +
                     (spec_.quick_seeds == 1 ? " seed)" : " seeds)"));
  lines.emplace_back("--points N", "sweep points per curve (default " +
                                       std::to_string(spec_.points) + ")");
  lines.emplace_back("--seeds N", "trials averaged per point (default " +
                                      std::to_string(spec_.seeds) + ")");
  lines.emplace_back(
      "--seed S", "base RNG seed (default " + std::to_string(spec_.seed) + ")");
  lines.emplace_back(
      "--threads N",
      "worker threads (default 0 = LOTUS_SWEEP_THREADS or hardware)");
  lines.emplace_back("--nodes N",
                     "override gossip node count (default: bench scenario)");
  lines.emplace_back("--rounds N",
                     "override gossip round horizon (default: bench scenario)");
  lines.emplace_back("--csv PATH", "mirror every printed table into PATH as CSV");
  lines.emplace_back("--cache-dir DIR",
                     "on-disk trial store directory (default .lotus-cache)");
  lines.emplace_back("--no-cache", "disable the trial cache entirely");
  lines.emplace_back("--no-store",
                     "keep the trial cache in-process only (no disk spill)");
  lines.emplace_back("--quiet-cache", "no cache/store stats on stderr");
  for (const auto& flag : flags_) {
    lines.emplace_back(flag.name, flag.help);
  }
  for (const auto& option : string_options_) {
    lines.emplace_back(option.name + " VALUE", option.help);
  }
  for (const auto& option : options_) {
    lines.emplace_back(option.name + " N",
                       option.help + " (default " +
                           std::to_string(*option.target) + ")");
  }
  lines.emplace_back("--help", "show this message");

  // Align the help column to the widest flag so long bench-specific flags
  // (e.g. --recent-window N) never glue onto their description.
  std::size_t column = 0;
  for (const auto& [flag, help] : lines) {
    column = std::max(column, flag.size() + 2);
  }
  std::ostringstream os;
  os << "usage: " << spec_.program << " [options]\n\n"
     << spec_.summary << "\n\noptions:\n";
  for (const auto& [flag, help] : lines) {
    os << "  " << flag;
    for (std::size_t pad = flag.size(); pad < column; ++pad) os << ' ';
    os << help << "\n";
  }
  if (!spec_.sweeps) {
    os << "\nThis bench runs fixed scenarios: --threads runs them side by "
          "side, while\n--quick/--points/--seeds and the cache flags are "
          "accepted for interface\nuniformity but have no effect on it.\n";
  }
  return os.str();
}

}  // namespace lotus::exp
