// lotus_store: inspect the sharded on-disk trial store (store v2).
//
// The store under a --cache-dir is a manifest plus N shard files, appended
// to by any number of bench/driver processes under per-shard advisory locks
// (see src/exp/trial_store.h for the format). Every append drops records
// whose (key, x, seed) is already committed, under the shard's exclusive
// flock, so a shard never holds duplicates. This tool is the read-only
// side of that design:
//
//   stats    per-shard record counts, file bytes, duplicate tallies, and
//            sidecar index health
//   verify   validate the manifest, every shard's committed-prefix
//            checksum, and every sidecar index (self-checksum, binding to
//            the shard prefix, bloom membership of every covered record,
//            and offset-run coverage); exits 1 on any corruption (CI runs
//            this on the uploaded cache artifact). A bad index is repaired
//            by deleting its .idx file: the next append rebuilds it.
#include <array>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "exp/trial_store.h"

namespace {

using lotus::exp::TrialStore;

constexpr std::string_view kUsage =
    "usage: lotus_store <stats|verify> [options]\n"
    "\n"
    "Inspect the sharded on-disk trial store under a cache directory.\n"
    "\n"
    "subcommands:\n"
    "  stats      per-shard record counts, bytes, duplicate tallies, and\n"
    "             sidecar index health\n"
    "  verify     validate the manifest, every shard checksum, and every\n"
    "             sidecar index (exit 1 on any corruption or mismatch)\n"
    "\n"
    "options:\n"
    "  --cache-dir DIR   store directory (default .lotus-cache)\n"
    "  --help            show this message\n";

struct Args {
  std::string command;
  std::string cache_dir = ".lotus-cache";
};

int usage_error(const std::string& message) {
  std::cerr << "lotus_store: " << message << "\n\n" << kUsage;
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv, int& exit_code) {
  Args args;
  if (argc < 2) {
    exit_code = usage_error("missing subcommand");
    return std::nullopt;
  }
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h") {
    std::cout << kUsage;
    exit_code = 0;
    return std::nullopt;
  }
  if (args.command != "stats" && args.command != "verify") {
    exit_code = usage_error("unknown subcommand '" + args.command + "'");
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      exit_code = 0;
      return std::nullopt;
    }
    if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        exit_code = usage_error("missing value for --cache-dir");
        return std::nullopt;
      }
      const std::string value{argv[++i]};
      if (value.empty()) {
        exit_code = usage_error("--cache-dir needs a non-empty path");
        return std::nullopt;
      }
      args.cache_dir = value;
      continue;
    }
    exit_code = usage_error("unknown option '" + std::string{arg} + "'");
    return std::nullopt;
  }
  return args;
}

const char* status_name(TrialStore::LoadStatus status) {
  switch (status) {
    case TrialStore::LoadStatus::kFresh:
      return "empty";
    case TrialStore::LoadStatus::kLoaded:
      return "ok";
    case TrialStore::LoadStatus::kDiscardedVersion:
      return "VERSION-MISMATCH";
    case TrialStore::LoadStatus::kDiscardedCorrupt:
      return "CORRUPT";
    case TrialStore::LoadStatus::kIoError:
      return "IO-ERROR";
    default:
      return "?";
  }
}

std::size_t count_duplicates(
    const std::vector<TrialStore::Record>& records) {
  std::set<std::array<std::uint64_t, 3>> unique;
  for (const auto& record : records) {
    unique.insert({record.key_hash, record.x_bits, record.seed});
  }
  return records.size() - unique.size();
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Shared manifest gate for the subcommands: prints why a store cannot be
/// enumerated (absent or corrupt manifest).
std::optional<std::uint64_t> require_manifest(const Args& args) {
  const auto shards = TrialStore::peek_manifest(args.cache_dir);
  if (shards) return shards;
  std::error_code ec;
  if (std::filesystem::exists(lotus::exp::manifest_path(args.cache_dir), ec)) {
    std::cerr << "lotus_store: corrupt manifest in " << args.cache_dir
              << " (the next bench run restarts the store cold)\n";
  } else {
    std::cerr << "lotus_store: no trial store at " << args.cache_dir << "\n";
  }
  return std::nullopt;
}

/// One-word sidecar-index health for stats output.
const char* index_health(const TrialStore::Shard& shard,
                         const std::vector<TrialStore::Record>& records) {
  bool corrupt = false;
  const auto index = shard.read_index(&corrupt);
  if (corrupt) return "CORRUPT-INDEX";
  if (!index) {
    // Absent shards legitimately have no index; a populated shard without
    // one still serves, via the sequential-scan fallback.
    return records.empty() ? "no-index" : "NO-INDEX(scan)";
  }
  if (index->covered_count > records.size()) return "STALE-INDEX";
  std::uint64_t chain = 0;
  for (std::uint64_t i = 0; i < index->covered_count; ++i) {
    chain = TrialStore::chain_checksum(chain,
                                       records[static_cast<std::size_t>(i)]);
  }
  if (chain != index->covered_checksum) return "STALE-INDEX";
  if (index->covered_count < records.size()) return "indexed(tail)";
  return "indexed";
}

int run_stats(const Args& args) {
  const auto shards = require_manifest(args);
  if (!shards) return 1;
  std::size_t total_records = 0;
  std::size_t total_duplicates = 0;
  std::uintmax_t total_bytes = 0;
  std::cout << args.cache_dir << ": " << *shards << " shards\n";
  for (std::uint64_t i = 0; i < *shards; ++i) {
    const std::string path = lotus::exp::shard_path(args.cache_dir,
                                                    static_cast<std::size_t>(i));
    const TrialStore::Shard shard{path};
    std::vector<TrialStore::Record> records;
    const auto status = shard.load(records);
    const auto duplicates = count_duplicates(records);
    const auto bytes = file_bytes(path);
    total_records += records.size();
    total_duplicates += duplicates;
    total_bytes += bytes;
    std::cout << "  shard " << i << ": " << records.size() << " records, "
              << bytes << " bytes, " << duplicates << " duplicates ["
              << status_name(status) << ", "
              << index_health(shard, records) << "]\n";
  }
  std::cout << "total: " << total_records << " records, " << total_bytes
            << " bytes, " << total_duplicates << " duplicates\n";
  return 0;
}

/// Deep sidecar-index validation against the shard's loaded records:
/// binding checksum, bloom membership of every covered record, and the
/// run list locating every covered record under its own key. (Structural
/// checks — self-checksum, sortedness, exact [0, covered) tiling — already
/// ran inside read_index.) Returns false (with a diagnostic on stdout)
/// when the index exists but lies; a *missing* index is legal (readers
/// fall back to a sequential scan) and only noted. `indexed` reports
/// whether a valid index was found, so the caller need not re-read it.
bool verify_index(std::uint64_t shard_no, const TrialStore::Shard& shard,
                  const std::vector<TrialStore::Record>& records,
                  bool& indexed) {
  indexed = false;
  bool corrupt = false;
  const auto index = shard.read_index(&corrupt);
  if (corrupt) {
    std::cout << "shard " << shard_no
              << ": CORRUPT-INDEX (self-checksum or structure)\n";
    return false;
  }
  if (!index) {
    if (!records.empty()) {
      std::cout << "shard " << shard_no
                << ": note: no sidecar index (reads fall back to a "
                   "sequential scan; the next append rebuilds it)\n";
    }
    return true;
  }
  indexed = true;
  if (index->covered_count > records.size()) {
    std::cout << "shard " << shard_no << ": STALE-INDEX (covers "
              << index->covered_count << " of " << records.size()
              << " records)\n";
    return false;
  }
  std::uint64_t chain = 0;
  for (std::uint64_t i = 0; i < index->covered_count; ++i) {
    chain = TrialStore::chain_checksum(chain,
                                       records[static_cast<std::size_t>(i)]);
  }
  if (chain != index->covered_checksum) {
    std::cout << "shard " << shard_no
              << ": STALE-INDEX (binding checksum mismatch)\n";
    return false;
  }
  for (std::uint64_t i = 0; i < index->covered_count; ++i) {
    const auto& record = records[static_cast<std::size_t>(i)];
    if (!index->may_contain(record.key_hash)) {
      std::cout << "shard " << shard_no << ": BAD-INDEX (record " << i
                << " key not in bloom filter)\n";
      return false;
    }
    bool located = false;
    for (const auto& run : index->runs_for(record.key_hash)) {
      if (i >= run.first && i < run.first + run.count) {
        located = true;
        break;
      }
    }
    if (!located) {
      std::cout << "shard " << shard_no << ": BAD-INDEX (record " << i
                << " not covered by its key's offset runs)\n";
      return false;
    }
  }
  return true;
}

int run_verify(const Args& args) {
  const auto shards = require_manifest(args);
  if (!shards) return 1;
  std::size_t bad = 0;
  std::size_t total_records = 0;
  std::size_t indexed = 0;
  for (std::uint64_t i = 0; i < *shards; ++i) {
    const TrialStore::Shard shard{lotus::exp::shard_path(
        args.cache_dir, static_cast<std::size_t>(i))};
    std::vector<TrialStore::Record> records;
    const auto status = shard.load(records);
    total_records += records.size();
    if (status != TrialStore::LoadStatus::kLoaded &&
        status != TrialStore::LoadStatus::kFresh) {
      ++bad;
      std::cout << "shard " << i << ": " << status_name(status) << "\n";
      continue;
    }
    bool shard_indexed = false;
    if (!verify_index(i, shard, records, shard_indexed)) {
      ++bad;
      continue;
    }
    if (shard_indexed) ++indexed;
  }
  if (bad > 0) {
    std::cout << "FAIL: " << bad << "/" << *shards
              << " shards or indexes invalid\n";
    return 1;
  }
  std::cout << "OK: " << *shards << " shards (" << indexed << " indexed), "
            << total_records
            << " records, every committed prefix and index verified\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto args = parse_args(argc, argv, exit_code);
  if (!args) return exit_code;
  if (args->command == "stats") return run_stats(*args);
  return run_verify(*args);
}
