#include "exp/trial_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "exp/cli.h"
#include "exp/trial_cache.h"
#include "sim/rng.h"

namespace lotus::exp {

namespace {

using Record = TrialStore::Record;
using LoadStatus = TrialStore::LoadStatus;
using IndexRun = TrialStore::Shard::IndexRun;
using Index = TrialStore::Shard::Index;

constexpr std::size_t kHeaderBytes = TrialStore::kHeaderBytes;
constexpr std::size_t kRecordBytes = TrialStore::kRecordBytes;
constexpr std::size_t kIndexHeaderBytes = TrialStore::kIndexHeaderBytes;
constexpr std::size_t kIndexRunBytes = 3 * sizeof(std::uint64_t);

// Salts for the two bloom probes; arbitrary odd constants.
constexpr std::uint64_t kBloomSalt1 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kBloomSalt2 = 0xc2b2ae3d27d4eb4fULL;
// Caps keeping a corrupt index header from driving huge allocations.
constexpr std::uint64_t kMaxBloomWords = std::uint64_t{1} << 22;
constexpr std::uint64_t kMaxIndexRuns = std::uint64_t{1} << 32;

// Shard files are written in host byte order: the store is a per-machine
// cache, not an interchange format, and a file moved across architectures
// simply fails the magic/checksum validation and is discarded — the safe
// outcome.

/// RAII fd that releases its flock (via close) on scope exit.
///
/// After the flock is acquired the path is re-stat'ed and compared to the
/// open fd: opening a store over a corrupt manifest unlinks every shard
/// file while other processes may be blocked on the *old* inode's lock, and
/// a writer that appended to the unlinked inode would lose its records.
/// When the directory entry moved on, the open is retried on the new file.
class LockedFile {
 public:
  LockedFile(const std::string& path, int open_flags, int lock_op) {
    // Bounded retries: each retry means another process replaced the file
    // while we waited for the lock, which cannot recur unboundedly in
    // practice; the cap just guards against a pathological livelock.
    for (int attempt = 0; attempt < 64; ++attempt) {
      fd_ = ::open(path.c_str(), open_flags | O_CLOEXEC, 0644);
      if (fd_ < 0) {
        error_ = errno;
        return;
      }
      // flock can be interrupted by signals; retry rather than failing the
      // whole store over an EINTR.
      while (::flock(fd_, lock_op) != 0) {
        if (errno != EINTR) {
          error_ = errno;  // captured before close() can clobber errno
          close_fd();
          return;
        }
      }
      struct stat by_fd{};
      struct stat by_path{};
      if (::fstat(fd_, &by_fd) != 0) {
        error_ = errno;
        close_fd();
        return;
      }
      if (::stat(path.c_str(), &by_path) != 0) {
        if (errno == ENOENT) {
          // Unlinked while we waited. With O_CREAT the retry recreates it;
          // without, the file is simply absent now.
          close_fd();
          if ((open_flags & O_CREAT) != 0) continue;
          error_ = ENOENT;
          return;
        }
        error_ = errno;
        close_fd();
        return;
      }
      if (by_fd.st_dev == by_path.st_dev && by_fd.st_ino == by_path.st_ino) {
        return;  // locked the file the path currently names
      }
      close_fd();  // replaced while we waited; retry on the new file
    }
    error_ = ELOOP;
  }
  ~LockedFile() { close_fd(); }
  LockedFile(const LockedFile&) = delete;
  LockedFile& operator=(const LockedFile&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The errno of the failed open/flock when !ok().
  [[nodiscard]] int error() const noexcept { return error_; }

  [[nodiscard]] std::optional<std::uint64_t> size() const {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
  }

  [[nodiscard]] bool read_at(std::uint64_t offset, void* buffer,
                             std::size_t bytes) const {
    auto* out = static_cast<char*>(buffer);
    while (bytes > 0) {
      const ::ssize_t got =
          ::pread(fd_, out, bytes, static_cast<::off_t>(offset));
      if (got < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (got == 0) return false;  // unexpected EOF
      out += got;
      offset += static_cast<std::uint64_t>(got);
      bytes -= static_cast<std::size_t>(got);
    }
    return true;
  }

  [[nodiscard]] bool write_at(std::uint64_t offset, const void* buffer,
                              std::size_t bytes) const {
    const auto* in = static_cast<const char*>(buffer);
    while (bytes > 0) {
      const ::ssize_t put =
          ::pwrite(fd_, in, bytes, static_cast<::off_t>(offset));
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      in += put;
      offset += static_cast<std::uint64_t>(put);
      bytes -= static_cast<std::size_t>(put);
    }
    return true;
  }

  [[nodiscard]] bool truncate(std::uint64_t bytes) const {
    while (::ftruncate(fd_, static_cast<::off_t>(bytes)) != 0) {
      if (errno != EINTR) return false;
    }
    return true;
  }

  /// Explicitly drops the flock while keeping the fd open. Required when a
  /// memory mapping of this fd outlives the LockedFile: a mapping pins the
  /// open file description beyond close(), and flock locks are only
  /// released when the description is — so a still-locked mapped fd would
  /// hold the lock for the mapping's whole lifetime, starving every
  /// writer's exclusive append (including our own flush: a self-deadlock).
  void unlock() const noexcept {
    while (::flock(fd_, LOCK_UN) != 0) {
      if (errno != EINTR) break;
    }
  }

 private:
  void close_fd() noexcept {
    if (fd_ >= 0) ::close(fd_);  // closing drops the flock
    fd_ = -1;
  }

  int fd_ = -1;
  int error_ = 0;
};

struct Header {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t count;
  std::uint64_t checksum;
};
static_assert(sizeof(Header) == kHeaderBytes);

struct TrialKey {
  std::uint64_t key_hash;
  std::uint64_t x_bits;
  std::uint64_t seed;
  bool operator==(const TrialKey&) const = default;
};
struct TrialKeyHash {
  std::size_t operator()(const TrialKey& k) const noexcept {
    return static_cast<std::size_t>(
        TrialStore::trial_key_mix(k.key_hash, k.x_bits, k.seed));
  }
};

void encode_record(const Record& record, std::uint64_t out[4]) {
  out[0] = record.key_hash;
  out[1] = record.x_bits;
  out[2] = record.seed;
  out[3] = std::bit_cast<std::uint64_t>(record.value);
}

Record decode_record(const std::uint64_t in[4]) {
  return {in[0], in[1], in[2], std::bit_cast<double>(in[3])};
}

/// Serialises records into a byte buffer, chaining `checksum` over them.
std::vector<char> encode_records(std::span<const Record> records,
                                 std::uint64_t& checksum) {
  std::vector<char> bytes(records.size() * kRecordBytes);
  char* cursor = bytes.data();
  for (const auto& record : records) {
    std::uint64_t words[4];
    encode_record(record, words);
    std::memcpy(cursor, words, kRecordBytes);
    cursor += kRecordBytes;
    checksum = TrialStore::chain_checksum(checksum, record);
  }
  return bytes;
}

/// Validates the header + committed prefix on an already-locked fd; fills
/// `out` and the trusted header on success.
LoadStatus read_committed_prefix(const LockedFile& file,
                                 std::vector<Record>& out, Header& header) {
  const auto size = file.size();
  if (!size) return LoadStatus::kIoError;
  if (*size == 0) return LoadStatus::kFresh;
  if (*size < kHeaderBytes) return LoadStatus::kDiscardedCorrupt;
  if (!file.read_at(0, &header, sizeof(header))) return LoadStatus::kIoError;
  if (header.magic != TrialStore::kMagic) {
    return LoadStatus::kDiscardedCorrupt;
  }
  if (header.version != TrialStore::kFormatVersion) {
    return LoadStatus::kDiscardedVersion;
  }
  // The header must describe a full prefix: a file cut mid-record (or
  // mid-log) cannot be trusted at all, because the checksum covers exactly
  // `count` records. Bytes past the prefix are a torn append — ignored here
  // and overwritten by the next append. Divide rather than multiply: a
  // corrupt count word must not overflow its way past this check.
  if (header.count > (*size - kHeaderBytes) / kRecordBytes) {
    return LoadStatus::kDiscardedCorrupt;
  }
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(header.count));
  std::uint64_t running = 0;
  std::uint64_t offset = kHeaderBytes;
  for (std::uint64_t i = 0; i < header.count; ++i) {
    std::uint64_t words[4];
    // The count bound above proved these bytes exist (and LOCK_SH excludes
    // writers), so a failed read here is an I/O fault, not truncation.
    if (!file.read_at(offset, words, kRecordBytes)) {
      return LoadStatus::kIoError;
    }
    const Record record = decode_record(words);
    running = TrialStore::chain_checksum(running, record);
    records.push_back(record);
    offset += kRecordBytes;
  }
  if (running != header.checksum) return LoadStatus::kDiscardedCorrupt;
  out = std::move(records);
  return LoadStatus::kLoaded;
}

bool write_header(const LockedFile& file, std::uint64_t count,
                  std::uint64_t checksum) {
  const Header header{TrialStore::kMagic, TrialStore::kFormatVersion, count,
                      checksum};
  return file.write_at(0, &header, sizeof(header));
}

// --- Sidecar index --------------------------------------------------------

/// One SplitMix mix of a single word (split_mix64 advances its state
/// argument; these helpers want the pure function).
std::uint64_t mix64(std::uint64_t word) {
  std::uint64_t state = word;
  return sim::split_mix64(state);
}

/// SplitMix fold over a word sequence: the index's self-checksum.
std::uint64_t fold_words(std::uint64_t state, const std::uint64_t* words,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state = mix64(state ^ words[i]);
  }
  return state;
}

void bloom_set(std::vector<std::uint64_t>& bloom, std::uint64_t key_hash) {
  const std::uint64_t bits = bloom.size() * 64;
  const std::uint64_t a = mix64(key_hash ^ kBloomSalt1) & (bits - 1);
  const std::uint64_t b = mix64(key_hash ^ kBloomSalt2) & (bits - 1);
  bloom[a / 64] |= std::uint64_t{1} << (a % 64);
  bloom[b / 64] |= std::uint64_t{1} << (b % 64);
}

bool bloom_test(const std::vector<std::uint64_t>& bloom,
                std::uint64_t key_hash) {
  if (bloom.empty()) return true;  // no filter: cannot rule anything out
  const std::uint64_t bits = bloom.size() * 64;
  const std::uint64_t a = mix64(key_hash ^ kBloomSalt1) & (bits - 1);
  const std::uint64_t b = mix64(key_hash ^ kBloomSalt2) & (bits - 1);
  return ((bloom[a / 64] >> (a % 64)) & 1) != 0 &&
         ((bloom[b / 64] >> (b % 64)) & 1) != 0;
}

/// Sized for ~16 bits per distinct run (distinct keys <= runs), power of
/// two so probes are a mask, never below 256 bits.
std::vector<std::uint64_t> build_bloom(const std::vector<IndexRun>& runs) {
  const std::uint64_t bits = std::bit_ceil(
      std::max<std::uint64_t>(256, static_cast<std::uint64_t>(runs.size()) * 16));
  std::vector<std::uint64_t> bloom(static_cast<std::size_t>(bits / 64), 0);
  for (const auto& run : runs) bloom_set(bloom, run.key_hash);
  return bloom;
}

bool run_order(const IndexRun& a, const IndexRun& b) {
  return a.key_hash != b.key_hash ? a.key_hash < b.key_hash
                                  : a.first < b.first;
}

/// Coalesces `records` (stored at record indices first_index,
/// first_index+1, …) into maximal file-order runs appended to `out`. No
/// sorting: callers sort once at the end.
void append_file_order_runs(std::vector<IndexRun>& out,
                            std::uint64_t first_index,
                            std::span<const Record> records) {
  std::uint64_t at = first_index;
  for (const auto& record : records) {
    if (!out.empty() && out.back().key_hash == record.key_hash &&
        out.back().first + out.back().count == at) {
      ++out.back().count;
    } else {
      out.push_back({record.key_hash, at, 1});
    }
    ++at;
  }
}

/// Folds `records` (appended contiguously at [first_index, …)) into the
/// sorted run list. Because the new records sit at the end of the file,
/// only the FIRST fresh run can possibly continue an existing run (one
/// ending exactly at first_index with the same key) — every later fresh
/// run starts where its predecessor ended — so the merge is one linear
/// probe, not a quadratic join, and one final sort restores (key, first)
/// order.
void extend_runs(std::vector<IndexRun>& runs, std::uint64_t first_index,
                 std::span<const Record> records) {
  std::vector<IndexRun> fresh;
  append_file_order_runs(fresh, first_index, records);
  if (fresh.empty()) return;
  auto begin = fresh.begin();
  for (auto& existing : runs) {
    if (existing.key_hash == begin->key_hash &&
        existing.first + existing.count == begin->first) {
      existing.count += begin->count;
      ++begin;
      break;
    }
  }
  runs.insert(runs.end(), begin, fresh.end());
  std::sort(runs.begin(), runs.end(), run_order);
}

std::vector<std::uint64_t> serialize_index(const Index& index) {
  std::vector<std::uint64_t> words;
  words.reserve(7 + index.bloom.size() + 3 * index.runs.size());
  words.push_back(TrialStore::kIndexMagic);
  words.push_back(TrialStore::kIndexVersion);
  words.push_back(index.covered_count);
  words.push_back(index.covered_checksum);
  words.push_back(static_cast<std::uint64_t>(index.bloom.size()));
  words.push_back(static_cast<std::uint64_t>(index.runs.size()));
  words.push_back(0);  // self-checksum patched below
  words.insert(words.end(), index.bloom.begin(), index.bloom.end());
  for (const auto& run : index.runs) {
    words.push_back(run.key_hash);
    words.push_back(run.first);
    words.push_back(run.count);
  }
  // The checksum covers every word except its own slot.
  std::uint64_t check = fold_words(TrialStore::kIndexMagic, words.data(), 6);
  check = fold_words(check, words.data() + 7, words.size() - 7);
  words[6] = check;
  return words;
}

/// Writes the index to a temp file and atomically renames it into place, so
/// a concurrent reader sees the old index or the new one, never a torn one.
/// Best-effort: callers ignore the result beyond cleanup.
bool write_index_file(const std::string& index_path, const Index& index) {
  const std::vector<std::uint64_t> words = serialize_index(index);
  const std::string tmp = index_path + ".tmp";
  {
    // Truncate only once the exclusive flock is held: appends to a shard
    // unlinked by a corrupt-manifest sweep (old inode) and to its successor
    // (new inode) can both reach this with the same tmp path, and O_TRUNC
    // at open would clip the lock holder's bytes.
    const LockedFile file{tmp, O_RDWR | O_CREAT, LOCK_EX};
    if (!file.ok() || !file.truncate(0) ||
        !file.write_at(0, words.data(), words.size() * sizeof(std::uint64_t))) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  if (std::rename(tmp.c_str(), index_path.c_str()) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

/// Rebuilds runs from the full committed prefix read off the locked shard
/// fd — the index-was-stale path; the common append path extends runs
/// incrementally instead.
std::optional<std::vector<IndexRun>> runs_from_fd(const LockedFile& file,
                                                  std::uint64_t count) {
  std::vector<IndexRun> runs;
  std::uint64_t offset = kHeaderBytes;
  constexpr std::uint64_t kBatch = 4096;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(kBatch) * 4);
  std::vector<Record> batch;
  batch.reserve(static_cast<std::size_t>(kBatch));
  for (std::uint64_t i = 0; i < count; i += kBatch) {
    const std::uint64_t n = std::min(kBatch, count - i);
    // One pread per batch, not per record: a rebuild runs under the
    // shard's exclusive flock, so every syscall here stalls other writers.
    if (!file.read_at(offset, words.data(),
                      static_cast<std::size_t>(n) * kRecordBytes)) {
      return std::nullopt;
    }
    offset += n * kRecordBytes;
    batch.clear();
    for (std::uint64_t j = 0; j < n; ++j) {
      batch.push_back(decode_record(&words[static_cast<std::size_t>(j) * 4]));
    }
    // Batches are contiguous, so file-order coalescing continues across
    // the batch boundary; sort once at the end.
    append_file_order_runs(runs, i, batch);
  }
  std::sort(runs.begin(), runs.end(), run_order);
  return runs;
}

/// Brings the sidecar index up to date after a successful append of
/// `records` at [old_count, new_count), under the shard's exclusive flock.
/// Fast path: the existing index covered exactly the old prefix and is
/// extended in memory; otherwise the runs are rebuilt from the shard fd.
void update_index_after_append(const LockedFile& file,
                               const std::string& index_path,
                               std::optional<Index> existing,
                               std::uint64_t old_count,
                               std::uint64_t old_checksum,
                               std::span<const Record> records,
                               std::uint64_t new_count,
                               std::uint64_t new_checksum) {
  Index updated;
  if (existing && existing->covered_count == old_count &&
      existing->covered_checksum == old_checksum) {
    updated.runs = std::move(existing->runs);
    extend_runs(updated.runs, old_count, records);
  } else {
    auto rebuilt = runs_from_fd(file, new_count);
    if (!rebuilt) return;  // best-effort: leave the (stale) index alone
    updated.runs = std::move(*rebuilt);
  }
  updated.covered_count = new_count;
  updated.covered_checksum = new_checksum;
  updated.bloom = build_bloom(updated.runs);
  (void)write_index_file(index_path, updated);
}

// --- Manifest -------------------------------------------------------------

/// Folds the manifest fields so a stray write to manifest.bin is detected
/// rather than silently re-routing every key to the wrong shard.
std::uint64_t manifest_check(std::uint64_t version, std::uint64_t shards) {
  std::uint64_t state = TrialStore::kManifestMagic ^ version;
  std::uint64_t check = sim::split_mix64(state);
  state ^= shards;
  check ^= sim::split_mix64(state);
  return check;
}

/// kIoError (could not open or read an existing file) must never be
/// conflated with kInvalid (readable but wrong content): only the latter
/// justifies the destructive restart-cold recovery. A transient EMFILE or
/// EACCES under a fleet of writers just disables this process's store.
struct ManifestResult {
  enum class Status { kOk, kIoError, kInvalid } status;
  std::uint64_t shards = 0;
};

ManifestResult read_manifest(const std::string& path) {
  const LockedFile file{path, O_RDONLY, LOCK_SH};
  if (!file.ok()) return {ManifestResult::Status::kIoError};
  const auto size = file.size();
  if (!size) return {ManifestResult::Status::kIoError};
  if (*size < sizeof(Header)) return {ManifestResult::Status::kInvalid};
  Header words{};
  if (!file.read_at(0, &words, sizeof(words))) {
    return {ManifestResult::Status::kIoError};
  }
  if (words.magic != TrialStore::kManifestMagic ||
      words.version != TrialStore::kFormatVersion || words.count == 0 ||
      words.count > TrialStore::kMaxShards ||
      words.checksum != manifest_check(words.version, words.count)) {
    return {ManifestResult::Status::kInvalid};
  }
  return {ManifestResult::Status::kOk, words.count};
}

bool write_manifest(const std::string& path, std::uint64_t shards) {
  // No O_TRUNC: a shared-lock reader (lotus_store peeking without the
  // directory lock) must never observe a zero-length manifest. Truncate
  // only once the exclusive flock is held.
  const LockedFile file{path, O_RDWR | O_CREAT, LOCK_EX};
  if (!file.ok() || !file.truncate(0)) return false;
  const Header words{TrialStore::kManifestMagic, TrialStore::kFormatVersion,
                     shards, manifest_check(TrialStore::kFormatVersion,
                                            shards)};
  return file.write_at(0, &words, sizeof(words));
}

}  // namespace

std::uint64_t TrialStore::trial_key_mix(std::uint64_t key_hash,
                                        std::uint64_t x_bits,
                                        std::uint64_t seed) {
  // The stream pass mixes each word into the running state, so permuted
  // components collide no more than chance.
  std::uint64_t state = key_hash;
  std::uint64_t h = sim::split_mix64(state);
  state ^= x_bits;
  h ^= sim::split_mix64(state);
  state ^= seed;
  h ^= sim::split_mix64(state);
  return h;
}

std::uint64_t TrialStore::chain_checksum(std::uint64_t checksum,
                                         const Record& record) {
  std::uint64_t state = checksum ^ record.key_hash;
  checksum = sim::split_mix64(state);
  state ^= record.x_bits;
  checksum ^= sim::split_mix64(state);
  state ^= record.seed;
  checksum ^= sim::split_mix64(state);
  state ^= std::bit_cast<std::uint64_t>(record.value);
  checksum ^= sim::split_mix64(state);
  return checksum;
}

// --- Shard::Index ---------------------------------------------------------

bool TrialStore::Shard::Index::may_contain(
    std::uint64_t key_hash) const noexcept {
  return bloom_test(bloom, key_hash);
}

std::span<const IndexRun> TrialStore::Shard::Index::runs_for(
    std::uint64_t key_hash) const noexcept {
  const auto lo = std::lower_bound(
      runs.begin(), runs.end(), key_hash,
      [](const IndexRun& run, std::uint64_t key) { return run.key_hash < key; });
  auto hi = lo;
  while (hi != runs.end() && hi->key_hash == key_hash) ++hi;
  return {runs.data() + (lo - runs.begin()),
          static_cast<std::size_t>(hi - lo)};
}

// --- Shard::Mapping -------------------------------------------------------

TrialStore::Shard::Mapping::~Mapping() { reset(); }

TrialStore::Shard::Mapping::Mapping(Mapping&& other) noexcept
    : status_(other.status_),
      base_(other.base_),
      map_bytes_(other.map_bytes_),
      count_(other.count_),
      has_index_(other.has_index_),
      index_(std::move(other.index_)) {
  other.base_ = nullptr;
  other.map_bytes_ = 0;
  other.count_ = 0;
  other.has_index_ = false;
  other.status_ = LoadStatus::kFresh;
}

TrialStore::Shard::Mapping& TrialStore::Shard::Mapping::operator=(
    Mapping&& other) noexcept {
  if (this != &other) {
    reset();
    status_ = other.status_;
    base_ = other.base_;
    map_bytes_ = other.map_bytes_;
    count_ = other.count_;
    has_index_ = other.has_index_;
    index_ = std::move(other.index_);
    other.base_ = nullptr;
    other.map_bytes_ = 0;
    other.count_ = 0;
    other.has_index_ = false;
    other.status_ = LoadStatus::kFresh;
  }
  return *this;
}

void TrialStore::Shard::Mapping::reset() noexcept {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
  base_ = nullptr;
  map_bytes_ = 0;
  count_ = 0;
  has_index_ = false;
  index_ = Index{};
  status_ = LoadStatus::kFresh;
}

Record TrialStore::Shard::Mapping::record(std::size_t i) const noexcept {
  std::uint64_t words[4];
  std::memcpy(words,
              static_cast<const char*>(base_) + kHeaderBytes +
                  i * kRecordBytes,
              kRecordBytes);
  return decode_record(words);
}

bool TrialStore::Shard::Mapping::may_contain(
    std::uint64_t key_hash) const noexcept {
  if (count_ == 0) return false;
  if (!has_index_) return true;
  if (index_.may_contain(key_hash)) return true;
  // The bloom only rules out the covered prefix; the tail must be scanned.
  for (std::size_t i = static_cast<std::size_t>(index_.covered_count);
       i < count_; ++i) {
    if (record(i).key_hash == key_hash) return true;
  }
  return false;
}

std::size_t TrialStore::Shard::Mapping::collect(
    std::uint64_t key_hash, std::vector<Record>& out) const {
  if (count_ == 0 || base_ == nullptr) return 0;
  std::size_t added = 0;
  if (has_index_) {
    if (index_.may_contain(key_hash)) {
      for (const auto& run : index_.runs_for(key_hash)) {
        for (std::uint64_t i = 0; i < run.count; ++i) {
          out.push_back(record(static_cast<std::size_t>(run.first + i)));
          ++added;
        }
      }
    }
    for (std::size_t i = static_cast<std::size_t>(index_.covered_count);
         i < count_; ++i) {
      const Record candidate = record(i);
      if (candidate.key_hash == key_hash) {
        out.push_back(candidate);
        ++added;
      }
    }
  } else {
    for (std::size_t i = 0; i < count_; ++i) {
      const Record candidate = record(i);
      if (candidate.key_hash == key_hash) {
        out.push_back(candidate);
        ++added;
      }
    }
  }
  return added;
}

// --- Shard ----------------------------------------------------------------

std::string TrialStore::Shard::index_path() const {
  if (path_.ends_with(".bin")) {
    return path_.substr(0, path_.size() - 4) + ".idx";
  }
  return path_ + ".idx";
}

std::optional<Index> TrialStore::Shard::read_index(bool* corrupt) const {
  if (corrupt != nullptr) *corrupt = false;
  const LockedFile file{index_path(), O_RDONLY, LOCK_SH};
  if (!file.ok()) return std::nullopt;  // absent or unreadable: no index
  const auto mark_corrupt = [corrupt] {
    if (corrupt != nullptr) *corrupt = true;
  };
  const auto size = file.size();
  if (!size) return std::nullopt;
  if (*size < kIndexHeaderBytes) {
    mark_corrupt();
    return std::nullopt;
  }
  std::uint64_t header[7];
  if (!file.read_at(0, header, sizeof(header))) return std::nullopt;
  const std::uint64_t bloom_words = header[4];
  const std::uint64_t run_count = header[5];
  if (header[0] != kIndexMagic || header[1] != kIndexVersion ||
      bloom_words == 0 || bloom_words > kMaxBloomWords ||
      !std::has_single_bit(bloom_words * 64) || run_count > kMaxIndexRuns) {
    mark_corrupt();
    return std::nullopt;
  }
  const std::uint64_t expected_size = kIndexHeaderBytes +
                                      bloom_words * sizeof(std::uint64_t) +
                                      run_count * kIndexRunBytes;
  if (*size != expected_size) {
    mark_corrupt();
    return std::nullopt;
  }
  Index index;
  index.covered_count = header[2];
  index.covered_checksum = header[3];
  index.bloom.resize(static_cast<std::size_t>(bloom_words));
  if (!file.read_at(kIndexHeaderBytes, index.bloom.data(),
                    index.bloom.size() * sizeof(std::uint64_t))) {
    return std::nullopt;
  }
  std::vector<std::uint64_t> run_words(
      static_cast<std::size_t>(run_count) * 3);
  if (!run_words.empty() &&
      !file.read_at(kIndexHeaderBytes + bloom_words * sizeof(std::uint64_t),
                    run_words.data(),
                    run_words.size() * sizeof(std::uint64_t))) {
    return std::nullopt;
  }
  std::uint64_t check = fold_words(kIndexMagic, header, 6);
  check = fold_words(check, index.bloom.data(), index.bloom.size());
  check = fold_words(check, run_words.data(), run_words.size());
  if (check != header[6]) {
    mark_corrupt();
    return std::nullopt;
  }
  index.runs.reserve(static_cast<std::size_t>(run_count));
  for (std::size_t i = 0; i < run_count; ++i) {
    index.runs.push_back(
        {run_words[3 * i], run_words[3 * i + 1], run_words[3 * i + 2]});
  }
  // Structural validation: runs sorted by (key, first), each non-empty and
  // inside the covered prefix, and together tiling [0, covered) exactly —
  // so a lookup that trusts the runs can never read past the prefix or
  // miss a record.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < index.runs.size(); ++i) {
    const IndexRun& run = index.runs[i];
    if (run.count == 0 || run.first > index.covered_count ||
        run.count > index.covered_count - run.first) {
      mark_corrupt();
      return std::nullopt;
    }
    if (i > 0 && !run_order(index.runs[i - 1], run)) {
      mark_corrupt();
      return std::nullopt;
    }
    total += run.count;
  }
  if (total != index.covered_count) {
    mark_corrupt();
    return std::nullopt;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  spans.reserve(index.runs.size());
  for (const auto& run : index.runs) spans.emplace_back(run.first, run.count);
  std::sort(spans.begin(), spans.end());
  std::uint64_t next = 0;
  for (const auto& [first, count] : spans) {
    if (first != next) {
      mark_corrupt();
      return std::nullopt;
    }
    next = first + count;
  }
  return index;
}

LoadStatus TrialStore::Shard::map(Mapping& out) const {
  out.reset();
  const LockedFile file{path_, O_RDONLY, LOCK_SH};
  if (!file.ok()) {
    out.status_ =
        file.error() == ENOENT ? LoadStatus::kFresh : LoadStatus::kIoError;
    return out.status_;
  }
  const auto size = file.size();
  if (!size) {
    out.status_ = LoadStatus::kIoError;
    return out.status_;
  }
  if (*size == 0) {
    out.status_ = LoadStatus::kFresh;
    return out.status_;
  }
  if (*size < kHeaderBytes) {
    out.status_ = LoadStatus::kDiscardedCorrupt;
    return out.status_;
  }
  Header header{};
  if (!file.read_at(0, &header, sizeof(header))) {
    out.status_ = LoadStatus::kIoError;
    return out.status_;
  }
  if (header.magic != kMagic) {
    out.status_ = LoadStatus::kDiscardedCorrupt;
    return out.status_;
  }
  if (header.version != kFormatVersion) {
    out.status_ = LoadStatus::kDiscardedVersion;
    return out.status_;
  }
  if (header.count > (*size - kHeaderBytes) / kRecordBytes) {
    out.status_ = LoadStatus::kDiscardedCorrupt;
    return out.status_;
  }
  if (header.count == 0) {
    out.count_ = 0;
    out.status_ = LoadStatus::kLoaded;
    return out.status_;
  }
  const std::size_t map_bytes =
      kHeaderBytes + static_cast<std::size_t>(header.count) * kRecordBytes;
  void* base = ::mmap(nullptr, map_bytes, PROT_READ, MAP_SHARED, file.fd(), 0);
  if (base == MAP_FAILED) {
    out.status_ = LoadStatus::kIoError;
    return out.status_;
  }
  out.base_ = base;
  out.map_bytes_ = map_bytes;
  out.count_ = static_cast<std::size_t>(header.count);

  // Validate the committed prefix in place, still under the shared flock:
  // a heal-append may truncate a shard whose records are corrupt under a
  // plausible header, and doing that while we chain over the mapped bytes
  // would SIGBUS us past the new EOF — the lock holds it off until we have
  // either validated (after which no same-format process will ever reset
  // this prefix) or cleanly discarded. With an index bound to a prefix of
  // this shard, only the uncovered tail needs re-chaining — the index's
  // covered_checksum vouches for the rest; without one, chain everything.
  bool bound = false;
  if (auto index = read_index();
      index && index->covered_count <= header.count) {
    std::uint64_t chain = index->covered_checksum;
    for (std::uint64_t i = index->covered_count; i < header.count; ++i) {
      chain = chain_checksum(chain, out.record(static_cast<std::size_t>(i)));
    }
    if (chain == header.checksum) {
      out.index_ = std::move(*index);
      out.has_index_ = true;
      bound = true;
    }
  }
  if (!bound) {
    std::uint64_t chain = 0;
    for (std::uint64_t i = 0; i < header.count; ++i) {
      chain = chain_checksum(chain, out.record(static_cast<std::size_t>(i)));
    }
    if (chain != header.checksum) {
      out.reset();
      out.status_ = LoadStatus::kDiscardedCorrupt;
      return out.status_;
    }
  }
  // Drop the flock explicitly before returning: the mapping pins the open
  // file description beyond close(), so without this the shared lock would
  // live as long as the mapping and starve every writer's exclusive append
  // (including our own flush — a self-deadlock). flock(LOCK_UN) releases
  // the lock regardless of the mmap reference; see LockedFile::unlock.
  file.unlock();
  out.status_ = LoadStatus::kLoaded;
  return out.status_;
}

LoadStatus TrialStore::Shard::load(std::vector<Record>& out) const {
  out.clear();
  const LockedFile file{path_, O_RDONLY, LOCK_SH};
  if (!file.ok()) {
    // An absent shard is simply empty; any other open/lock failure (EMFILE
    // under a fleet of writers, a transient EACCES) says nothing about the
    // shard's *content*, so it must not read as corruption — verify would
    // fail an intact store and a heal would reset good data.
    return file.error() == ENOENT ? LoadStatus::kFresh : LoadStatus::kIoError;
  }
  Header header{};
  return read_committed_prefix(file, out, header);
}

bool TrialStore::Shard::append(std::span<const Record> records, bool heal,
                               std::size_t* dropped) const {
  if (dropped != nullptr) *dropped = 0;
  if (records.empty()) return true;
  const LockedFile file{path_, O_RDWR | O_CREAT, LOCK_EX};
  if (!file.ok()) return false;

  // Re-read the committed prefix *inside* the lock: another process may
  // have appended since we last looked, and chaining from the on-disk
  // header's checksum extends its prefix instead of clobbering it. Only the
  // header needs to be trusted — the checksum chain lets us extend it
  // without re-reading the records it covers.
  Header header{};
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
  const auto size = file.size();
  if (!size) return false;
  bool reset = *size < kHeaderBytes;
  if (!reset) {
    if (!file.read_at(0, &header, sizeof(header))) return false;
    if (header.magic != kMagic || header.version != kFormatVersion ||
        header.count > (*size - kHeaderBytes) / kRecordBytes) {
      reset = true;  // corrupt or foreign: restart this shard cold
    } else {
      count = header.count;
      checksum = header.checksum;
    }
  }
  if (heal && !reset) {
    // Our load() saw a corrupt prefix. Re-validate under the lock — if it
    // is *still* invalid, reset rather than chaining more records onto a
    // prefix no load will ever accept (the file would grow forever while
    // serving nothing). If another process repaired or validly extended it
    // meanwhile, the check passes and we append normally.
    std::vector<Record> committed;
    Header revalidated{};
    const LoadStatus current =
        read_committed_prefix(file, committed, revalidated);
    if (current == LoadStatus::kIoError) return false;  // never reset blind
    if (current != LoadStatus::kLoaded) {
      reset = true;
      count = 0;
      checksum = 0;
    }
  }
  if (reset && (!file.truncate(0) || !write_header(file, 0, 0))) return false;

  // The old prefix the index may cover — read it before encode_records
  // chains the new records into `checksum`.
  const std::uint64_t old_count = count;
  const std::uint64_t old_checksum = checksum;

  // Read the sidecar once under the lock: the dedup probe and the
  // post-append index update both want it.
  std::optional<Index> existing = read_index();

  // The duplicate probe. Runs under the same exclusive flock that orders
  // this append against every other writer, so whatever it finds committed
  // IS the complete committed set at append time — the race window where
  // two processes both miss a record and both append it does not exist.
  std::unordered_set<TrialKey, TrialKeyHash> committed_keys;
  if (old_count > 0) {
    // Fast path: an index bound to the exact committed prefix. One bloom
    // probe per distinct incoming key, and only the runs of keys the bloom
    // cannot rule out are read — an append of a brand-new trial space over
    // a large shard touches no record bytes at all.
    bool probed_ok = existing && existing->covered_count == old_count &&
                     existing->covered_checksum == old_checksum;
    if (probed_ok) {
      std::unordered_set<std::uint64_t> probed;
      std::vector<std::uint64_t> words;
      for (const auto& record : records) {
        if (!probed.insert(record.key_hash).second) continue;
        if (!existing->may_contain(record.key_hash)) continue;
        for (const auto& run : existing->runs_for(record.key_hash)) {
          words.resize(static_cast<std::size_t>(run.count) * 4);
          if (!file.read_at(kHeaderBytes + run.first * kRecordBytes,
                            words.data(), words.size() * sizeof(words[0]))) {
            probed_ok = false;
            break;
          }
          for (std::uint64_t i = 0; i < run.count; ++i) {
            const Record rec =
                decode_record(&words[static_cast<std::size_t>(i) * 4]);
            committed_keys.insert({rec.key_hash, rec.x_bits, rec.seed});
          }
        }
        if (!probed_ok) break;
      }
    }
    if (!probed_ok) {
      // No binding index (or a probe read failed): one prefix read. A prefix
      // that does not validate is left to the heal machinery — dedup
      // quietly degrades to "history unknown" rather than guessing.
      committed_keys.clear();
      std::vector<Record> committed;
      Header full{};
      if (read_committed_prefix(file, committed, full) == LoadStatus::kLoaded) {
        committed_keys.reserve(committed.size());
        for (const auto& rec : committed) {
          committed_keys.insert({rec.key_hash, rec.x_bits, rec.seed});
        }
      }
    }
  }
  std::vector<Record> fresh;
  fresh.reserve(records.size());
  for (const auto& record : records) {
    // In-batch duplicates fold into committed_keys as they are accepted,
    // so a batch carrying the same trial twice also commits it once.
    if (committed_keys.insert({record.key_hash, record.x_bits, record.seed})
            .second) {
      fresh.push_back(record);
    }
  }
  if (dropped != nullptr) *dropped = records.size() - fresh.size();
  if (fresh.empty()) return true;  // everything already committed

  // Records first, at the end of the committed prefix (clobbering any torn
  // tail a previous crash left behind)...
  const std::vector<char> bytes = encode_records(fresh, checksum);
  if (!file.write_at(kHeaderBytes + count * kRecordBytes, bytes.data(),
                     bytes.size())) {
    return false;
  }
  // ...then the header that makes them part of the valid prefix. A crash
  // in between leaves the previous prefix intact.
  if (!write_header(file, count + fresh.size(), checksum)) return false;

  // Bring the sidecar index up to date while we still hold the exclusive
  // flock. Best-effort: a failure leaves a stale index behind, which the
  // next reader detects (binding checksum) and scans around.
  update_index_after_append(file, index_path(), std::move(existing),
                            old_count, old_checksum, fresh,
                            count + fresh.size(), checksum);
  return true;
}

// --- TrialStore -----------------------------------------------------------

std::optional<std::uint64_t> TrialStore::peek_manifest(
    const std::string& cache_dir) {
  const auto manifest = read_manifest(manifest_path(cache_dir));
  if (manifest.status != ManifestResult::Status::kOk) return std::nullopt;
  return manifest.shards;
}

TrialStore::TrialStore(std::string dir, std::uint64_t requested_shards)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;  // stay disabled

  // Serialise open/create against other processes racing on the same
  // directory; shard appends have their own per-file locks.
  const LockedFile dir_lock{store_lock_path(dir_), O_RDWR | O_CREAT, LOCK_EX};
  if (!dir_lock.ok()) return;

  std::uint64_t shard_count = 0;
  const std::string manifest = manifest_path(dir_);
  const bool manifest_exists = std::filesystem::exists(manifest, ec) && !ec;
  if (manifest_exists) {
    const auto parsed = read_manifest(manifest);
    if (parsed.status == ManifestResult::Status::kIoError) {
      // Could not *read* it — that says nothing about its content, so the
      // destructive restart-cold recovery below is not justified. Just run
      // without the store this session.
      return;  // stay disabled
    }
    if (parsed.status == ManifestResult::Status::kOk) {
      // An existing manifest wins over `requested_shards`: every process
      // sharing the directory must agree on the key -> shard routing.
      shard_count = parsed.shards;
      status_ = LoadStatus::kLoaded;
    } else {
      // A corrupt manifest means the routing is unknown, so the shard
      // files cannot be trusted either: restart the whole store cold.
      // (Shard files are created lazily, so sweep the directory rather
      // than probing indices.)
      std::vector<std::filesystem::path> stale;
      for (const auto& entry :
           std::filesystem::directory_iterator{dir_, ec}) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("shard-") &&
            (name.ends_with(".bin") || name.ends_with(".idx") ||
             name.ends_with(".tmp"))) {
          stale.push_back(entry.path());
        }
      }
      for (const auto& path : stale) std::filesystem::remove(path, ec);
      status_ = LoadStatus::kDiscardedCorrupt;
    }
  }

  if (shard_count == 0) {
    shard_count = requested_shards == 0 ? kDefaultShards
                                        : std::min(requested_shards,
                                                   kMaxShards);
    if (status_ == LoadStatus::kDisabled) status_ = LoadStatus::kFresh;
    if (!write_manifest(manifest, shard_count)) {
      status_ = LoadStatus::kDisabled;
      return;
    }
  }

  shards_.resize(static_cast<std::size_t>(shard_count));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].shard = Shard{shard_path(dir_, i)};
  }
}

TrialStore::~TrialStore() { flush(); }

void TrialStore::disable() noexcept {
  status_ = LoadStatus::kDisabled;
  for (auto& state : shards_) state.pending.clear();
}

bool TrialStore::ensure_mapped(ShardState& state) {
  // remap_needed: this process flushed records into the shard after it was
  // mapped, so the snapshot no longer covers everything on disk. Remapping
  // keeps parity with the scan path, which re-reads the file — it matters
  // when the cache is cleared and repopulates from the store.
  if (!state.map_attempted || state.remap_needed) {
    const bool first = !state.map_attempted;
    state.map_attempted = true;
    state.remap_needed = false;
    (void)state.shard.map(state.mapping);
    // Reflect what the mapping found unless a whole-shard load already
    // recorded a status for shard_status()/summary().
    if (!state.load_attempted) state.status = state.mapping.status();
    if (first && state.mapping.usable() && state.mapping.count() > 0 &&
        !state.mapping.has_index()) {
      ++index_fallbacks_;
    }
  }
  // Indexed reads need a usable mapping and, for non-empty shards, a bound
  // index — otherwise per-key collection would degenerate to one full scan
  // per trial space, worse than the single whole-shard merge fallback.
  return state.mapping.usable() &&
         (state.mapping.count() == 0 || state.mapping.has_index());
}

bool TrialStore::indexed_records_for(std::uint64_t key_hash,
                                     std::vector<Record>& out) {
  if (!enabled() || shards_.empty()) return false;
  ShardState& state = shards_[shard_of(key_hash)];
  if (!ensure_mapped(state)) return false;
  loaded_ += state.mapping.collect(key_hash, out);
  return true;
}

std::vector<Record> TrialStore::take_records_for(std::uint64_t key_hash) {
  if (!enabled() || shards_.empty()) return {};
  (void)records_for(key_hash);  // ensure the shard is loaded and counted
  ShardState& state = shards_[shard_of(key_hash)];
  state.taken = true;
  return std::exchange(state.records, {});
}

const std::vector<Record>& TrialStore::records_for(std::uint64_t key_hash) {
  static const std::vector<Record> kEmpty;
  if (!enabled() || shards_.empty()) return kEmpty;
  ShardState& state = shards_[shard_of(key_hash)];
  if (!state.load_attempted || state.taken) {
    const bool first = !state.load_attempted;
    state.load_attempted = true;
    state.taken = false;
    state.status = state.shard.load(state.records);
    if (first) loaded_ += state.records.size();
  }
  return state.records;
}

void TrialStore::append(const Record& record) {
  if (!enabled() || shards_.empty()) return;
  shards_[shard_of(record.key_hash)].pending.push_back(record);
  ++appended_;
}

void TrialStore::flush() {
  if (!enabled()) return;
  for (auto& state : shards_) {
    if (state.pending.empty()) continue;
    // A shard whose load was discarded gets the heal path: re-validate
    // under the lock and reset it if the prefix is still unloadable, so
    // corruption cannot make a shard grow forever while serving nothing.
    const bool heal = (state.load_attempted || state.map_attempted) &&
                      (state.status == LoadStatus::kDiscardedCorrupt ||
                       state.status == LoadStatus::kDiscardedVersion);
    std::size_t dropped = 0;
    if (!state.shard.append(state.pending, heal, &dropped)) {
      disable();
      return;
    }
    dedup_dropped_ += dropped;
    if (heal) {
      // The shard on disk is valid again (reset, or already repaired by
      // another process): later flushes take the cheap fast path instead
      // of re-validating the whole prefix forever.
      state.status = LoadStatus::kLoaded;
      ++healed_;
    }
    // Any existing mapping now predates these records; remap before the
    // next indexed read so a cleared cache repopulates completely.
    if (state.map_attempted) state.remap_needed = true;
    state.pending.clear();
  }
}

std::string TrialStore::summary() const {
  std::size_t touched = 0;
  std::size_t discarded_corrupt = 0;
  std::size_t discarded_version = 0;
  std::size_t unreadable = 0;
  for (const auto& state : shards_) {
    if (!state.load_attempted && !state.map_attempted) continue;
    ++touched;
    if (state.status == LoadStatus::kDiscardedCorrupt) ++discarded_corrupt;
    if (state.status == LoadStatus::kDiscardedVersion) ++discarded_version;
    if (state.status == LoadStatus::kIoError) ++unreadable;
  }
  std::ostringstream os;
  os << loaded_ << " loaded (" << touched << "/" << shards_.size()
     << " shards)";
  if (status_ == LoadStatus::kDiscardedCorrupt) {
    os << " (corrupt manifest discarded)";
  }
  if (discarded_version > 0) {
    os << " (" << discarded_version << " incompatible shards discarded)";
  }
  if (discarded_corrupt > 0) {
    os << " (" << discarded_corrupt << " corrupt shards discarded)";
  }
  if (healed_ > 0) os << " (" << healed_ << " corrupt shards reset)";
  if (unreadable > 0) os << " (" << unreadable << " shards unreadable)";
  if (index_fallbacks_ > 0) {
    os << " (" << index_fallbacks_ << " shards scanned without index)";
  }
  os << ", " << appended_ << " appended";
  return os.str();
}

// --- Paths and wiring -----------------------------------------------------

std::string manifest_path(const std::string& cache_dir) {
  return (std::filesystem::path{cache_dir} / "manifest.bin").string();
}

std::string shard_path(const std::string& cache_dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu.bin", index);
  return (std::filesystem::path{cache_dir} / name).string();
}

std::string store_lock_path(const std::string& cache_dir) {
  return (std::filesystem::path{cache_dir} / "store.lock").string();
}

std::unique_ptr<TrialStore> open_store(TrialCache& cache, const Cli& cli) {
  if (!cli.store_enabled() || cli.cache_dir().empty()) return nullptr;
  auto store = std::make_unique<TrialStore>(cli.cache_dir());
  if (!store->enabled()) return nullptr;
  cache.attach_store(*store);
  return store;
}

}  // namespace lotus::exp
