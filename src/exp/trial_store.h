// Persistent on-disk spill for the trial cache: the store-v2 sharded engine
// with mmap'd zero-copy reads and per-shard sidecar indexes.
//
// exp::TrialCache deduplicates (config hash, x, seed) gossip trials within
// one process; TrialStore extends that across processes. The store splits
// into N shard files keyed by trial-space hash (shard = key_hash % N), so:
//
//   - a cache scope touches exactly one shard, and TrialCache::attach_store
//     loads shards lazily on first lookup instead of the whole directory;
//   - appends take an exclusive flock(2) on the shard file and re-read its
//     committed-prefix header before writing, so concurrent writer
//     processes interleave their records instead of clobbering each other;
//   - under that same flock every append drops the records whose
//     (key, x, seed) is already committed, so a shard never holds a
//     duplicate however the writers interleave.
//
// The read path is zero-copy: a Shard maps its committed prefix read-only
// (Shard::Mapping) and records are decoded in place, so warm-start cost no
// longer includes copying every shard record into fresh heap allocations.
// Each shard carries a sidecar index file (shard-NNNN.idx) holding a bloom
// filter over key hashes plus sorted (key hash -> record offset, count)
// runs, written at flush time under the same flock:
//
//   - a per-scope cold load touches only the byte ranges of the runs its
//     key hash routes to, so its cost is independent of total store size;
//   - a negative lookup is one bloom probe, no record bytes touched;
//   - a valid index also lets the mapping validate the committed prefix by
//     chaining the checksum over the *uncovered tail only*, so validation
//     cost is O(records appended since the index was written), not O(shard).
//
// The index is advisory: a missing, stale, or corrupt index file never
// loses data — readers fall back to a sequential scan of the shard, and
// the next append to the shard rebuilds the index (always via a temp file +
// atomic rename, so readers see an old index or a new one, never a torn
// one; a stale index is detected by its binding checksum and discarded).
// Deleting a bad .idx file is therefore always a safe repair.
//
// On-disk layout under --cache-dir:
//
//   manifest.bin     {manifest magic, format version, shard count, check}
//   shard-0000.bin   {magic, version, count, checksum} + `count` records
//   shard-0000.idx   sidecar index for shard 0 (see Shard::Mapping)
//   ...
//   store.lock       zero-byte flock target serialising open/create
//
// Each shard keeps a committed-prefix guarantee: the header's count and
// chained checksum describe exactly the committed records, a torn append is
// recovered to its prefix, and a corrupt or version-mismatched shard is
// discarded (cold start for that shard only, never poisoned results). Any
// other file in the directory is ignored.
//
// Because opening a store over a corrupt manifest unlinks every shard file
// while other writers may be blocked on the old inode's flock, every locked
// open re-stats the path after acquiring the lock and retries when the
// directory entry moved on — a writer never appends to an unlinked file.
//
// The store never throws and never fails a bench: any I/O error just turns
// it off for the rest of the run. Values are the exact doubles the trials
// produced (stored by bit pattern), so warm runs are byte-identical to cold
// ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lotus::exp {

class Cli;
class TrialCache;

class TrialStore {
 public:
  /// One persisted trial. `key_hash` is the hash the cache scope was bound
  /// to (exp::trial_space_hash / config_hash); x is stored by bit pattern so
  /// reloaded keys are exact.
  struct Record {
    std::uint64_t key_hash;
    std::uint64_t x_bits;
    std::uint64_t seed;
    double value;
    bool operator==(const Record&) const = default;
  };

  enum class LoadStatus {
    kDisabled,          ///< default-constructed or I/O failure: store is off
    kFresh,             ///< nothing on disk yet; started empty
    kLoaded,            ///< header validated; the committed prefix was read
    kDiscardedVersion,  ///< incompatible format version: started cold
    kDiscardedCorrupt,  ///< bad magic, truncation, or checksum: started cold
    kIoError,           ///< shard could not be opened/read (transient, e.g.
                        ///< EMFILE): served empty, but *not* treated as
                        ///< corrupt — never healed/reset over it
  };

  // "LOTUSTRL" + format version; shard header is {magic, version, count,
  // checksum}. Version 1 was a flat single log, no longer read; version 2
  // is the sharded format.
  static constexpr std::uint64_t kMagic = 0x4c4f54555354524cULL;
  static constexpr std::uint64_t kFormatVersion = 2;
  // "LOTUSMAN": the manifest's magic word.
  static constexpr std::uint64_t kManifestMagic = 0x4c4f5455534d414eULL;
  // "LOTUSIDX": the sidecar index's magic word.
  static constexpr std::uint64_t kIndexMagic = 0x4c4f545553494458ULL;
  static constexpr std::uint64_t kIndexVersion = 1;
  static constexpr std::size_t kHeaderBytes = 4 * sizeof(std::uint64_t);
  static constexpr std::size_t kRecordBytes = 4 * sizeof(std::uint64_t);
  static constexpr std::size_t kIndexHeaderBytes = 7 * sizeof(std::uint64_t);
  static constexpr std::uint64_t kDefaultShards = 8;
  static constexpr std::uint64_t kMaxShards = 4096;

  /// Chains one record into the running prefix checksum. Order-dependent by
  /// design: the checksum describes an exact record prefix, so an
  /// incremental append extends it from the header's checksum without
  /// re-reading the file.
  [[nodiscard]] static std::uint64_t chain_checksum(std::uint64_t checksum,
                                                    const Record& record);

  /// SplitMix fold over the three words identifying a trial — the one hash
  /// behind both the cache's map buckets and the append-time dedup set, so
  /// the two schemes cannot diverge.
  [[nodiscard]] static std::uint64_t trial_key_mix(std::uint64_t key_hash,
                                                   std::uint64_t x_bits,
                                                   std::uint64_t seed);

  /// One shard file: a reader/writer for the committed-prefix log format.
  /// Stateless beyond its path — every operation opens the file, takes the
  /// appropriate flock (re-validating the inode, see file comment), and
  /// works off the on-disk header, so any number of processes can
  /// interleave safely.
  class Shard {
   public:
    /// One maximal run of consecutive records sharing a key hash: records
    /// [first, first + count) of the shard all have `key_hash`. The sidecar
    /// index stores these sorted by (key_hash, first), so the byte ranges
    /// for one trial space are found by binary search.
    struct IndexRun {
      std::uint64_t key_hash;
      std::uint64_t first;
      std::uint64_t count;
      bool operator==(const IndexRun&) const = default;
    };

    /// The parsed sidecar index: bloom filter over key hashes plus sorted
    /// runs, covering the first `covered_count` records of the shard (the
    /// committed prefix at the time the index was written).
    struct Index {
      std::uint64_t covered_count = 0;
      /// Shard chain checksum after `covered_count` records — binds the
      /// index to one exact prefix; a reader re-chains the tail from here.
      std::uint64_t covered_checksum = 0;
      std::vector<std::uint64_t> bloom;  ///< power-of-two word count
      std::vector<IndexRun> runs;        ///< sorted by (key_hash, first)

      /// False means "definitely absent from the covered prefix".
      [[nodiscard]] bool may_contain(std::uint64_t key_hash) const noexcept;
      /// The sorted runs for `key_hash` (empty when absent).
      [[nodiscard]] std::span<const IndexRun> runs_for(
          std::uint64_t key_hash) const noexcept;
    };

    /// A read-only mmap of the shard's committed prefix, plus the sidecar
    /// index when one binds to it. Records are decoded in place from the
    /// mapped bytes — no heap copy of the shard. The mapping holds NO lock
    /// (the shared flock is explicitly dropped before mmap, because a
    /// mapping pins the open file description and would otherwise hold the
    /// lock for its whole lifetime, starving writers) and stays valid
    /// regardless of concurrent activity: committed record bytes are
    /// append-only, and a shard unlinked by a corrupt-manifest sweep keeps
    /// its pages until the mapping is dropped.
    class Mapping {
     public:
      Mapping() = default;
      ~Mapping();
      Mapping(Mapping&& other) noexcept;
      Mapping& operator=(Mapping&& other) noexcept;
      Mapping(const Mapping&) = delete;
      Mapping& operator=(const Mapping&) = delete;

      /// What Shard::map found; kLoaded and kFresh mappings are usable.
      [[nodiscard]] LoadStatus status() const noexcept { return status_; }
      [[nodiscard]] bool usable() const noexcept {
        return status_ == LoadStatus::kLoaded || status_ == LoadStatus::kFresh;
      }
      /// Committed records in the mapped prefix.
      [[nodiscard]] std::size_t count() const noexcept { return count_; }
      /// Decodes record `i` in place from the mapped bytes.
      [[nodiscard]] Record record(std::size_t i) const noexcept;

      /// Whether a sidecar index bound to this prefix (false: callers scan).
      [[nodiscard]] bool has_index() const noexcept { return has_index_; }
      [[nodiscard]] const Index& index() const noexcept { return index_; }
      /// Records the index does not cover (appended after it was written);
      /// an indexed lookup scans only these [covered, count) records.
      [[nodiscard]] std::size_t uncovered() const noexcept {
        return has_index_ ? count_ - static_cast<std::size_t>(
                                         index_.covered_count)
                          : count_;
      }

      /// Bloom probe plus tail scan: true when `key_hash` may have records
      /// here. Without an index this is trivially true.
      [[nodiscard]] bool may_contain(std::uint64_t key_hash) const noexcept;

      /// Appends every record with `key_hash` to `out`, in shard order.
      /// With an index: binary-searched runs plus the uncovered tail; the
      /// records of other trial spaces are never touched. Without: full
      /// scan. Returns the number appended.
      std::size_t collect(std::uint64_t key_hash,
                          std::vector<Record>& out) const;

     private:
      friend class Shard;
      void reset() noexcept;

      LoadStatus status_ = LoadStatus::kFresh;
      void* base_ = nullptr;        ///< mmap base (nullptr: empty shard)
      std::size_t map_bytes_ = 0;   ///< mapped length
      std::size_t count_ = 0;
      bool has_index_ = false;
      Index index_;
    };

    Shard() = default;
    explicit Shard(std::string path) : path_(std::move(path)) {}

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// The sidecar index path: `<shard stem>.idx` next to the shard file.
    [[nodiscard]] std::string index_path() const;

    /// Maps the committed prefix read-only under a shared flock and
    /// validates it (via the index's tail-only re-chain when the index
    /// binds, else a full checksum pass over the mapped bytes — no heap
    /// copy either way). An absent file maps as kFresh (empty, usable); a
    /// corrupt or version-mismatched file yields an unusable mapping with
    /// the discard reason. The flock is released before returning; see
    /// Mapping for why that is safe.
    [[nodiscard]] LoadStatus map(Mapping& out) const;

    /// Reads the committed prefix into `out` under a shared flock — the
    /// copying fallback (and the admin/test path). An absent file is
    /// kFresh (empty, valid); a corrupt or version-mismatched file yields
    /// an empty `out` and the discard reason — the file itself is left
    /// alone and repaired by the next append().
    [[nodiscard]] LoadStatus load(std::vector<Record>& out) const;

    /// Reads and validates the sidecar index alone (no shard access): the
    /// self-checksum must hold. Binding to the shard's current prefix is
    /// the caller's job (verify tooling / Shard::map). std::nullopt when
    /// the file is absent, unreadable, or fails its self-checksum;
    /// `*corrupt` (when given) tells those apart: set true only when the
    /// file exists but is invalid.
    [[nodiscard]] std::optional<Index> read_index(
        bool* corrupt = nullptr) const;

    /// Appends records after the current committed prefix under an
    /// exclusive flock. The header (count, checksum) is re-read inside the
    /// lock, so records another process committed since our load are
    /// extended, not overwritten; a file whose header is unreadable or
    /// inconsistent is reset to an empty log first. Records are written
    /// before the header, so a crash leaves the previous prefix intact.
    /// The sidecar index is then brought up to date under the same lock
    /// (extended in place when it covered the old prefix, rebuilt from the
    /// file otherwise) — best-effort: an index write failure never fails
    /// the append.
    ///
    /// `heal` re-validates the full checksum chain inside the lock and
    /// resets the shard when it fails — the repair path for a shard whose
    /// *records* are corrupt under a plausible header (load() reported
    /// kDiscardedCorrupt). Off by default because it re-reads the whole
    /// prefix; TrialStore::flush enables it only for shards whose load was
    /// discarded, and the re-check under the lock means a shard another
    /// process already repaired (or validly extended) is never wiped.
    ///
    /// Records whose (key, x, seed) is already committed are dropped —
    /// probed under the SAME exclusive flock that orders the append, so two
    /// processes racing on the same trials commit each record exactly once
    /// no matter how their flushes interleave (the fleet's store-equivalence
    /// guarantee; trial values are deterministic, so dropping a duplicate
    /// never loses information). When the sidecar index binds to the
    /// committed prefix the probe is one bloom test per distinct key plus
    /// reads of only that key's runs; otherwise it degrades to one prefix
    /// read. `dropped` (when given) reports how many records were elided.
    ///
    /// Returns false on I/O failure.
    [[nodiscard]] bool append(std::span<const Record> records,
                              bool heal = false,
                              std::size_t* dropped = nullptr) const;

   private:
    std::string path_;
  };

  /// Reads the manifest's shard count without opening (or creating)
  /// anything — the read-only entry point for admin tooling.
  /// std::nullopt when the manifest is absent or invalid.
  [[nodiscard]] static std::optional<std::uint64_t> peek_manifest(
      const std::string& cache_dir);

  /// Disabled store: append/flush are no-ops.
  TrialStore() = default;

  /// Opens (or initialises) the sharded store under `dir`. Reads the
  /// manifest for the shard count; `requested_shards` (clamped to
  /// [1, kMaxShards], 0 = kDefaultShards) only applies when creating a
  /// fresh manifest — an existing manifest always wins, so every process
  /// sharing the directory agrees on the routing. Never throws; on any I/O
  /// error the store disables itself (enabled() == false).
  explicit TrialStore(std::string dir, std::uint64_t requested_shards = 0);

  /// Flushes pending appends (see flush()).
  ~TrialStore();

  TrialStore(const TrialStore&) = delete;
  TrialStore& operator=(const TrialStore&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return status_ != LoadStatus::kDisabled;
  }
  /// What opening the directory found: kFresh, kLoaded (manifest present),
  /// or kDiscardedCorrupt (bad manifest, restarted cold).
  [[nodiscard]] LoadStatus open_status() const noexcept { return status_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t shard_of(std::uint64_t key_hash) const noexcept {
    return shards_.empty() ? 0 : key_hash % shards_.size();
  }
  /// The shard reader/writer for slot `i` (admin tooling and tests).
  [[nodiscard]] const Shard& shard(std::size_t i) const {
    return shards_[i].shard;
  }

  /// The zero-copy read path: maps the shard holding `key_hash` (first
  /// call per shard) and appends exactly that key's records to `out`,
  /// decoded in place via the sidecar index. Returns true when the indexed
  /// path answered — including "definitely absent" after one bloom probe
  /// (empty `out`) and an empty/fresh shard. Returns false when the shard
  /// has no usable index (missing, stale, or corrupt sidecar) or could not
  /// be mapped: the caller falls back to the sequential-scan load
  /// (records_for / take_records_for).
  [[nodiscard]] bool indexed_records_for(std::uint64_t key_hash,
                                         std::vector<Record>& out);

  /// Lazily loads the shard holding `key_hash` (first call only) and
  /// returns its committed records — the copying fallback path. Empty when
  /// the store is disabled or the shard was discarded. Not thread-safe on
  /// its own: the cache calls it under its lock (TrialCache::attach_store
  /// wiring).
  [[nodiscard]] const std::vector<Record>& records_for(std::uint64_t key_hash);

  /// Like records_for, but transfers ownership of the shard's records to
  /// the caller, leaving the store's copy empty (the shard still counts as
  /// loaded). The cache merges through this so every warm record is held
  /// once — in the cache map — instead of twice for the process lifetime.
  [[nodiscard]] std::vector<Record> take_records_for(std::uint64_t key_hash);

  /// Load status of shard `i`; kFresh until records_for / the indexed read
  /// path touches it.
  [[nodiscard]] LoadStatus shard_status(std::size_t i) const noexcept {
    return shards_[i].status;
  }
  [[nodiscard]] bool shard_loaded(std::size_t i) const noexcept {
    return shards_[i].load_attempted || shards_[i].map_attempted;
  }

  /// Records read so far across the lazily loaded shards (whole-shard
  /// loads plus records decoded through the indexed path).
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }
  /// Records appended this session (pending plus already flushed).
  [[nodiscard]] std::size_t appended() const noexcept { return appended_; }
  /// Shards whose sidecar index was unusable and fell back to a scan.
  [[nodiscard]] std::size_t index_fallbacks() const noexcept {
    return index_fallbacks_;
  }

  /// Queues a record for the next flush(). Not thread-safe on its own: the
  /// cache calls it under its lock (TrialCache::store).
  void append(const Record& record);

  /// Records elided by append-time dedup across this store's flushes:
  /// already committed — by us or any concurrent writer — so Shard::append
  /// dropped them under the shard lock instead of re-appending them.
  [[nodiscard]] std::size_t dedup_dropped() const noexcept {
    return dedup_dropped_;
  }

  /// Commits pending records shard by shard under each shard's exclusive
  /// flock (see Shard::append); each touched shard's sidecar index is
  /// brought up to date under the same lock. Disables the store on I/O
  /// failure.
  void flush();

  /// One-line "N loaded (k/N shards), M appended" summary fragment for
  /// stderr reports, including what happened to discarded shards.
  [[nodiscard]] std::string summary() const;

 private:
  struct ShardState {
    Shard shard;
    LoadStatus status = LoadStatus::kFresh;
    bool load_attempted = false;
    bool taken = false;  ///< records moved out; records_for reloads on demand
    std::vector<Record> records;
    std::vector<Record> pending;
    Shard::Mapping mapping;      ///< zero-copy view; set on first indexed read
    bool map_attempted = false;
    bool remap_needed = false;   ///< flushed since mapped: snapshot is stale
  };

  void disable() noexcept;
  /// Maps shard `state` on first use; returns whether the mapping is
  /// usable for indexed reads (index bound and prefix validated).
  [[nodiscard]] bool ensure_mapped(ShardState& state);

  std::string dir_;
  LoadStatus status_ = LoadStatus::kDisabled;
  std::vector<ShardState> shards_;
  std::size_t loaded_ = 0;
  std::size_t appended_ = 0;
  std::size_t healed_ = 0;  ///< corrupt shards reset by a heal append
  std::size_t index_fallbacks_ = 0;
  std::size_t dedup_dropped_ = 0;
};

/// The store's file locations inside a cache directory.
[[nodiscard]] std::string manifest_path(const std::string& cache_dir);
[[nodiscard]] std::string shard_path(const std::string& cache_dir,
                                     std::size_t index);
[[nodiscard]] std::string store_lock_path(const std::string& cache_dir);

/// Standard bench wiring: when the CLI enables both the cache and the store,
/// creates the cache directory, opens the sharded trial store inside it
/// (kDefaultShards for a fresh store), and registers it as the cache's lazy
/// disk backing. Returns nullptr when disabled. Flush via the returned
/// handle (or let its destructor do it) after the bench body finishes.
[[nodiscard]] std::unique_ptr<TrialStore> open_store(TrialCache& cache,
                                                     const Cli& cli);

}  // namespace lotus::exp
