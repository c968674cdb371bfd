// A small thread pool used to fan independent simulation trials across CPU
// cores. Determinism is preserved by construction: workers only fill
// index-addressed slots, and callers reduce those slots in a fixed order, so
// results never depend on scheduling.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lotus::sim {

/// Worker count used by the sweep engine: the LOTUS_SWEEP_THREADS environment
/// variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1). CI and benches set the
/// variable to pin timing runs to a known width.
[[nodiscard]] std::size_t sweep_threads() noexcept;

/// Fixed-size pool of worker threads with a shared FIFO job queue.
///
/// A pool constructed with one thread spawns no workers at all: submit() runs
/// the job inline on the calling thread, so the single-threaded path has zero
/// synchronization overhead and is trivially deterministic.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means sweep_threads(). Any request is
  /// clamped to 1024 workers — past that, thread spawn would exhaust OS
  /// limits long before it helped a sweep.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads this pool runs jobs on (>= 1; 1 means inline).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Enqueues a job. Jobs may run on any worker in any order. A job that
  /// throws records the first such exception, rethrown by the next wait().
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished, then rethrows the first
  /// exception any job raised (if any).
  void wait();

  /// Runs body(i) for every i in [0, n) across the pool's workers and blocks
  /// until all iterations complete, then rethrows the first exception any
  /// iteration raised. Once an iteration throws, not-yet-started iterations
  /// are abandoned so the error surfaces without paying for the rest of the
  /// grid. Iterations may execute in any order; the body must only write to
  /// iteration-owned state (e.g. slot i of a buffer).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Runs body(w) once for each w in [0, size()) and blocks until all calls
  /// return (inline when the pool is serial). Each invocation gets a distinct
  /// w, so w indexes per-worker scratch safely. The calls are guaranteed to
  /// run concurrently — and may therefore synchronise with each other through
  /// a Barrier of size() parties — PROVIDED the pool has no other queued
  /// jobs: with an empty queue the size() jobs distribute one per worker,
  /// because a worker can only take a second job after its first returns, and
  /// a barrier-synchronised body cannot return before every body has started.
  /// Bodies must not throw once they may have passed a barrier (a thrown body
  /// would strand the other parties), so exceptions propagate only from
  /// barrier-free bodies. Only perfbench's Barrier replay calls it (see
  /// Barrier).
  void run_on_workers(const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void record_error() noexcept;

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  bool stop_ = false;
};

/// Reusable rendezvous for a fixed party count: every arrive_and_wait()
/// blocks until all parties of the current generation have arrived, then
/// releases them together and resets for the next generation. No simulation
/// code uses it: it is kept, with run_on_workers, only because perfbench's
/// `replay` command times a Barrier round trip, and perfbench changes only
/// together with its benchmark definition (ROADMAP item 9).
class Barrier {
 public:
  explicit Barrier(std::size_t parties) noexcept : parties_(parties) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  void arrive_and_wait();

 private:
  const std::size_t parties_;
  std::mutex mu_;
  std::condition_variable released_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

/// Deterministic wavefront schedule over a list of pairwise interactions.
///
/// Feed the interactions in their sequential execution order via add(a, b);
/// each is assigned the smallest wave that comes after every earlier
/// interaction sharing a resource (wave = max(last_wave[a], last_wave[b]) + 1,
/// a greedy list-schedule). Within a wave no resource appears twice, so the
/// wave's interactions commute and may run concurrently; executing waves in
/// ascending order with a barrier between them reproduces the sequential
/// semantics exactly — every interaction runs after all earlier-order
/// interactions that touch either of its endpoints.
///
/// The schedule is a pure function of the add() sequence: thread counts,
/// scheduling, and timing never influence it.
///
/// No simulation code uses it (the gossip engine runs its slots in
/// initiation order on one thread). It is kept only because perfbench's
/// `replay` command times wave assignment, and perfbench changes only
/// together with its benchmark definition (ROADMAP item 9).
class WaveSchedule {
 public:
  /// Starts a new schedule over `resources` resource ids. Reuses buffers, so
  /// a per-round begin() does not allocate after the first round.
  void begin(std::size_t resources);

  /// Appends one interaction touching resources a and b (in sequential
  /// order); returns its 1-based wave number.
  std::uint32_t add(std::uint32_t a, std::uint32_t b);

  /// Finalises wave extents. Call once after the last add().
  void seal();

  /// Number of waves (valid after seal()).
  [[nodiscard]] std::uint32_t waves() const noexcept {
    return static_cast<std::uint32_t>(counts_.size());
  }
  /// Total interactions added.
  [[nodiscard]] std::uint32_t items() const noexcept { return items_; }
  /// Half-open slot range [wave_begin(w), wave_end(w)) holding wave w's
  /// interactions (1-based w; valid after seal()).
  [[nodiscard]] std::uint32_t wave_begin(std::uint32_t w) const noexcept {
    return begins_[w - 1];
  }
  [[nodiscard]] std::uint32_t wave_end(std::uint32_t w) const noexcept {
    return begins_[w];
  }
  /// Hands out the next slot index for an interaction of wave w. Call once
  /// per interaction, in the original add() order, to scatter item payloads
  /// into a slot array: within each wave, slots preserve add() order.
  [[nodiscard]] std::uint32_t place(std::uint32_t w) noexcept {
    return cursor_[w - 1]++;
  }

 private:
  std::vector<std::uint32_t> last_wave_;  // per resource: latest wave touching it
  std::vector<std::uint32_t> counts_;     // per wave: item count
  std::vector<std::uint32_t> begins_;     // per wave: prefix sums (seal())
  std::vector<std::uint32_t> cursor_;     // per wave: next scatter slot
  std::uint32_t items_ = 0;
};

}  // namespace lotus::sim
