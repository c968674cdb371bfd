#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace lotus::sim {

namespace {
// Sanity cap on worker counts, applied to both the env override and the
// ThreadPool constructor: values past this would exhaust OS thread limits
// long before they helped a sweep.
constexpr std::size_t kMaxSweepThreads = 1024;
}  // namespace

std::size_t sweep_threads() noexcept {
  if (const char* env = std::getenv("LOTUS_SWEEP_THREADS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    // Any positive numeric value clamps to the cap; strtoull saturates
    // overflowing input at ULLONG_MAX, which clamps like any other
    // over-the-cap value.
    if (end != env && *end == '\0' && parsed > 0) {
      return std::min(static_cast<std::size_t>(parsed), kMaxSweepThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  size_ = std::min(threads > 0 ? threads : sweep_threads(), kMaxSweepThreads);
  if (size_ == 1) return;  // inline mode: no workers, no locking
  workers_.reserve(size_);
  try {
    for (std::size_t i = 0; i < size_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread spawn failed partway (resource limits): stop and join what we
    // started, then let the error surface.
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    job_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::record_error() noexcept {
  std::lock_guard lock(mu_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_relaxed);
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    // Inline mode mirrors pool semantics: errors surface at wait().
    try {
      job();
    } catch (...) {
      record_error();
    }
    return;
  }
  {
    std::lock_guard lock(mu_);
    ++pending_;
    queue_.push_back(std::move(job));
  }
  job_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (error_) {
    auto error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    try {
      for (std::size_t i = 0; i < n; ++i) body(i);
    } catch (...) {
      record_error();
    }
    wait();
    return;
  }
  // Work-stealing by shared counter, handed out in index *ranges*: on grids
  // of tiny trials single-index grabs serialise workers on the counter's
  // cache line, so each fetch_add claims ~1/8th of a worker's fair share
  // instead (small enough that an uneven tail still balances). Captures by
  // reference are safe because wait() below blocks until every iteration has
  // completed, and determinism is unaffected: workers only fill
  // index-addressed slots, so chunk boundaries never show in the reduction.
  const std::size_t chunk = std::max<std::size_t>(1, n / (8 * size_));
  std::atomic<std::size_t> next{0};
  const std::size_t jobs = std::min(size_, (n + chunk - 1) / chunk);
  for (std::size_t j = 0; j < jobs; ++j) {
    submit([this, &next, n, chunk, &body] {
      for (std::size_t start = next.fetch_add(chunk); start < n;
           start = next.fetch_add(chunk)) {
        const std::size_t end = std::min(n, start + chunk);
        for (std::size_t i = start; i < end; ++i) {
          // Abandon not-yet-started iterations once any iteration has
          // thrown, so the error surfaces without running the rest of the
          // grid.
          if (failed_.load(std::memory_order_relaxed)) return;
          body(i);
        }
      }
    });
  }
  wait();
}

void ThreadPool::run_on_workers(const std::function<void(std::size_t)>& body) {
  if (workers_.empty()) {
    try {
      body(0);
    } catch (...) {
      record_error();
    }
    wait();
    return;
  }
  for (std::size_t w = 0; w < size_; ++w) {
    submit([w, &body] { body(w); });
  }
  wait();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      job_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      record_error();
    }
    {
      std::lock_guard lock(mu_);
      --pending_;
      if (pending_ == 0) all_done_.notify_all();
    }
  }
}

void Barrier::arrive_and_wait() {
  std::unique_lock lock(mu_);
  const std::uint64_t generation = generation_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    released_.notify_all();
    return;
  }
  released_.wait(lock, [this, generation] { return generation_ != generation; });
}

void WaveSchedule::begin(std::size_t resources) {
  last_wave_.assign(resources, 0);
  counts_.clear();
  begins_.clear();
  cursor_.clear();
  items_ = 0;
}

std::uint32_t WaveSchedule::add(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t w = std::max(last_wave_[a], last_wave_[b]) + 1;
  last_wave_[a] = w;
  last_wave_[b] = w;
  // Wave numbers never jump: w <= waves()+1, so counts_ grows by at most one.
  if (w > counts_.size()) counts_.push_back(0);
  ++counts_[w - 1];
  ++items_;
  return w;
}

void WaveSchedule::seal() {
  begins_.resize(counts_.size() + 1);
  cursor_.resize(counts_.size());
  std::uint32_t acc = 0;
  for (std::size_t w = 0; w < counts_.size(); ++w) {
    begins_[w] = acc;
    cursor_[w] = acc;
    acc += counts_[w];
  }
  begins_[counts_.size()] = acc;
}

}  // namespace lotus::sim
