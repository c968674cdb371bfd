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

namespace {
// The pool job the calling thread is running, if any: a nested call queues
// its jobs one level deeper, and a wait only helps with jobs deeper than
// the thread's own.
struct RunningJob {
  const void* pool = nullptr;
  std::size_t depth = 0;
};
thread_local RunningJob t_running;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  size_ = std::min(threads > 0 ? threads : sweep_threads(), kMaxSweepThreads);
  if (size_ == 1) return;  // inline mode: no workers, no locking
  // The thread waiting on a call is the size_-th.
  workers_.reserve(size_ - 1);
  try {
    for (std::size_t i = 1; i < size_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread spawn failed partway (resource limits): stop and join what we
    // started, then let the error surface.
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    job_or_done_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  job_or_done_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::current_depth() const noexcept {
  return t_running.pool == this ? t_running.depth : 0;
}

void ThreadPool::post_locked(Group& group, std::function<void()> run) {
  ++group.pending;
  queue_.push_back({std::move(run), &group, current_depth() + 1});
}

void ThreadPool::run_job(Job job, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  const RunningJob outer = t_running;
  t_running = {this, job.depth};
  std::exception_ptr error;
  try {
    job.run();
  } catch (...) {
    error = std::current_exception();
  }
  t_running = outer;
  job.run = nullptr;  // release the captures before the group can end
  lock.lock();
  Group& group = *job.group;
  if (error) {
    if (!group.error) group.error = error;
    group.failed.store(true, std::memory_order_relaxed);
  }
  // The waiter may return (and destroy the group) once it sees zero; it
  // cannot before this thread releases mu_.
  if (--group.pending == 0) job_or_done_.notify_all();
}

std::deque<ThreadPool::Job>::iterator ThreadPool::pick_locked(
    const Group* own, std::size_t depth) {
  auto pick = queue_.end();
  for (auto it = queue_.end(); it != queue_.begin();) {
    --it;
    if (it->group == own) return it;
    if (pick == queue_.end() && it->depth > depth) {
      pick = it;
      if (own == nullptr) break;
    }
  }
  return pick;
}

void ThreadPool::wait_for(Group& group) {
  const std::size_t depth = current_depth();
  std::unique_lock lock(mu_);
  while (group.pending > 0) {
    const auto it = pick_locked(&group, depth);
    if (it == queue_.end()) {
      job_or_done_.wait(lock);
      continue;
    }
    Job job = std::move(*it);
    queue_.erase(it);
    run_job(std::move(job), lock);
  }
  if (group.error) {
    auto error = std::exchange(group.error, nullptr);
    group.failed.store(false, std::memory_order_relaxed);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    // Inline mode mirrors pool semantics: errors surface at wait().
    try {
      job();
    } catch (...) {
      if (!submitted_.error) submitted_.error = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard lock(mu_);
    post_locked(submitted_, std::move(job));
  }
  job_or_done_.notify_all();
}

void ThreadPool::wait() {
  if (workers_.empty()) {
    if (submitted_.error) {
      std::rethrow_exception(std::exchange(submitted_.error, nullptr));
    }
    return;
  }
  wait_for(submitted_);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // One job per index range: on grids of tiny trials single-index jobs
  // would serialise threads on the queue, so each job takes ~1/8th of a
  // thread's fair share (small enough that an uneven tail still balances,
  // and a helping waiter never takes on much more than one trial).
  // Captures by reference are safe because wait_for() below returns only
  // after every job has finished, and determinism is unaffected: bodies
  // only fill index-addressed slots, so chunk boundaries never show in the
  // reduction.
  const std::size_t chunk = std::max<std::size_t>(1, n / (8 * size_));
  Group group;
  {
    std::lock_guard lock(mu_);
    for (std::size_t start = 0; start < n; start += chunk) {
      const std::size_t end = std::min(n, start + chunk);
      post_locked(group, [&group, &body, start, end] {
        for (std::size_t i = start; i < end; ++i) {
          // Abandon not-yet-started iterations once any iteration has
          // thrown, so the error surfaces without running the rest of the
          // grid.
          if (group.failed.load(std::memory_order_relaxed)) return;
          body(i);
        }
      });
    }
  }
  job_or_done_.notify_all();
  wait_for(group);
}

void ThreadPool::run_on_workers(const std::function<void(std::size_t)>& body) {
  // size() iterations make one single-index job each.
  parallel_for(size_, body);
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    job_or_done_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested and nothing left to run
    const auto it = pick_locked(nullptr, 0);
    Job job = std::move(*it);
    queue_.erase(it);
    run_job(std::move(job), lock);
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
