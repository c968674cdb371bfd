// Multi-seed parameter sweep helpers shared by figure benches.
//
// The (x, seed) trial grid is embarrassingly parallel — seeds derive only
// from the replica index — so every sweep fans its trials across a
// sim::ThreadPool. Results are reduced in deterministic (x, seed) order, so
// output is bit-identical at any worker count.
//
// The main overloads take the pool to run on. A bench builds one pool and
// hands it to all of its sweeps, which it may itself run side by side as
// jobs of that pool (ThreadPool::parallel_for nests): a curve's trials then
// fill the workers a bisection's narrow batches leave idle. The overloads
// with a trailing `threads` argument (0 = sweep_threads(): the
// LOTUS_SWEEP_THREADS env override, else hardware concurrency) build a pool
// of that width for the one call; those without either use the default.
//
// Every sweep accepts an optional TrialMemo: when one is supplied, known
// (x, seed) trials are served from it instead of re-running, so curve
// families over the same configuration and re-probed bisection points each
// run a trial exactly once per process — also when two sweeps that run side
// by side want the same trial (see exp::TrialCache's in-flight claims).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.h"
#include "sim/stats.h"

namespace lotus::sim {

class ThreadPool;

/// Evenly spaced values from lo to hi inclusive (n >= 2), or {lo} when n == 1.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Optional trial memo consulted by the sweep engine before each (x, seed)
/// trial. A memo is scoped to one trial space: everything else the trial's
/// value depends on (the configuration, the attack, ...) must be fixed for
/// the memo's lifetime or folded into the key by the implementation (see
/// exp::TrialCache, which binds a config hash per scope). Implementations
/// must be thread-safe — the sweep engine calls lookup/store from its
/// workers — and store() must be idempotent. A lookup that returns false
/// obliges its caller to store() the trial's value, or to release() the
/// key when the trial throws; an implementation may make concurrent
/// lookups of that key wait for the value meanwhile (exp::TrialCache
/// does). run_memoized keeps this protocol.
class TrialMemo {
 public:
  virtual ~TrialMemo() = default;
  /// Returns true and sets `value` when (x, seed) is already known.
  virtual bool lookup(double x, std::uint64_t seed, double& value) = 0;
  virtual void store(double x, std::uint64_t seed, double value) = 0;
  /// Gives up a missed lookup whose trial threw without a value.
  virtual void release(double /*x*/, std::uint64_t /*seed*/) {}
  /// True when lookup(x, seed) would be served from what the memo holds,
  /// on-disk records included, or will be once a trial already under way
  /// stores it. It counts nothing: critical_point asks it only to decide
  /// which trials not to compute ahead of the walk.
  virtual bool contains(double x, std::uint64_t seed) = 0;
};

/// Runs one (x, seed) trial through an optional memo: serve a known value,
/// otherwise run and record (or release the key if the trial throws). Safe
/// to call from sweep workers (TrialMemo contract); the single place the
/// lookup-run-store sequence lives.
[[nodiscard]] double run_memoized(
    TrialMemo* memo, double x, std::uint64_t seed,
    const std::function<double(double x, std::uint64_t seed)>& trial);

/// Runs `trial(x, seed)` for every x and `seeds` independent seeds derived
/// from `base_seed`, and returns the per-x mean as a Series.
///
/// This is the common shape of every figure in the paper: x is the attacker
/// fraction, y is a delivery metric averaged over seeds.
[[nodiscard]] Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial);

[[nodiscard]] Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo = nullptr);

[[nodiscard]] Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo = nullptr);

/// As sweep_mean but also reports the per-x standard deviation.
struct SweepResult {
  Series mean;
  Series stddev;
};

[[nodiscard]] SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial);

[[nodiscard]] SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo = nullptr);

[[nodiscard]] SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo = nullptr);

/// Bisection search for the smallest x in [lo, hi] at which `metric(x)` drops
/// below `threshold`. Assumes metric is (noisily) non-increasing in x; each
/// probe averages `seeds` runs. Returns lo if the metric is already below
/// the threshold there, hi if the threshold is never crossed. Throws
/// std::invalid_argument unless seeds >= 1, tolerance > 0, lo and hi are
/// finite and lo <= hi.
///
/// Idle workers speculate. Each batch evaluates the next `depth` levels of
/// the bisection tree at once — mid, then the quarter points, ... — where
/// depth is the largest d >= 1 with (2^d - 1) * seeds <= width, the pool's
/// size; the opening lo and hi probes share a batch when 2 * seeds <= width.
/// The batch's trials run in parallel outside the memo, skipping any
/// (x, seed) it contains(); then the decisions are taken serially from the
/// same 0.5 * (lo + hi) expressions, each probe going through the memo seed
/// by seed with a miss handed the batch's value. So the result, the trials on
/// the decision path and the memo's lookup/store sequence are those of the
/// serial bisection at any width; off-path values are discarded. A batch
/// whose root the memo already holds steps one level, unspeculated, so a
/// warm rerun runs no trials. At width 1 (depth 1) no trial runs ahead of
/// its miss.
[[nodiscard]] double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial);

[[nodiscard]] double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo = nullptr);

[[nodiscard]] double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo = nullptr);

}  // namespace lotus::sim
