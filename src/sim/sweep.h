// Multi-seed parameter sweep helpers shared by figure benches.
//
// The (x, seed) trial grid is embarrassingly parallel — seeds derive only
// from the replica index — so every sweep fans its trials across a
// sim::ThreadPool. Results are reduced in deterministic (x, seed) order, so
// output is bit-identical at any worker count. The default width is
// sweep_threads() (LOTUS_SWEEP_THREADS env override, else hardware
// concurrency); the overloads with a trailing `threads` argument pin it.
//
// Every sweep accepts an optional TrialMemo: when one is supplied, known
// (x, seed) trials are served from it instead of re-running, so curve
// families over the same configuration and re-probed bisection points each
// run a trial exactly once per process.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.h"
#include "sim/stats.h"

namespace lotus::sim {

/// Evenly spaced values from lo to hi inclusive (n >= 2), or {lo} when n == 1.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Optional trial memo consulted by the sweep engine before each (x, seed)
/// trial. A memo is scoped to one trial space: everything else the trial's
/// value depends on (the configuration, the attack, ...) must be fixed for
/// the memo's lifetime or folded into the key by the implementation (see
/// exp::TrialCache, which binds a config hash per scope). Implementations
/// must be thread-safe — the sweep engine calls lookup/store from its
/// workers — and store() must be idempotent: two workers racing on the same
/// (x, seed) both run the (deterministic) trial and store the same value.
class TrialMemo {
 public:
  virtual ~TrialMemo() = default;
  /// Returns true and sets `value` when (x, seed) is already known.
  virtual bool lookup(double x, std::uint64_t seed, double& value) = 0;
  virtual void store(double x, std::uint64_t seed, double value) = 0;
  /// True when lookup(x, seed) would be served from what the memo holds,
  /// on-disk records included. It counts nothing: critical_point asks it
  /// only to decide which trials not to compute ahead of the walk.
  virtual bool contains(double x, std::uint64_t seed) = 0;
};

/// Runs one (x, seed) trial through an optional memo: serve a known value,
/// otherwise run and record. Safe to call from sweep workers (TrialMemo
/// contract); the single place the lookup-run-store sequence lives.
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

/// Bisection search for the smallest x in [lo, hi] at which `metric(x)` drops
/// below `threshold`. Assumes metric is (noisily) non-increasing in x; each
/// probe averages `seeds` runs. Returns lo if the metric is already below
/// the threshold there, hi if the threshold is never crossed. Throws
/// std::invalid_argument unless seeds >= 1, tolerance > 0, lo and hi are
/// finite and lo <= hi.
///
/// Idle workers speculate. Each batch evaluates the next `depth` levels of
/// the bisection tree at once — mid, then the quarter points, ... — where
/// depth is the largest d >= 1 with (2^d - 1) * seeds <= threads; the
/// opening lo and hi probes share a batch when 2 * seeds <= threads. The
/// batch's trials run in parallel outside the memo, skipping any (x, seed)
/// it contains(); then the decisions are taken serially from the same
/// 0.5 * (lo + hi) expressions, each probe going through the memo seed by
/// seed with a miss handed the batch's value. So the result, the trials on
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

}  // namespace lotus::sim
