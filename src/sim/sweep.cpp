#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/parallel.h"

namespace lotus::sim {

double run_memoized(
    TrialMemo* memo, double x, std::uint64_t seed,
    const std::function<double(double x, std::uint64_t seed)>& trial) {
  double value = 0.0;
  if (memo == nullptr) return trial(x, seed);
  if (memo->lookup(x, seed, value)) return value;
  try {
    value = trial(x, seed);
  } catch (...) {
    memo->release(x, seed);
    throw;
  }
  memo->store(x, seed, value);
  return value;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out;
  out.reserve(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  out.back() = hi;  // avoid accumulated rounding on the endpoint
  return out;
}

Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial) {
  return sweep_mean(std::move(name), xs, seeds, base_seed, trial,
                    sweep_threads());
}

Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo) {
  return sweep_stats(std::move(name), xs, seeds, base_seed, trial, threads,
                     memo)
      .mean;
}

Series sweep_mean(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo) {
  return sweep_stats(std::move(name), xs, seeds, base_seed, trial, pool, memo)
      .mean;
}

SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial) {
  return sweep_stats(std::move(name), xs, seeds, base_seed, trial,
                     sweep_threads());
}

SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo) {
  ThreadPool pool(threads);
  return sweep_stats(std::move(name), xs, seeds, base_seed, trial, pool, memo);
}

SweepResult sweep_stats(
    std::string name, const std::vector<double>& xs, std::size_t seeds,
    std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo) {
  if (seeds == 0) throw std::invalid_argument("sweep needs >= 1 seed");

  // Every (x, seed) trial is independent: seeds depend only on the replica
  // index, never on x, so adjacent sweep points see common random numbers
  // and curves stay smooth. Fan the whole grid across the pool into
  // index-addressed slots...
  std::vector<double> values(xs.size() * seeds);
  pool.parallel_for(values.size(), [&](std::size_t i) {
    const std::size_t xi = i / seeds;
    const std::size_t s = i % seeds;
    values[i] = run_memoized(memo, xs[xi], derive_seed(base_seed, s), trial);
  });

  // ...then reduce in (x, seed) order on this thread. This is the exact
  // add-sequence of the old serial loop, so means and stddevs are
  // bit-identical at any worker count.
  SweepResult result;
  result.mean.name = name;
  result.stddev.name = name + " (sd)";
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    RunningStats stats;
    for (std::size_t s = 0; s < seeds; ++s) {
      stats.add(values[xi * seeds + s]);
    }
    result.mean.add(xs[xi], stats.mean());
    result.stddev.add(xs[xi], stats.stddev());
  }
  return result;
}

namespace {

/// Levels of the bisection tree critical_point evaluates per batch: the
/// largest d >= 1 whose 2^d - 1 probe points of `seeds` trials each fit in
/// `width` workers. The cap (65535 points) is past any pool's width.
std::size_t speculation_depth(std::size_t width, std::size_t seeds) {
  std::size_t depth = 1;
  while (depth < 16 && (std::size_t{2} << depth) - 1 <= width / seeds) {
    ++depth;
  }
  return depth;
}

}  // namespace

double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial) {
  return critical_point(lo, hi, tolerance, threshold, seeds, base_seed, trial,
                        sweep_threads());
}

double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    std::size_t threads, TrialMemo* memo) {
  ThreadPool pool(threads);
  return critical_point(lo, hi, tolerance, threshold, seeds, base_seed, trial,
                        pool, memo);
}

double critical_point(
    double lo, double hi, double tolerance, double threshold,
    std::size_t seeds, std::uint64_t base_seed,
    const std::function<double(double x, std::uint64_t seed)>& trial,
    ThreadPool& pool, TrialMemo* memo) {
  if (seeds == 0) throw std::invalid_argument("sweep needs >= 1 seed");
  if (!(tolerance > 0.0)) {
    throw std::invalid_argument("critical_point: tolerance must be > 0");
  }
  if (!std::isfinite(lo)) {
    throw std::invalid_argument("critical_point: lo must be finite");
  }
  if (!std::isfinite(hi)) {
    throw std::invalid_argument("critical_point: hi must be finite");
  }
  if (lo > hi) throw std::invalid_argument("critical_point: lo must be <= hi");

  const std::size_t width = pool.size();
  const std::size_t tree_size =
      (std::size_t{1} << speculation_depth(width, seeds)) - 1;
  const bool paired_brackets = seeds <= width / 2;

  const auto known = [&](double x) {
    if (memo == nullptr) return false;
    for (std::size_t s = 0; s < seeds; ++s) {
      if (!memo->contains(x, derive_seed(base_seed, s))) return false;
    }
    return true;
  };

  // One batch: `points` are the probe points the next steps may visit (NaN
  // marks a tree slot outside the batch). Their trials run in parallel
  // outside the memo, into slot p * seeds + s. Trials the memo holds are
  // skipped, and a serial pool or a lone trial is left to the walk, which
  // runs it at its miss just as a serial bisection would.
  std::vector<double> points;
  std::vector<std::optional<double>> values;
  const auto run_batch = [&] {
    values.assign(points.size() * seeds, std::nullopt);
    std::vector<std::size_t> slots;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (std::isnan(points[p])) continue;
      for (std::size_t s = 0; s < seeds; ++s) {
        if (memo == nullptr ||
            !memo->contains(points[p], derive_seed(base_seed, s))) {
          slots.push_back(p * seeds + s);
        }
      }
    }
    if (pool.size() == 1 || slots.size() < 2) return;
    pool.parallel_for(slots.size(), [&](std::size_t k) {
      const std::size_t slot = slots[k];
      values[slot] =
          trial(points[slot / seeds], derive_seed(base_seed, slot % seeds));
    });
  };
  // The decision walk probes one batch point: the mean of its seeds through
  // the memo, in seed order, so the memo sees the serial bisection's key
  // sequence at any width. A miss is handed the batch's value instead of
  // re-running the trial; values off the walked path are discarded.
  const auto probe = [&](std::size_t p) {
    RunningStats stats;
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::size_t slot = p * seeds + s;
      stats.add(run_memoized(
          memo, points[p], derive_seed(base_seed, s),
          [&](double x, std::uint64_t seed) {
            return values[slot] ? *values[slot] : trial(x, seed);
          }));
    }
    return stats.mean();
  };

  // The opening brackets share a batch when both probes' trials fit the
  // width and lo is not already known.
  points = {lo};
  if (paired_brackets && !known(lo)) points.push_back(hi);
  run_batch();
  if (probe(0) < threshold) return lo;
  if (points.size() == 1) {
    points = {hi};
    run_batch();
  }
  if (probe(points.size() - 1) >= threshold) return hi;

  // Each batch is the heap-ordered subtree under [lo, hi] (mid, then the
  // quarter points, ...) down to `depth` levels. Every node splits its span
  // with the serial loop's 0.5 * (lo + hi) and enters only while that span
  // is wider than `tolerance`, the loop's own test, so the walk visits
  // exactly the serial bisection's points and stops where it stops. A known
  // root steps one level through the memo instead: speculating under it
  // would recompute the off-path trials an earlier run discarded.
  std::vector<std::pair<double, double>> spans;
  while (hi - lo > tolerance) {
    const std::size_t size = known(0.5 * (lo + hi)) ? 1 : tree_size;
    spans.assign(size, {lo, hi});
    points.assign(size, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < size; ++i) {
      const auto [a, b] = spans[i];
      if (i > 0 && (std::isnan(points[(i - 1) / 2]) || !(b - a > tolerance))) {
        continue;
      }
      points[i] = 0.5 * (a + b);
      if (2 * i + 2 < size) {
        spans[2 * i + 1] = {a, points[i]};
        spans[2 * i + 2] = {points[i], b};
      }
    }
    run_batch();
    for (std::size_t i = 0; i < size && !std::isnan(points[i]);) {
      if (probe(i) < threshold) {
        hi = points[i];
        i = 2 * i + 1;
      } else {
        lo = points[i];
        i = 2 * i + 2;
      }
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace lotus::sim
