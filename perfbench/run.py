#!/usr/bin/env python3
"""The lotus benchmark: three batch workloads, each at width 1 and width P.

    python3 perfbench/run.py --workload scale_1e5 --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call builds the measurement driver
(perfbench/perfbench.cpp, against the repo's src/ and bench/) into
.bench_build/. Workloads (see perfbench/README.md for why each exists):

  scale_1e5     one trade-lotus trial at 10^5 nodes (gossip round loop)
  figs_quick    every registered figure bench at --quick, cold cache + store
  fleet_resume  forked fleet workers draining a 90%-finished campaign

P = min(4, usable CPUs). A run repeats (width 1, width P) pairs, alternating
which width goes first, until the next pair would overrun --seconds, checks
every output, and reports medians. Human-readable lines (metadata, one line
per metric with its unit) come first; the last stdout line is the JSON
result. --trace 1 reports the per-layer metrics instead of the end-to-end
ones. --smoke shrinks every input (10^3 nodes, three benches, 50 units) for
the benchmark's own test (perfbench/smoke_test.py).
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden")

FULL = {"nodes": 100000, "rounds": 60, "units": 2000, "benches": "all",
        "figs_setup_reps": 40, "fleet_setup_reps": 40, "scale_setup_reps": 3}
SMOKE = {"nodes": 1000, "rounds": 30, "units": 50,
         "benches": "fig1_attacks,token_rare,scrip_defense",
         "figs_setup_reps": 3, "fleet_setup_reps": 3, "scale_setup_reps": 1}

# The benches figs_quick reports one by one; the rest are summed as "other".
NAMED_BENCHES = ["scale_crossover", "churn_attack", "fig1_attacks",
                 "fig2_pushsize", "fig3_obedient", "intermittent",
                 "scrip_defense", "rep_attack"]

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; exits 1 when it cannot."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, len(os.sched_getaffinity(0))))])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(step))
            sys.exit(1)


def driver(*args):
    """Runs one driver command and returns its JSON output."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("LOTUS_ENGINE_THREADS", "LOTUS_SWEEP_THREADS")}
    proc = subprocess.run([DRIVER, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError(f"perfbench {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def med(values):
    return statistics.median(values) if values else 0.0


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list, as perfbench.cpp takes it."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1] if ordered else 0.0


def call_stats(name, summary):
    """A per-call timing as p50 (the bare name), p99 and sample count."""
    return {name: summary["p50"], name + ".p99": summary["p99"],
            name + ".n": summary["n"]}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("check failed:", what)


class Run:
    """One workload's samples at width 1 and P, and the checks on them.

    A sample is one driver process. Each subclass's sample() runs one and
    hands it to record(); its per_layer() turns the traced samples into
    per-layer metrics.
    """

    def __init__(self, seed, size, width, work, checks):
        self.seed, self.size, self.width = seed, size, width
        self.work, self.checks = work, checks
        self.samples = {1: [], width: []}
        self.untraced = []  # width-1 twins of traced samples, tracing off
        self.reference = None

    def prepare(self):
        pass

    def record(self, out, width, twin, exact, what):
        """Keeps a sample; `exact` must equal the run's first sample's."""
        if self.reference is None:
            self.reference = exact
        else:
            self.checks.expect(exact == self.reference, f"{what} at width {width}")
        (self.untraced if twin else self.samples[width]).append(out)

    def walls(self, width):
        return [s["wall_s"] for s in self.samples[width]]

    def end_to_end(self):
        every = self.samples[1] + self.samples[self.width]
        return {"serial_s": med(self.walls(1)),
                "parallel_s": med(self.walls(self.width)),
                "setup_s": med([v for s in every for v in s["setup_s"]]),
                "peak_rss_mb": max(s["peak_rss_mb"] for s in every)}

    def trace_overhead(self):
        return med(self.walls(1)) - med([s["wall_s"] for s in self.untraced])


class ScaleRun(Run):
    """scale_1e5: one trade-lotus trial at 10^5 nodes, engine width 1 and P."""

    def sample(self, width, traced, twin=False):
        size = self.size
        out = driver("scale", "--seed", self.seed, "--nodes", size["nodes"],
                     "--rounds", size["rounds"], "--threads", width,
                     "--setup-reps", 0 if twin else size["scale_setup_reps"])
        self.record(out, width, twin, out["result"], "GossipResult differs")

    def per_layer(self):
        size, p = self.size, self.width
        w1, wp = self.samples[1], self.samples[p]
        res = self.reference
        replay = driver("replay", "--seed", self.seed, "--nodes", size["nodes"],
                        "--rounds", size["rounds"], "--threads", p)
        m = {
            "gossip.ctor_s": med([s["ctor_s"] for s in w1]),
            "gossip.rounds_per_s.w1": size["rounds"] / med(self.walls(1)),
            "gossip.rounds_per_s.wP": size["rounds"] / med(self.walls(p)),
            "gossip.cpu_util.wP": med([s["cpu_s"] / (s["wall_s"] * p) for s in wp]),
            "gossip.bytes_per_node.w1": w1[0]["state_bytes"] / size["nodes"],
            "gossip.bytes_per_node.wP": wp[0]["state_bytes"] / size["nodes"],
            "gossip.updates_moved": res["exchange_updates"] + res["push_updates"]
            + res["attacker_dump_updates"],
            "gossip.exchanges": res["balanced_exchanges"],
            "gossip.pushes": res["pushes"],
            "gossip.dump_updates": res["attacker_dump_updates"],
            "sim.waves_per_phase": replay["waves_per_phase"],
            "sim.wave1_share": replay["wave1_share"],
        }
        m.update(call_stats("crypto.partner_of_ns", replay["partner_of_ns"]))
        m.update(call_stats("sim.shuffle_ns_per_node", replay["shuffle_ns_per_node"]))
        m.update(call_stats("sim.wave_assign_ns_per_slot",
                            replay["wave_assign_ns_per_slot"]))
        m.update(call_stats("sim.barrier_us.wP", replay["barrier_us"]))
        m.update(call_stats("sim.exchange_ns", replay["exchange_ns"]))
        m["trace.overhead_s"] = self.trace_overhead()
        return m


class FigsRun(Run):
    """figs_quick: every registered bench at --quick, cold, sweep width 1 and P."""

    def sample(self, width, traced, twin=False):
        tag = os.path.join(self.work, "figs")
        out = driver("figs", "--seed", self.seed, "--threads", width,
                     "--setup-reps", self.size["figs_setup_reps"],
                     "--tmp", tag + "-cache", "--out", tag + "-out",
                     "--only", self.size["benches"], "--trace", int(traced))
        texts = {}
        for bench in out["benches"]:
            with open(os.path.join(tag + "-out", bench["name"] + ".txt"), "rb") as f:
                texts[bench["name"]] = f.read()
        shutil.rmtree(tag + "-cache", ignore_errors=True)
        shutil.rmtree(tag + "-out", ignore_errors=True)
        self.checks.expect(out["failures"] == 0, "a bench returned non-zero")
        if self.seed == 1:
            for name, text in texts.items():
                golden = os.path.join(GOLDEN, name + ".golden")
                if os.path.exists(golden):
                    with open(golden, "rb") as f:
                        self.checks.expect(f.read() == text,
                                           f"{name} differs from its golden")
        counters = [out[k] for k in ("lookups", "hits", "misses", "appended")]
        self.record(out, width, twin, (texts, counters),
                    "figure stdout or cache/store counters differ")

    def per_layer(self):
        p = self.width
        w1, wp = self.samples[1], self.samples[p]

        def bench_wall(samples, names):
            return med([sum(b["wall_s"] for b in s["benches"] if b["name"] in names)
                        for s in samples])

        def bench_util(samples, name):
            return med([b["cpu_s"] / (b["wall_s"] * p) for s in samples
                        for b in s["benches"] if b["name"] == name])

        every = [b["name"] for b in w1[0]["benches"]]
        other = [n for n in every if n not in NAMED_BENCHES]
        m = {}
        for name in NAMED_BENCHES:
            m[f"figs.{name}.s.w1"] = bench_wall(w1, [name])
            m[f"figs.{name}.s.wP"] = bench_wall(wp, [name])
        m["figs.other.s.w1"] = bench_wall(w1, other)
        m["figs.other.s.wP"] = bench_wall(wp, other)
        m["figs.scale_crossover.cpu_util.wP"] = bench_util(wp, "scale_crossover")
        m["figs.churn_attack.cpu_util.wP"] = bench_util(wp, "churn_attack")
        m["sim.sweep.cpu_util.wP"] = med([s["cpu_s"] / (s["wall_s"] * p) for s in wp])
        first = w1[0]
        m["exp.cache.lookups"] = first["lookups"]
        m["exp.cache.hits"] = first["hits"]
        m["exp.cache.hit_ratio"] = first["hits"] / max(1, first["lookups"])
        m["gossip.trials"] = first["misses"]
        m["figs.trials_per_s.w1"] = med([
            s["misses"] / max(1e-9, sum(b["wall_s"] for b in s["benches"]
                                        if b["misses"] > 0)) for s in w1])
        m["exp.store.open_s"] = med([s["open_s"] for s in w1 + wp])
        m["exp.store.appended"] = first["appended"]
        m["exp.store.index_fallbacks"] = first["index_fallbacks"]
        # The bitset exchange kernel on the Table-1 (250-node) window.
        replay = driver("replay", "--seed", self.seed, "--nodes", 250,
                        "--rounds", 120, "--threads", p)
        m.update(call_stats("sim.exchange_ns", replay["exchange_ns"]))
        m["trace.overhead_s"] = self.trace_overhead()
        return m


class FleetRun(Run):
    """fleet_resume: forked fleet::Worker processes drain a resumed campaign."""

    def prepare(self):
        self.fixture = os.path.join(self.work, "fixture")
        out = driver("fixture", "--dir", self.fixture, "--seed", self.seed,
                     "--units", self.size["units"])
        self.fixture_records = out["records"]

    def sample(self, width, traced, twin=False):
        units = self.size["units"]
        out = driver("fleet", "--fixture", self.fixture,
                     "--work", os.path.join(self.work, "drain"),
                     "--seed", self.seed, "--units", units, "--workers", width,
                     "--setup-reps", self.size["fleet_setup_reps"],
                     "--trace", int(traced))
        workers = [w for w in out["workers"] if w is not None]

        def total(key):
            return sum(w[key] for w in workers)

        self.checks.expect(
            len(workers) == width and total("mismatches") == 0
            and total("hits") == total("disk_hits"),
            f"disk hits at width {width} disagree with the generator")
        self.checks.expect(
            out["bad_exits"] == 0 and total("completed") == units
            and total("superseded") == 0 and total("failed") == 0
            and total("io_error") == 0 and out["queue_done"] == units,
            f"units at width {width} not completed exactly once")
        self.checks.expect(
            out["records"] == out["grid_trials"]
            and out["records"] == self.fixture_records + total("misses")
            and out["duplicates"] == 0 and out["foreign"] == 0
            and out["missing"] == 0,
            f"store at width {width} is not fixture + misses")
        out["totals"] = {k: total(k) for k in (
            "completed", "superseded", "failed", "lookups", "disk_hits",
            "misses", "appended", "dedup_dropped", "index_fallbacks")}
        out["overhead_s"] = sum(w["run_s"] - w["runner_s"] for w in workers)
        counters = [out["totals"][k] for k in ("lookups", "disk_hits", "misses",
                                               "appended")]
        self.record(out, width, twin, counters, "cache/store counters differ")

    def per_layer(self):
        p, units = self.width, self.size["units"]
        w1, wp = self.samples[1], self.samples[p]
        serial = w1[0]["workers"][0]
        t1, tp = w1[0]["totals"], wp[0]["totals"]
        m = {
            "exp.store.open_s": med([s["open_s"] for s in w1 + wp]),
            "exp.store.appended": t1["appended"],
            "fleet.enqueue_s": med([s["enqueue_s"] for s in w1 + wp]),
            "fleet.overhead_us_per_unit.w1": med([s["overhead_s"] for s in w1]) / units * 1e6,
            "fleet.overhead_us_per_unit.wP": med([s["overhead_s"] for s in wp]) / units * 1e6,
            "fleet.completed": t1["completed"],
            "fleet.superseded": t1["superseded"] + tp["superseded"],
            "fleet.failed": t1["failed"] + tp["failed"],
            "exp.cache.disk_hit_ratio": t1["disk_hits"] / max(1, t1["lookups"]),
            "exp.store.dedup_dropped.wP": tp["dedup_dropped"] / max(1, tp["appended"]),
            "exp.store.index_fallbacks": t1["index_fallbacks"] + tp["index_fallbacks"],
            "fleet_resume.sys_share": med([s["sys_s"] / max(1e-9, s["user_s"] + s["sys_s"])
                                           for s in w1]),
        }
        m.update(call_stats("exp.store.scope_load_us", serial["scope_load_us"]))
        m.update(call_stats("exp.cache.lookup_ns", serial["lookup_ns"]))
        m.update(call_stats("exp.cache.store_ns", serial["store_ns"]))
        for tag, samples in (("w1", w1), ("wP", wp)):
            flushes = sorted(v for s in samples for w in s["workers"]
                             for v in w["flush_us"])
            m.update(call_stats(f"exp.store.flush_us.{tag}", {
                "p50": percentile(flushes, 0.50), "p99": percentile(flushes, 0.99),
                "n": len(flushes)}))
        m["trace.overhead_s"] = self.trace_overhead()
        return m


WORKLOADS = {"scale_1e5": ScaleRun, "figs_quick": FigsRun,
             "fleet_resume": FleetRun}


def cpu_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def git_sha():
    # The ceiling stops git from reporting an enclosing repository's HEAD
    # when the checkout itself is not a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    end_specs, layer_specs = load_metric_specs()
    build()
    nproc = len(os.sched_getaffinity(0))
    width = min(4, nproc)
    size = SMOKE if args.smoke else FULL
    work = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    checks = Checks()
    info = driver("info")
    load_before, steal_before = os.getloadavg()[0], cpu_steal_ticks()
    try:
        run = WORKLOADS[args.workload](args.seed, size, width, work, checks)
        run.prepare()
        # Which width goes first alternates run to run (by seed) and pair to
        # pair, so minute-scale host drift lands on both widths alike.
        wide_first = args.seed % 2 == 1
        deadline = time.monotonic() + args.seconds
        pair = 0
        while True:
            start = time.monotonic()
            widths = [width, 1] if (pair % 2 == 0) == wide_first else [1, width]
            for w in widths:
                run.sample(w, traced=bool(args.trace))
            if args.trace:
                run.sample(1, traced=False, twin=True)  # for the trace overhead
            pair += 1
            if time.monotonic() + (time.monotonic() - start) > deadline:
                break
        values = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": nproc, "P": width, "isa": info["isa"],
            "build_type": info["build_type"], "compiler": info["compiler"],
            "git_sha": git_sha(), "pairs": pair,
            "loadavg_1m": [load_before, os.getloadavg()[0]],
            "steal_ticks": cpu_steal_ticks() - steal_before,
            "walls_w1": run.walls(1), "walls_wP": run.walls(width)}
    print("meta " + json.dumps(meta, sort_keys=True))

    specs = layer_specs if args.trace else end_specs
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value:.6g} {spec['unit']}")
    failed_frac = checks.failed / max(1, checks.attempted)
    print(f"failed_frac {failed_frac:.6g} 1 ({checks.failed} of "
          f"{checks.attempted} checks)")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
