#!/usr/bin/env python3
"""The benchmark's own test, at smoke size (10^3 nodes, three benches, 50 units).

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced and asserts that each metric
BENCHMARK.json names is printed once with its unit (as a human-readable line
and in the final JSON), that failed_frac is 0 with at least one check
attempted, and that the exact counters repeat across a second run of the same
seed. Takes about a minute.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counters that must repeat exactly for the same seed.
EXACT = ["gossip.updates_moved", "gossip.exchanges", "gossip.pushes",
         "gossip.dump_updates", "sim.waves_per_phase", "gossip.trials",
         "exp.cache.lookups", "exp.cache.hits", "exp.store.appended"]


def run(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()


def check(workload, trace, specs):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    assert lines[0].startswith("meta "), lines[0]
    meta = json.loads(lines[0][len("meta "):])
    for key in ("nproc", "P", "isa", "build_type", "compiler", "git_sha",
                "seed", "loadavg_1m", "steal_ticks"):
        assert key in meta, key

    printed = {}
    for line in lines[1:-1]:
        name, value, unit = line.split()[:3]
        printed[name] = (float(value), unit)
    assert printed["failed_frac"][0] == 0, printed["failed_frac"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        name = spec["name"]
        assert printed[name][1] == spec["unit"], (name, printed[name])
        assert result["metrics"][name]["unit"] == spec["unit"], name
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        check(workload, 0, spec["end_to_end"])
        traced = check(workload, 1, spec["per_layer"])
        again = check(workload, 1, spec["per_layer"])
        for name in EXACT:
            assert traced[name] == again[name], (workload, name)
        print(f"ok {workload}")


if __name__ == "__main__":
    main()
