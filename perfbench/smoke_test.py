#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced at a tenth of its size
(run.py --scale 0.1) and checks that:
  * run.py exits 0 and its last line is a correct result (no failed gate;
    in a traced solo run one gate holds the explore split's base, the
    root span, to ExploreStats::wall_seconds within 5%);
  * every metric BENCHMARK.json names is present with its unit;
  * in each traced run no share of the explore split is negative (its
    calls fit inside the explorer's wall time), and for solo workloads
    the named replay layers cover >= 95% of the replay;
  * the span file parses and holds spans.
The shares of each split sum to 1 by construction, so the sum is not
checked.
Exits non-zero on the first workload that fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from run import build_dir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
TOLERANCE = 0.05


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
           "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_metrics(result, names):
    assert result["correct"] and result["failed"] == 0, "a gate failed"
    assert result["attempted"] >= 1
    for name, unit in names.items():
        assert name in result["metrics"], "missing " + name
        assert result["metrics"][name]["unit"] == unit, "unit of " + name


def check_trace(workload, result):
    m = result["metrics"]
    # The explorer's self time is its wall time minus its calls, so it
    # goes negative when calls are counted beyond the explorer's time.
    explore = [v["value"] for k, v in m.items() if k.endswith("_frac") and
               k.startswith(("mcfs.engine.", "net.store.", "mc.explorer."))]
    assert min(explore) >= 0, "negative explore share"
    if workload != "swarm-remote":
        coverage = m["trace.replay_coverage_frac"]["value"]
        assert coverage >= 1 - TOLERANCE, "replay coverage %f" % coverage
    spans = build_dir() / "traces" / ("%s-seed%d.json" % (workload, SEED))
    doc = json.loads(spans.read_text())
    assert doc["workload"] == workload and doc["spans"], "empty span file"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        try:
            check_metrics(run(workload, 0), end_to_end)
            traced = run(workload, 1)
            check_metrics(traced, per_layer)
            check_trace(workload, traced)
        except (AssertionError, KeyError, ValueError) as e:
            print("FAIL %s: %s" % (workload, e))
            return 1
        print("ok   %s" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
