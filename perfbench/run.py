#!/usr/bin/env python3
"""Host wall-clock benchmark of the model checker.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, expands
(workload, seed) into a config with workloads.py, runs the binary, checks
that its metrics are exactly the ones BENCHMARK.json names, and prints the
binary's report; the last line is the JSON result. With --trace 1 the
spans go to <build>/traces/<workload>-seed<n>.json. Exits non-zero, with
no result line, when the build, the run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing beside the sources

from workloads import WORKLOADS, generate  # noqa: E402

# The binary itself stops after --seconds plus one repetition; this is
# the hard limit on top.
RUN_SLACK_S = 150


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then brings the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no model-checker sources at %s" % (ROOT / "src"))
        return None
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            log("cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      check=False).returncode:
        log("build failed")
        return None
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_ok(line, trace):
    """False, with the reason logged, if `line` is not a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("last line is not JSON")
        return False
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("result keys are %s" % sorted(result))
        return False
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatch %s" % (missing, extra, wrong))
        return False
    if result["attempted"] < 1:
        log("nothing attempted")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (smoke tests only)")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    config = out / "configs" / ("%s-seed%d.conf" % (args.workload, args.seed))
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(generate(args.workload, args.seed, args.scale))
    trace_out = out / "traces" / ("%s-seed%d.json" % (args.workload,
                                                      args.seed))
    trace_out.parent.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--config", str(config), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    if not result_ok(lines[-1], args.trace):
        print("\n".join(lines[:-1]))
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
