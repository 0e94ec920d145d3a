#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each metric BENCHMARK.json names is printed with its unit and that the
answers check out. Then runs every workload with one deliberately
corrupted answer and asserts that the error rate rises above zero.
"""

import json
import os
import subprocess
import sys

SECONDS = "2"


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, "%s exited %d" % (" ".join(cmd), done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (workload, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s trace %d: answers did not check out: %s" % (
                    workload, trace, {k: result[k] for k in ("correct", "attempted", "failed")}))
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if (got is None or got.get("unit") != metric["unit"]
                        or not isinstance(got.get("value"), (int, float))):
                    failures.append("%s trace %d: metric %s missing or without unit %s" % (
                        workload, trace, metric["name"], metric["unit"]))
            extra = set(result["metrics"]) - {m["name"] for m in names}
            if extra:
                failures.append("%s trace %d: unexpected metrics %s" % (
                    workload, trace, sorted(extra)))
        corrupted = run(workload, 0, corrupt=True)
        if corrupted["failed"] < 1 or corrupted["correct"]:
            failures.append("%s: a corrupted answer did not raise the error rate" % workload)
        print("ok  %s" % workload, flush=True)
    for failure in failures:
        print("FAIL " + failure)
    if failures:
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
