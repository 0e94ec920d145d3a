#!/usr/bin/env python3
"""The repository benchmark: builds cpclean from source, runs one workload,
checks its answers, and prints the result.

    python3 perfbench/run.py --workload table2_clean --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py compare BASE_RESULTS_DIR NEW_RESULTS_DIR

Run it from the root of a checkout. Workloads, metrics and bounds are in
BENCHMARK.json; what each one measures and why is in perfbench/README.md.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Every result is also saved,
stamped with its host and build, under .bench_work/results/, and the traced
run's spans under .bench_work/traces/.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
HARNESS_TIMEOUT_S = 170

WORKLOADS = {
    "table2_clean": "CPClean to convergence on the four Table 2 analogs, in process",
    "serve_read": "4 connections of q2/predict/explain over TCP on a 4,000-row session",
    "serve_clean": "clean_step + save_session beside 3 reader connections on a 1,000-row session",
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds the harness and the server, Release."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no cpclean sources here; run from the root of a checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_harness", "cpclean_server"])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(out, "perfbench_harness"),
            os.path.join(out, "cpclean", "examples", "cpclean_server"))


def source_digest():
    """SHA-256 over the sources the program is built from (the checkout may
    not be a git repository, so this stands in for a commit id)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "examples"):
        for path in glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True):
            if os.path.isfile(path):
                paths.append(path)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(harness_stamp):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": harness_stamp.get("compiler"),
        "build_type": harness_stamp.get("build_type"),
        "simd": harness_stamp.get("simd"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


class Server:
    """cpclean_server on an ephemeral loopback port, stopped on exit."""

    def __init__(self, binary, data_dir):
        cmd = [binary, "--port=0"]
        if data_dir:
            cmd.append("--data-dir=" + data_dir)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.port = None
        deadline = time.time() + 30
        while self.port is None and time.time() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            if "listening on 127.0.0.1:" in line:
                self.port = int(line.rsplit(":", 1)[1])
        if self.port is None:
            self.stop()
            fail("cpclean_server did not start")
        # Keep draining stderr so the server never blocks on a full pipe.
        self.drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self.drain.start()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_harness(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if done.returncode != 0:
        fail("harness failed with code %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def report(args, raw, result, host):
    """Human-readable lines printed before the result line."""
    detail = raw["detail"]
    print("== perfbench %s (seed %d, %gs, trace %d) ==" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("   " + WORKLOADS[args.workload])
    print("host: nproc=%s cpu=%s | build: %s %s simd=%s | source %s git %s" % (
        host["nproc"], host["cpu_model"], host["compiler"], host["build_type"],
        host["simd"], host["source_digest"], host["git_sha"] or "-"))
    print("answers: attempted=%d failed=%d error_rate=%.6g" % (
        result["attempted"], result["failed"],
        result["failed"] / max(result["attempted"], 1)))
    for name, metric in result["metrics"].items():
        print("  %-32s %14s %s" % (name, fmt(metric["value"]), metric["unit"]))
    for key in ("clean_step_ms", "read_ms", "explain_ms", "save_ms",
                "read_during_write_ms"):
        summary = detail.get(key)
        if summary and summary["n"] > 0:
            tail = ("p%g=%.4g" % (summary["tail_q"] * 100, summary["tail"])
                    if "tail_q" in summary else "(no percentile has 10 samples beyond)")
            print("  %-22s n=%-7d p50=%.4g %s" % (key, summary["n"], summary["p50"], tail))
    for key in ("gap_closed", "cleaned_frac", "cache_hit_frac", "steps",
                "converged", "answers_checked"):
        if key in detail:
            print("  %-22s %s" % (key, fmt(detail[key])))
    client = detail.get("client")
    if client:
        print("load generator: cpu=%.3fs cpu/connection=%.3f client_bound=%s" % (
            client["cpu_s"], client["cpu_frac_per_connection"], client["client_bound"]))
        for conn in client["connections"]:
            ops = " ".join("%s:%d/%d/%d" % (op, c["sent"], c["succeeded"], c["failed"])
                           for op, c in sorted(conn["ops"].items()))
            print("  conn %d %-6s sent/succeeded/failed %s" % (
                conn["connection"], conn["role"], ops))
    trace = detail.get("trace")
    if trace:
        roots = sum(l["self_ms"] for l in trace["layers"].values())
        print("traced run: wall %.3fs (re-runs %.3fs), untraced %.3fs, "
              "overhead %.3fs, coverage %.4f, clamped spans %d" % (
                  trace["traced_wall_s"], trace["rerun_s"], trace["untraced_wall_s"],
                  trace["overhead_s"], trace["coverage_frac"], trace["clamped_spans"]))
        print("  %-26s %8s %12s %12s %7s" % ("layer", "calls", "total_ms", "self_ms", "share"))
        for name, layer in sorted(trace["layers"].items(),
                                  key=lambda item: -item[1]["self_ms"]):
            print("  %-26s %8d %12.3f %12.3f %6.2f%%" % (
                name, layer["count"], layer["total_ms"], layer["self_ms"],
                100.0 * layer["self_ms"] / roots if roots else 0.0))


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        fail("unknown workload " + args.workload, 2)
    harness, server_bin = build()
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--size", args.size,
              "--corrupt", "1" if args.corrupt else "0", "--work", run_dir]
    server = None
    try:
        if args.workload == "table2_clean":
            raw = run_harness([harness, "table2"] + common)
        else:
            data_dir = (os.path.join(run_dir, "data")
                        if args.workload == "serve_clean" else None)
            server = Server(server_bin, data_dir)
            raw = run_harness([harness, "serve", "--workload", args.workload,
                               "--port", str(server.port),
                               "--server-pid", str(server.proc.pid)] + common)
        spans = os.path.join(run_dir, "spans-%s.jsonl" % args.workload)
        if os.path.isfile(spans):
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            shutil.move(spans, os.path.join(
                WORK, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed)))
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in names:
        value = raw["values"].get(metric["name"])
        if value is None and args.trace:
            value = 0  # a layer this workload never reaches (table2 has no serve)
        if value is None:
            fail("harness did not measure " + metric["name"])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    host = stamp(raw["stamp"])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "host": host, "result": result,
                   "detail": raw["detail"]}, f, indent=1)
    report(args, raw, result, host)
    print(json.dumps(result))


def compare(base_dir, new_dir):
    """Medians and quartile spreads of two result sets, per workload and
    end-to-end metric. Refuses to diff results from different hosts or
    builds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def load(directory):
        out = []
        for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
            with open(path) as f:
                out.append(json.load(f))
        if not out:
            fail("no untraced results in " + directory)
        return out

    base, new = load(base_dir), load(new_dir)
    keys = ("nproc", "cpu_model", "compiler", "build_type", "simd")
    identities = {tuple(r["host"][k] for k in keys) for r in base + new}
    if len(identities) > 1:
        for identity in sorted(identities, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(keys, identity)))
        fail("results come from different hosts or builds; refusing to compare", 3)
    print("%-14s %-18s %12s %12s %9s %9s  %s" % (
        "workload", "metric", "base p50", "new p50", "change", "spread", "verdict"))
    for workload in WORKLOADS:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            spread = 0.0
            if len(bv) >= 2:
                q = statistics.quantiles(bv, n=4)
                spread = (q[2] - q[0]) / bm if bm else 0.0
            change = (nm - bm) / bm if bm else 0.0
            worse = change if metric["better"] == "lower" else -change
            if spread > metric["bound"]:
                verdict = "unresolved (spread above bound)"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
            else:
                verdict = "within bound"
            print("%-14s %-18s %12.6g %12.6g %+8.2f%% %8.2f%%  %s" % (
                workload, name, bm, nm, 100 * change, 100 * spread, verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE_DIR NEW_DIR", 2)
        compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one checked answer (smoke test only)")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
