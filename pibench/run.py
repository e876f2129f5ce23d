#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 pibench/run.py --workload explore|dashboard|ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
`pibench` (the progidx library plus the benchmark program in src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr. The last line of
stdout is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
The exit code is 0 only when every answer was correct and every metric
named in BENCHMARK.json was measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# Self-time metrics derived from the trace: per workload, the span whose
# self time (its duration minus the time its child spans cover) is
# reported per operation, in microseconds.
SELF_TIME_SPANS = {
    "explore": ["bench.query", "refine", "shared_scan"],
    "dashboard": ["submit", "queue_wait", "epoch_formation", "refine",
                  "shared_scan"],
    "ingest": ["submit", "queue_wait", "wal_fsync", "checkpoint", "refine"],
}


def fail(msg, code=2):
    print("pibench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no progidx sources (CMakeLists.txt, src/) in " + root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    src = os.path.relpath(BENCH_DIR, root)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "pibench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pibench")


def self_times(path):
    """Per span name: (total self time in us, list of durations in us)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    out = {}
    for evs in by_tid.values():
        # Parents sort before the children they contain.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child_us]
        def close(entry):
            ev, child = entry
            total, durs = out.setdefault(ev["name"], [0.0, []])
            out[ev["name"]][0] = total + max(0.0, ev["dur"] - child)
            durs.append(ev["dur"])
        for e in evs:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0])
        while stack:
            close(stack.pop())
    return out


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    i = max(0, min(len(v) - 1, int(-(-q * len(v) // 1)) - 1))
    return v[i]


def trace_metrics(result):
    spans = {}
    for t in result.get("traces", []):
        per = spans.setdefault(t["workload"], {})
        for name, (self_us, durs) in self_times(t["path"]).items():
            acc = per.setdefault(name, [0.0, []])
            acc[0] += self_us
            acc[1].extend(durs)
    metrics = {}
    for workload, names in SELF_TIME_SPANS.items():
        ops = max(1, result.get("trace_ops", {}).get(workload, 0))
        per = spans.get(workload, {})
        for name in names:
            self_us = per.get(name, [0.0, []])[0]
            metrics["self.%s.%s_us" % (workload, name)] = {
                "value": self_us / ops, "unit": "us"}
    ingest = spans.get("ingest", {})
    metrics["persist.wal_fsync_p99_us"] = {
        "value": quantile(ingest.get("wal_fsync", [0, []])[1], 0.99),
        "unit": "us"}
    metrics["persist.checkpoint_p50_ms"] = {
        "value": quantile(ingest.get("checkpoint", [0, []])[1], 0.5) / 1e3,
        "unit": "ms"}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "dashboard", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (selftest.py)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="make one oracle answer wrong (selftest.py)")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the checkout root: no BENCHMARK.json in " + root)
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if not lines or proc.returncode not in (0, 1):
            fail("pibench exited with %d and no result" % proc.returncode, 3)
        result = json.loads(lines[-1])
        if args.trace:
            result["metrics"].update(trace_metrics(result))
    except subprocess.TimeoutExpired:
        fail("pibench ran past %d s" % RUN_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"meta": result.get("meta", {})}), file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) not measured as named in BENCHMARK.json"
                 % (m["name"], m["unit"]), 4)
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
