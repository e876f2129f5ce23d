#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size (README.md).

    python3 pibench/selftest.py

Run from the root of a checkout; builds like run.py. Checks that:
  * every metric named in BENCHMARK.json is printed with its unit, for
    every workload, untraced and traced, with no failed operation;
  * a corrupted oracle answer makes the run fail;
  * core.<idx>.converge_queries repeats exactly across two runs with the
    same seed;
  * a directory holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result.
Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["explore", "dashboard", "ingest"]
failures = []


def run(workload, seed, trace, *extra, cwd=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd or os.getcwd(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=300)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    traced = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, res, err = run(w, 7, trace)
            tag = "%s trace=%d" % (w, trace)
            check(code == 0 and res is not None,
                  tag + ": exit 0 with a result" + ("" if code == 0 else
                                                    "\n" + err[-1500:]))
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  tag + ": exactly the four result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  tag + ": correct, attempted > 0, failed == 0")
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted
                       if res["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            check(not missing, tag + ": every metric with its unit"
                  + ("" if not missing else " (missing %s)" % missing))
            if trace:
                traced[w] = res

    for w in WORKLOADS:
        code, res, _ = run(w, 7, 0, "--corrupt-oracle")
        check(code != 0 and res is not None and not res["correct"]
              and res["failed"] > 0,
              w + ": a corrupted oracle answer fails the run")

    code, again, _ = run("explore", 7, 1)
    first = traced.get("explore")
    if first and again:
        keys = [m["name"] for m in spec["per_layer"]
                if m["name"].endswith(".converge_queries")]
        same = all(first["metrics"][k]["value"] == again["metrics"][k]["value"]
                   for k in keys)
        check(same and keys, "converge_queries repeats for one seed: "
              + ", ".join("%s=%g" % (k, again["metrics"][k]["value"])
                          for k in keys))
    else:
        check(False, "converge_queries repeat: traced runs failed")

    # A tree with only BENCHMARK.json and the benchmark cannot build.
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    env_cwd = os.path.abspath(bare)
    p = subprocess.run([sys.executable, os.path.join(env_cwd, "pibench",
                                                     "run.py"),
                        "--workload", "explore", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=env_cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=180,
                       env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    check(p.returncode != 0 and not p.stdout.strip(),
          "bare tree: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
