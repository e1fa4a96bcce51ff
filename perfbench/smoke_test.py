#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at --size tiny, untraced with the
default seed and traced with the held-out seed (both from
perfbench/metrics.json), and checks that:
  * the run exits 0 and its last stdout line is one JSON object with exactly
    the keys correct, attempted, failed and metrics, and correct is true;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed exactly once, with its unit and a finite value,
    and no other metric is printed;
  * the run header names the build type, compiler, nproc, jobs and seed, and a
    sim_digest line is printed;
  * every metric and workload name matches [A-Za-z0-9_.-]+ and every metric
    of BENCHMARK.json is described in perfbench/metrics.json (and back);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits 1 naming each failed check.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
    return ok


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError("printed more than once: " + ", ".join(dup))
    return dict(pairs)


def run_bench(cwd, workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(bench, workload, seed, trace):
    tag = f"{workload} trace={trace} seed={seed}"
    p = run_bench(REPO, workload, seed, trace)
    if not check(p.returncode == 0, f"{tag}: exit code {p.returncode}: {p.stderr[-400:]}"):
        return
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        check(False, f"{tag}: last line is not a clean JSON object: {e}")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result.get("correct") is True, f"{tag}: correct is not true")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{tag}: attempted")
    check(isinstance(result.get("failed"), int) and result["failed"] == 0, f"{tag}: failed runs")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    missing, extra = sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))
    check(not missing and not extra, f"{tag}: metrics missing {missing} extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        check(set(m) == {"value", "unit"}, f"{tag}: {name} keys {sorted(m)}")
        check(m.get("unit") == unit, f"{tag}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{tag}: {name} value {v!r}")
    header = "\n".join(lines[:3])
    for word in ("build type=", "compiler=", "nproc=", "jobs=", f"seed={seed}"):
        check(word in header, f"{tag}: run header lacks {word!r}")
    check(any(l.startswith(f"sim_digest {workload} ") for l in lines), f"{tag}: no sim_digest line")
    if trace:
        check(any(l.startswith("spans written to ") for l in lines), f"{tag}: spans not written")


def check_bare_checkout():
    bare = os.path.join(REPO, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(bare, "backlog", 1, 0)
    last = (p.stdout.strip().splitlines() or [""])[-1]
    check(p.returncode != 0, "bare checkout: run.py exited 0")
    check(not last.startswith("{"), "bare checkout: a result was printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f, object_pairs_hook=no_duplicates)
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)
    metric_names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in metric_names + [w["name"] for w in bench["workloads"]]:
        check(NAME.fullmatch(name) is not None and len(name) <= 64, f"bad name {name!r}")
    check(len(set(metric_names)) == len(metric_names), "a metric name is used twice")
    check(set(notes["end_to_end"]) == {m["name"] for m in bench["end_to_end"]},
          "metrics.json end_to_end differs from BENCHMARK.json")
    check(set(notes["per_layer"]) == {m["name"] for m in bench["per_layer"]},
          "metrics.json per_layer differs from BENCHMARK.json")
    check(set(notes["workloads"]) == {w["name"] for w in bench["workloads"]},
          "metrics.json workloads differ from BENCHMARK.json")
    for m in bench["per_layer"]:
        check(notes["per_layer"].get(m["name"], {}).get("unit") == m["unit"],
              f"metrics.json unit of {m['name']} differs from BENCHMARK.json")
    for w in bench["workloads"]:
        check_run(bench, w["name"], notes["default_seed"], 0)
        check_run(bench, w["name"], notes["held_out_seed"], 1)
    check_bare_checkout()
    for f in failures:
        print("FAIL", f)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
