#!/usr/bin/env python3
"""Runs the whole benchmark: every workload of ../BENCHMARK.json in a fresh
process, one at a time, untraced then traced; prints every metric; checks
validity; writes benchmark/RESULTS.json. Called by run.sh after the build.

With --repeat N it runs N full sets of the same code and compares them pair
by pair against each end-to-end metric's bound.

A set measures each workload untraced UNTRACED_RUNS times, each with another
seed, and reports the median of every end-to-end metric: on a shared 2-core
host single runs have outliers (an op_p50_us 17 % off, a peak_rss_mb 35 % off
were seen) that a median of three does not.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "benchmark", "out")
UNTRACED_RUNS = 3


def sh(*cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def run_one(binary, workload, seed, seconds, trace, tag):
    """One workload process. Echoes its report lines; returns its report."""
    report = os.path.join(OUT, f"report-{tag}-{workload}-{trace}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--report", report, "--out-dir", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited with {proc.returncode}")
    with open(report) as f:
        rep = json.load(f)
    assert rep["result"] == json.loads(lines[-1]), "report file and result line differ"
    return rep


def run_set(binary, bench, seed, tag, traced_s):
    """All workloads, untraced then traced. Returns (results, problems, flags)."""
    untraced_s = bench["run_seconds"]
    results, problems, flags = {}, [], []
    for w in (w["name"] for w in bench["workloads"]):
        us = [run_one(binary, w, seed + i, untraced_s, 0, f"{tag}-run{i + 1}")
              for i in range(UNTRACED_RUNS)]
        t = run_one(binary, w, seed, traced_s, 1, tag)
        attempted = sum(r["result"]["attempted"] for r in us + [t])
        failed = sum(r["result"]["failed"] for r in us + [t])
        results[w] = {
            "end_to_end": {m["name"]: statistics.median(u["result"]["metrics"][m["name"]]["value"]
                                                        for u in us)
                           for m in bench["end_to_end"]},
            "end_to_end_runs": [{k: v["value"] for k, v in u["result"]["metrics"].items()}
                                for u in us],
            "per_layer": {k: v["value"] for k, v in t["result"]["metrics"].items()},
            "ops_attempted": attempted,
            "ops_failed": failed,
            "fail_share": failed / attempted,
            "untraced": {k: statistics.median(u[k] for u in us)
                         for k in ("seconds", "ops", "op_p99_us", "msgs_per_s", "payload_mb_per_s")},
            "traced_seconds": traced_s,
        }
        for rep in us + [t]:
            where = f"{w} --seed {rep['seed']} --trace {rep['trace']}"
            if not rep["result"]["correct"]:
                problems.append(f"{where}: a payload failed verification")
            if rep["result"]["failed"]:
                problems.append(f"{where}: {rep['result']['failed']} operations failed")
            if not rep["sum_ratio_ok"]:
                problems.append(f"{where}: trace.sum_ratio outside 0.95..1.05")
            if rep["generator_limited"]:
                flags.append(f"{where}: generator-limited (lateness p99 above one period)")
        for m in bench["end_to_end"]:
            if not results[w]["end_to_end"].get(m["name"], 0) > 0:
                problems.append(f"{w}: end-to-end metric {m['name']} missing or not positive")
        for m in bench["per_layer"]:
            if m["name"] not in results[w]["per_layer"]:
                problems.append(f"{w}: per-layer metric {m['name']} missing")
    return results, problems, flags


def print_tables(bench, results):
    names = [w["name"] for w in bench["workloads"]]
    head = f"{'':<36}" + "".join(f"{n:>20}" for n in names)
    for kind in ("end_to_end", "per_layer"):
        print(f"\n{kind.replace('_', '-')} metrics\n{head}")
        for m in bench[kind]:
            row = "".join(f"{results[n][kind][m['name']]:>20.4f}" for n in names)
            print(f"{m['name'] + ' [' + m['unit'] + ']':<36}{row}")
    print(f"\nfailures and derived rates\n{head}")
    for key in ("ops_attempted", "ops_failed", "fail_share"):
        print(f"{key:<36}" + "".join(f"{results[n][key]:>20.6g}" for n in names))
    for key in ("ops", "msgs_per_s", "payload_mb_per_s", "op_p99_us"):
        print(f"{key:<36}" + "".join(f"{results[n]['untraced'][key]:>20.4f}" for n in names))


def compare(bench, first, second):
    """Relative difference of every end-to-end metric between two sets."""
    rows, beyond = [], 0
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            a, b = first[w]["end_to_end"][m["name"]], second[w]["end_to_end"][m["name"]]
            diff = abs(b - a) / a
            ok = diff <= m["bound"]
            beyond += not ok
            rows.append({"workload": w, "metric": m["name"], "first": a, "second": b,
                         "rel_diff": diff, "bound": m["bound"], "within": ok})
            print(f"{w:<20}{m['name']:<14}{a:>16.4f}{b:>16.4f}{diff:>9.2%} of bound {m['bound']:.0%}"
                  f"  {'ok' if ok else 'BEYOND BOUND'}")
    return rows, beyond


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(OUT, exist_ok=True)

    traced_s = max(3, bench["run_seconds"] // 2)  # a third of it is the untraced reference
    env = {
        "link": "host loopback interface, single process (not a real link)",
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "rustc": sh("rustc", "--version"),
        "commit": sh("git", "rev-parse", "HEAD") or "unknown",
        "seeds": list(range(args.seed, args.seed + UNTRACED_RUNS)),
        "untraced_runs": UNTRACED_RUNS,
        "untraced_seconds": bench["run_seconds"],
        "traced_seconds": traced_s,
    }
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    sets, problems, flags = [], [], []
    for i in range(args.repeat):
        print(f"\n==== set {i + 1} of {args.repeat} ====", flush=True)
        results, bad, noted = run_set(os.path.abspath(args.bin), bench, args.seed, f"set{i + 1}",
                                      traced_s)
        print_tables(bench, results)
        sets.append(results)
        problems += [f"set {i + 1}: {p}" for p in bad]
        flags += [f"set {i + 1}: {p}" for p in noted]

    comparisons, beyond = [], 0
    for i in range(1, len(sets)):
        print(f"\n==== set {i} against set {i + 1} ====")
        rows, n = compare(bench, sets[i - 1], sets[i])
        comparisons.append(rows)
        beyond += n

    out = {"environment": env, "sets": sets, "comparisons": comparisons,
           "problems": problems, "flags": flags}
    path = os.path.join(ROOT, "benchmark", "RESULTS.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    for p in flags:
        print(f"FLAG: {p}")
    for p in problems:
        print(f"VALIDITY: {p}")
    if beyond:
        print(f"{beyond} metric/workload pairs disagree beyond their bound")
    sys.exit(1 if problems or beyond else 0)


if __name__ == "__main__":
    main()
