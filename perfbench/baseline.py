#!/usr/bin/env python3
"""Records perfbench/BASELINE.json: the medians and quartiles of every
end-to-end metric over ten seeds per workload, and the per-layer table of
one traced run per workload.

Run from the repository root:

    python3 perfbench/baseline.py

With no arguments it regenerates the committed baseline: seeds 601-610 for
the untraced runs and seed 601 for the traced one. The untraced runs
interleave the workloads, seed by seed, so slow phases of a shared host
spread over all of them. Every run is appended to
perfbench/out/baseline-runs.jsonl, and each metric's spread (interquartile
range over median) is printed against its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 601
RUNS = 10


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[0]), "result": json.loads(lines[-1])}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "baseline-runs.jsonl"), "a")

    def record(r):
        log.write(json.dumps(r) + "\n")
        log.flush()
        res = r["result"]
        print(f"{r['workload']} seed {r['seed']} trace {r['trace']}: "
              f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        return r

    plain = [record(run(bench, w, SEED0 + i, 0)) for i in range(RUNS) for w in names]
    traced = {w: record(run(bench, w, SEED0, 1)) for w in names}

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = {}
    for w in bench["workloads"]:
        runs = [r for r in plain if r["workload"] == w["name"]]
        e2e = {}
        for metric, unit in units.items():
            v = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            e2e[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w['name']:12s} {metric:12s} median {med:12.6g} spread {spread:.3f} "
                  f"(bound {bounds[metric]})", file=sys.stderr)
        named = {}
        for r in runs:
            for k, v in r["detail"]["named"].items():
                named.setdefault(k, []).append(v)
        t = traced[w["name"]]
        workloads[w["name"]] = {
            "why": w["why"],
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "end_to_end": e2e,
            "named_medians": {k: statistics.median(v) for k, v in sorted(named.items())},
            "provenance": runs[0]["detail"]["provenance"],
            "per_layer": {"seed": t["seed"], "correct": t["result"]["correct"],
                          "metrics": t["result"]["metrics"]},
        }
    baseline = {
        "schema": 1,
        "run_seconds": bench["run_seconds"],
        "timing_model": "The simulated timing model has no hardware reference in this repository, "
                        "so the simulated speedups it produces are unvalidated. This baseline records "
                        "host time of the simulator; simulated results are checked only against the "
                        "simulator's own recorded digests.",
        "workloads": workloads,
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
