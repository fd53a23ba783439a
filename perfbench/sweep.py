"""Run the benchmark over sets of seeds and compare the sets.

    python3 perfbench/sweep.py [--sets 1-10,11-20] [--trace 0|1] [--out summary.json]

Runs ``BENCHMARK.json``'s command once per (set, workload, seed), one at a
time, from the current directory, on every workload and at its
``run_seconds``.  The runs go round-robin: the i-th seed of every set runs
on every workload before any (i+1)-th seed does, so a slow phase of the
machine falls on all sets and workloads alike instead of on one whole set.

Prints for every set, workload and metric the median, the quartiles and the
inter-quartile spread as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound, and for each later set how far its median lies from the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench: dict, name: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[dict], bounds: dict) -> dict:
    rows = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[metric] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(metric),
            "unit": runs[0]["metrics"][metric]["unit"],
            "values": values,
        }
    return rows


def _flag(spread: float, bound: float | None) -> str:
    if bound is None:
        return ""
    if spread < bound / 3:
        return f"bound {bound}: below a third of it"
    return f"bound {bound}: {'within' if spread <= bound else 'OVER'} the bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default="1-10,11-20",
                        help="comma-separated seed ranges, one per set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = bench["end_to_end"] + bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    names = [w["name"] for w in bench["workloads"]]
    sets = {spec: _seeds(spec) for spec in args.sets.split(",")}

    runs = {spec: {name: [] for name in names} for spec in sets}
    for i in range(max(len(seeds) for seeds in sets.values())):
        for spec, seeds in sets.items():
            if i >= len(seeds):
                continue
            for name in names:
                result = _run(bench, name, seeds[i], args.trace)
                runs[spec][name].append(result)
                print(f"set {spec} {name} seed {seeds[i]}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    summary = {spec: {} for spec in sets}
    for spec, seeds in sets.items():
        for name in names:
            rows = _summary(runs[spec][name], bounds)
            summary[spec][name] = {
                "seeds": seeds,
                "correct": all(r["correct"] for r in runs[spec][name]),
                "metrics": rows,
            }
            print(f"set {spec} {name}:")
            for metric, row in rows.items():
                print(f"  {metric:<30} median {row['median']:<14.6g} {row['unit']:<8} "
                      f"spread {row['spread']:7.2%}  {_flag(row['spread'], row['bound'])}")

    first, *later = sets
    comparison = {}
    for spec in later:
        for name in names:
            for metric, row in summary[spec][name]["metrics"].items():
                base = summary[first][name]["metrics"][metric]["median"]
                change = (row["median"] - base) / base if base else 0.0
                worse = change if better[metric] == "lower" else -change
                bound = row["bound"]
                entry = {"first": base, "later": row["median"], "change": change,
                         "bound": bound, "worse_by_more_than_bound":
                         bound is not None and worse > bound}
                comparison.setdefault(f"{spec} vs {first}", {}).setdefault(name, {})[metric] = entry
                if bound is not None:
                    verdict = "within" if abs(change) <= bound else "OUTSIDE"
                    print(f"set {spec} vs {first} {name:<16} {metric:<24} "
                          f"{change:+8.2%}  {verdict} the bound {bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"sets": summary, "comparison": comparison}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
