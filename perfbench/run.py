"""mc4 benchmark: `mc4 solve` / `mc4 gen` end to end, and per layer when traced.

Run from the root of a checkout (the directory holding ``src/mc4``):

    python3 perfbench/run.py --workload m99-planted --seed 1 --seconds 20 --trace 0

One run:
1. writes the workload's seeded input pool under ``.perfbench_work/``;
2. starts one operation process (worker.py), a single closed-loop client
   calling ``mc4.cli.main`` in-process;
3. untraced only: before and after that process, times
   ``python -m mc4.cli solve TINY --json`` in fresh processes, one at a time,
   for ``setup_s``;
4. checks every answer outside the timed region;
5. scales every end-to-end time by the machine's speed measured around it
   (calibrate.py), so the figures are reference seconds, not wall seconds;
6. prints a readable report, then, as its last line, one JSON object with
   the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

Workloads are described in workloads.py, tracing in spans.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
# Set-up probes, half before and half after the operation process, so the
# median spans the run and not one phase of a machine whose speed drifts.
SETUP_SAMPLES = 8
MIN_OPS = 110          # p90 then has at least ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_pairs_per_s": "pairs/s",
    "success_rate": "share",
    "peak_rss_mb": "MB",
}

# The phase each workload is expected to spend most of its traced time in.
PHASES = {
    "read": ("cli.read_s",),
    "parse": ("network.parse_s", "algebra.parse_relation_s"),
    "profile+classify": ("network.profile_s", "subalgebra.classify_s"),
    "gadget": ("solvers.gadget_s",),
    "decide": ("solvers.decide_s",),
    "pc+search": ("network.pc_s", "solvers.search_self_s"),
    "dispatch": ("solvers.dispatch_s",),
    "generate": ("network.generate_s",),
    "serialize": ("network.serialize_s", "algebra.format_relation_s"),
    "render": ("cli.render_s",),
}
PREDICTED_PHASE = {
    "m99-planted": "decide",
    "dense-random": "parse",
    "general-planted": "pc+search",
    "gen-write": "serialize",
}

PER_LAYER = {
    "cli.read_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    **{m: "s" for m in spans.TIME_METRICS},
    "network.parse_mb_per_s": "MB/s",
    **{m: "count" for m in spans.COUNT_METRICS},
    **{m: "count" for m in spans.GADGET_METRICS},
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "share",
}

TINY_NETWORK = "nodes: a b c\na b : CG|CGPP\nb c : CGPP\na c : CGPP|CNO\n"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _setup_samples(src: Path, workdir: Path, count: int) -> tuple[list[float], list[float]]:
    """Wall and reference-scaled times of ``count`` fresh set-up processes;
    each is scaled by the calibration kernel timed just before and after it."""
    tiny = workdir / "tiny.net"
    tiny.write_text(TINY_NETWORK)
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "mc4.cli", "solve", str(tiny), "--json"]
    walls, kernel = [], [calibrate.kernel_time(3)]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        kernel.append(calibrate.kernel_time(3))
        if proc.returncode != 0 or not json.loads(proc.stdout)["consistent"]:
            raise RuntimeError(f"set-up probe failed: {proc.stdout!r} {proc.stderr!r}")
    return walls, calibrate.scaled(walls, kernel, window=0)


def _run_worker(spec: dict, workdir: Path) -> dict:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=spec["src"])
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=env, capture_output=True, text=True, timeout=3 * spec["seconds"] + 90,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"operation process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(Path(spec["result"]).read_text())


def _quantile(values: list[float], q: int) -> float:
    """q-th decile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _report_end_to_end(w, ops, kernel_s, verdicts, setup, peak_rss) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time in reference seconds (calibrate.py)."""
    walls = [op["t"] for op in ops]
    lat = calibrate.scaled(walls, kernel_s)
    setup_walls, setup = setup
    ok = [v is None for v in verdicts]
    p90 = _quantile(lat, 9)
    beyond = sum(t > p90 for t in lat)
    pairs_per_op = w.n * (w.n - 1) // 2
    failed = ok.count(False)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes"),
        "latency_p50_s": (statistics.median(lat), f"{len(lat)} samples"),
        "latency_p90_s": (p90, f"{len(lat)} samples, {beyond} beyond"),
        "throughput_pairs_per_s": (
            ok.count(True) * pairs_per_op / sum(lat),
            f"{ok.count(True)} correct ops x {pairs_per_op} pairs / time in ops",
        ),
        "success_rate": (1 - failed / len(ops), f"error_rate {failed / len(ops):.4f} "
                         f"({failed}/{len(ops)})"),
        "peak_rss_mb": (peak_rss, "operation process"),
    }
    lines = [
        f"  {metric:<24} {value:>14.6f} {END_TO_END[metric]:<8} ({note})"
        for metric, (value, note) in values.items()
    ]
    lines.append(f"  times above are reference seconds (calibration kernel at {calibrate.REF_S} s); "
                 f"as wall time: set-up median {statistics.median(setup_walls):.6f} s, "
                 f"latency p50 {statistics.median(walls):.6f} s, p90 {_quantile(walls, 9):.6f} s; "
                 f"kernel median {statistics.median(kernel_s):.6f} s, "
                 f"quartiles {' '.join(f'{q:.6f}' for q in statistics.quantiles(kernel_s, n=4))}")
    metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, (v, _) in values.items()}
    return metrics, lines


def _report_layers(name, ops, layers, absent, leaf_cost) -> tuple[dict, list[str]]:
    summary = spans.summarize(layers)
    untraced = [op["t"] for op in ops if not op["traced"]]
    traced = [op["t"] for op in ops if op["traced"]]
    summary["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    lines = [f"  per-layer medians over {len(layers)} traced ops "
             f"({len(untraced)} untraced ops for the overhead ratio):"]
    for metric, unit in PER_LAYER.items():
        lines.append(f"    {metric:<30} {summary[metric]:>14.6f} {unit}")
    if absent:
        lines.append(f"  absent (not traced, metrics read 0): {', '.join(absent)}")
    outside, inside = leaf_cost
    lines.append(f"  folded leaf wrapper: {outside * 1e6:.3f} us per call outside its timed window "
                 f"and {inside * 1e6:.3f} us inside (measured on a no-op); "
                 f"{summary['trace.leaf_overhead_s']:.6f} s per op taken off the parent spans' "
                 f"and the leaves' times and counted as tracer time")

    walls = [op["t"] for op in ops if op["traced"]]
    shares = spans.layer_shares(layers, walls)
    lines.append("  layer share of traced operation time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()))
    total = sum(walls)
    phase_share = {
        phase: sum(sum(m[k] for m in layers) for k in keys) / total
        for phase, keys in PHASES.items()
    }
    top = max(phase_share, key=phase_share.get)
    want = PREDICTED_PHASE[name]
    lines.append("  phase share: " + ", ".join(
        f"{phase} {share:.1%}" for phase, share in phase_share.items() if share >= 0.005))
    lines.append(f"  predicted dominant phase: {want}; measured: {top} "
                 f"({'matches' if top == want else 'DOES NOT match'} the prediction)")
    metrics = {m: {"value": summary[m], "unit": u} for m, u in PER_LAYER.items()}
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mc4" / "cli.py").is_file():
        return _fail(f"no mc4 sources under {src}; run from the root of a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        instances = workloads.make_instances(w.name, args.seed, workdir)
        gen_s = time.perf_counter() - t0
        setup = ([], []) if args.trace else _setup_samples(src, workdir, SETUP_SAMPLES // 2)
        spec = {
            "src": str(src),
            "seconds": args.seconds,
            "min_ops": MIN_OPS,
            "trace": bool(args.trace),
            "result": str(workdir / "result.json"),
            "trace_out": str(work_root / f"trace-{w.name}-{args.seed}.json"),
            "instances": [
                {
                    "argv": inst.argv,
                    "path": str(inst.path),
                    "writes": inst.writes,
                    "input_bytes": 0 if inst.writes else inst.path.stat().st_size,
                }
                for inst in instances
            ],
        }
        result = _run_worker(spec, workdir)
        if not args.trace:
            after = _setup_samples(src, workdir, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            setup = (setup[0] + after[0], setup[1] + after[1])
        verdicts = workloads.check_ops(instances, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = sum(v is not None for v in verdicts)
    print(f"workload {w.name}: seed {args.seed}, n={w.n}, pool of {len(instances)} "
          f"instances (generated in {gen_s:.2f} s), {len(ops)} operations, "
          f"one closed-loop client, trace={args.trace}")
    for v in sorted({v for v in verdicts if v is not None})[:5]:
        print(f"  FAILED: {v}")
    if args.trace:
        metrics, lines = _report_layers(w.name, ops, result["layers"], result["absent"],
                                        result["leaf_cost_s"])
    else:
        metrics, lines = _report_end_to_end(w, ops, result["kernel_s"], verdicts, setup,
                                            result["peak_rss_mb"])
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
