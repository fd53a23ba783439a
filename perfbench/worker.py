"""Operation process of the benchmark: one closed-loop client calling mc4.

Usage: python worker.py SPEC.json

The spec (written by run.py) lists the instances as ``mc4.cli.main`` argument
lists.  The loop runs them in turn, each as soon as the previous returns,
until the time is up and at least ``min_ops`` have run.  Only the call to
``main`` (with its output captured) is timed; hashing the output for the
answer check happens between operations.  The calibration kernel
(calibrate.py) is timed before every operation and after the last, so
run.py can scale each operation time by the machine's speed around it.
With tracing on, operations alternate untraced and traced on the same
instance, so the traced run also yields the tracing overhead.  The result JSON goes to the spec's ``result``
path; this process never generates inputs, so its peak RSS is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import zlib
from pathlib import Path

WARMUP_OPS = 2


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path[:0] = [spec["src"], str(Path(__file__).resolve().parent)]
    import mc4.cli

    import calibrate

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        leaf_cost = tracer.leaf_overhead()

    instances = spec["instances"]
    outputs: dict[str, str] = {}
    ops = []

    def run_op(k: int, traced: bool) -> dict:
        inst = instances[k]
        argv = inst["argv"]
        buf = io.StringIO()
        err = None
        rc = None
        if traced:
            tracer.begin(len(ops), inst["input_bytes"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = mc4.cli.main(argv)
        except Exception as exc:  # an operation that raises counts as failed
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        text = buf.getvalue()
        if inst["writes"]:
            data = Path(inst["path"]).read_bytes() if err is None else b""
            digest = f"{zlib.crc32(data):08x}:{len(data)}"
            out_bytes = len(data)
        else:
            digest = f"{zlib.crc32(text.encode()):08x}:{len(text)}"
            outputs.setdefault(digest, text)
            out_bytes = len(text.encode())
        if traced:
            tracer.end(t0, t1, out_bytes)
        return {"inst": k, "t": t1 - t0, "rc": rc, "out": digest, "err": err, "traced": traced}

    for k in range(min(WARMUP_OPS, len(instances))):
        calibrate.kernel_time()
        run_op(k, False)

    per_instance = 2 if tracer else 1
    deadline_min = time.perf_counter() + spec["seconds"]
    deadline_max = time.perf_counter() + 3 * spec["seconds"]
    kernel_times = []
    i = 0
    while True:
        kernel_times.append(calibrate.kernel_time())
        now = time.perf_counter()
        if now >= deadline_max or (now >= deadline_min and len(ops) >= spec["min_ops"]):
            break
        k = (i // per_instance) % len(instances)
        ops.append(run_op(k, tracer is not None and i % 2 == 1))
        i += 1

    result = {
        "ops": ops,
        "kernel_s": kernel_times,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["absent"] = tracer.absent
        result["leaf_cost_s"] = leaf_cost
        result["layers"] = [spans.op_metrics(op, leaf_cost) for op in tracer.ops]
        Path(spec["trace_out"]).write_text(json.dumps(tracer.dump()))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
