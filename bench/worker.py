"""One workload run in its own process; started by run.py.

Imports the package, does the workload's one-time set-up, prints READY, then
(unless --probe) runs operations, cycling over the inputs, until --seconds
have passed and every input has run at least once, and writes the
per-operation results to <workdir>/result.json. With --trace 1 each input is
run twice in a row, first untraced and then traced, so the two outputs can be
compared and the tracing overhead measured on the same input.

Usage: python3 worker.py --workload NAME --workdir DIR --scale full|tiny
                         --seconds S --trace 0|1 [--probe]
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports the package)

MIN_OPS = 3
MIN_TRACED_PAIRS = 2


def run_ops(wl, state, workdir, items, seconds, trace, log):
    ops, first_digest = [], {}
    tracer = tracing.Tracer() if trace else None
    # one untimed operation first, so lazy imports and first-touch page faults
    # (paid once per process, not per scan) stay out of the timings
    x = wl.load(state, workdir, items[0])
    first_digest[items[0]["id"]] = wl.check(state, x, wl.op(state, x)).digest
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if trace:
            if i // 2 >= MIN_TRACED_PAIRS and i % 2 == 0 and elapsed >= seconds:
                break
            item, traced = items[(i // 2) % len(items)], i % 2 == 1
        else:
            # at least one whole pass over the inputs, so every input is timed
            if i >= max(MIN_OPS, len(items)) and elapsed >= seconds:
                break
            item, traced = items[i % len(items)], False
        record = {"index": i, "input": item["id"], "traced": traced}
        try:
            x = wl.load(state, workdir, item)
            if traced:
                tracer.install()
                tracer.begin(i)
            try:
                t0 = perf_counter()
                out = wl.op(state, x)
                record["seconds"] = perf_counter() - t0
            finally:
                if traced:
                    tracer.end()
                    tracer.restore()
            check = wl.check(state, x, out)
            record.update(ok=check.ok, dice=check.dice, digest=check.digest, detail=check.detail)
            # every repeat of an input, traced or not, must give the same bytes
            seen = first_digest.setdefault(item["id"], check.digest)
            if seen != check.digest:
                record.update(ok=False, detail=f"output {check.digest} differs from {seen} "
                                               f"on an earlier run of input {item['id']}")
        except Exception:
            record.update(ok=False, error=traceback.format_exc(limit=8))
        ops.append(record)
        # one line per finished operation, so a run killed at its deadline
        # still shows how many operations it attempted
        log.write(json.dumps({"index": i, "ok": record["ok"]}) + "\n")
        log.flush()
        i += 1
    return ops, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    if wl.one_cpu and hasattr(os, "sched_setaffinity"):
        # processes started from here on inherit the affinity
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_tracer = None
    if args.trace and not args.probe:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        setup_tracer.begin("setup")
    try:
        state = wl.setup(args.workdir, workloads.SCALES[args.scale])
    finally:
        if setup_tracer:
            setup_tracer.end()
            setup_tracer.restore()
    print("READY", flush=True)
    try:
        if args.probe:
            return 0
        items = json.loads((args.workdir / "inputs.json").read_text())
        with open(args.workdir / "ops.jsonl", "w") as log:
            ops, tracer = run_ops(wl, state, args.workdir, items, args.seconds, args.trace, log)
    finally:
        wl.close(state)

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = layer_metrics(ops, tracer, setup_tracer)
        result["spans"] = tracer.spans + setup_tracer.spans
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


def layer_metrics(ops, tracer, setup_tracer) -> dict:
    """Mean per-layer metrics over the traced operations."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    traced = [o for o in ops if o["traced"] and "seconds" in o]
    per_op = [tracing.op_metrics(spans, selfs, o["index"]) for o in traced]
    layers = {k: sum(m[k] for m in per_op) / len(per_op) for k in per_op[0]} if per_op else {}
    setup = tracing.op_metrics(setup_tracer.spans, tracing.self_times(setup_tracer.spans), "setup")
    layers["predictor.setup_s"] = layers.get("predictor.setup_s", 0.0) + setup["predictor.setup_s"]
    untraced = [o["seconds"] for o in ops if not o["traced"] and "seconds" in o]
    layers["trace.overhead_frac"] = (
        statistics.median(o["seconds"] for o in traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0)
    return layers


if __name__ == "__main__":
    sys.exit(main())
