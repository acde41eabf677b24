"""braincascade benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):
    python3 bench/run.py --workload shrink --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each exists): shrink, dense, native,
external, synth. The run

1. generates the workload's seeded inputs into .bench_out/ (untimed);
2. starts the worker (worker.py) in a fresh process SETUP_SAMPLES times and
   times each from spawn until it reports READY (package import plus one-time
   construction such as spawning model servers); all but the last exit there;
3. lets the last worker run operations for --seconds, each output checked,
   under a wall-clock deadline: a worker that overruns is killed, with its
   whole process group, and all its operations count as failed;
4. prints an environment line, one line per metric with its unit, and as the
   last line a JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (op_p50_s, ops_per_s,
setup_s, peak_rss_mb, dice_mean; fail_frac is printed, and is failed /
attempted). With --trace 1 they are the per-layer ones, measured by wrapping
the package's functions from outside (tracing.py); the spans are written to
.bench_out/<workload>-trace.json.

Exits 0 when the run completed, 1 when it could not (no result line is printed
when the package is missing), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# metric names and units, and the workload names
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 3
RUN_BUDGET_S = 165.0  # the whole run, inputs and set-ups included
READY_TIMEOUT_S = 60.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- the guarded worker --------------------------------------------------------

class Guarded:
    """A worker process in its own session, killed with its group at a deadline."""

    def __init__(self, cmd: list[str]):
        self.lines: queue.Queue = queue.Queue()
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                     start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((perf_counter(), line.decode(errors="replace").strip()))
        self.lines.put((perf_counter(), None))

    def wait_ready(self, timeout: float) -> float | None:
        """Seconds from spawn to READY, or None if it never came."""
        deadline = perf_counter() + timeout
        while True:
            try:
                at, line = self.lines.get(timeout=max(deadline - perf_counter(), 0.0))
            except queue.Empty:
                return None
            if line is None:
                return None
            if line == "READY":
                return at - self.started

    def finish(self, timeout: float) -> tuple[int | None, bool]:
        """Wait for exit; on overrun kill the group. Returns (code, overran)."""
        overran = False
        try:
            code = self.proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            overran, code = True, None
        # model servers and anything else the worker started share its group
        self._kill_group()
        if overran:
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        return code, overran

    def _kill_group(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            if self.proc.poll() is None:
                self.proc.wait()
            time.sleep(0.05)


# -- one run -------------------------------------------------------------------

def percentile_note(n: int) -> str:
    # the highest percentile with at least ten samples beyond it
    return f"p{100 * (1 - 10 / n):.0f} reportable" if n >= 20 else "median only (n < 20)"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload and return the result; prints the report lines."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    began = perf_counter()
    wl = workloads.WORKLOADS[workload]
    workdir = OUT_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        items = wl.make_inputs(seed, workdir, workloads.SCALES[scale])
        (workdir / "inputs.json").write_text(json.dumps(items))
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--workdir", str(workdir), "--scale", scale, "--seconds", str(seconds),
               "--trace", str(int(trace))]

        def remaining():
            return RUN_BUDGET_S - (perf_counter() - began)

        setups, failure = [], None
        for k in range(SETUP_SAMPLES):
            probe = k < SETUP_SAMPLES - 1
            worker = Guarded(cmd + ["--probe"] if probe else cmd)
            ready = worker.wait_ready(min(READY_TIMEOUT_S, remaining()))
            if ready is None:
                worker.finish(0)
                failure = "worker never reported READY"
                break
            setups.append(ready)
            code, overran = worker.finish(remaining() if not probe else 10.0)
            if overran or code != 0:
                failure = (f"worker overran the {RUN_BUDGET_S:.0f} s run deadline and was killed"
                           if overran else f"worker exited with code {code}")
                break
        ops_log = workdir / "ops.jsonl"
        logged = len(ops_log.read_text().splitlines()) if ops_log.exists() else 0
        if failure:
            attempted = logged + 1
            return report(workload, seed, trace, {"failure": failure, "attempted": attempted,
                                                  "failed": attempted})
        result = json.loads((workdir / "result.json").read_text())
        result["setups"] = setups
        if trace:
            (OUT_DIR / f"{workload}-trace.json").write_text(json.dumps(
                {"env": environment(), "seed": seed, "ops": result["ops"],
                 "layers": result["layers"], "spans": result.pop("spans")}))
        return report(workload, seed, trace, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload, seed, trace, result) -> dict:
    print("env: " + json.dumps(environment()))
    if "failure" in result:
        print(f"{workload}: run failed: {result['failure']}")
        return {"correct": False, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": {}}

    ops = result["ops"]
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    for o in ops:
        if not o["ok"]:
            print(f"FAILED op {o['index']} (input {o['input']}): "
                  f"{o.get('detail') or o.get('error', '').strip()}")
    digests = sorted({(o["input"], o["digest"]) for o in ops if o.get("digest")})
    print(f"{workload}: seed {seed}, {attempted} ops, {failed} failed; output digests "
          + " ".join(f"{i}:{d}" for i, d in digests))
    print("op seconds (input:s): " + " ".join(
        f"{o['input']}:{o['seconds']:.3f}{'T' if o['traced'] else ''}" for o in ops if "seconds" in o))

    if trace:
        values, notes, wanted = result["layers"], {}, SPEC["per_layer"]
    else:
        secs = [o["seconds"] for o in ops if "seconds" in o]
        dices = [o["dice"] for o in ops if o.get("dice") is not None]
        values = {
            "op_p50_s": statistics.median(secs),
            # operations that passed, per second spent inside operations
            "ops_per_s": (attempted - failed) / sum(secs),
            "setup_s": statistics.median(result["setups"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "dice_mean": statistics.fmean(dices) if dices else 0.0,
        }
        notes = {"op_p50_s": f"n={len(secs)}, {percentile_note(len(secs))}",
                 "setup_s": f"n={len(result['setups'])}", "dice_mean": f"n={len(dices)}"}
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"  {'fail_frac':28s} {failed / attempted:.6g}  ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}




def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "braincascade" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
