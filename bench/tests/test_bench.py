"""Tests of the benchmark itself (not of the package).

Run from the repository root:  python3 -m pytest bench/tests -q
The smoke runs use the tiny scale, so the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_same_inputs(tmp_path):
    wl = workloads.WORKLOADS["native"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    scale = workloads.SCALES["tiny"]
    assert wl.make_inputs(5, tmp_path / "a", scale) == wl.make_inputs(5, tmp_path / "b", scale)
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


@pytest.mark.parametrize("workload", ["dense", "native", "synth"])
def test_digests_equal_with_tracing_on_and_off(workload):
    proc = run_cli("--workload", workload, "--seed", "4", "--seconds", "0",
                   "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    ops = json.loads((ROOT / ".bench_out" / f"{workload}-trace.json").read_text())["ops"]
    pairs = [(ops[i], ops[i + 1]) for i in range(0, len(ops) - 1, 2)]
    assert len(pairs) >= 2
    for untraced, traced in pairs:
        assert not untraced["traced"] and traced["traced"]
        assert untraced["input"] == traced["input"]
        assert untraced["digest"] == traced["digest"]


def test_every_wrapped_attribute_restored(tmp_path):
    before = {}
    for module_name, owner_name, attr, _, _ in tracing.TARGETS:
        module = import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        before[(module_name, owner_name, attr)] = (owner, owner.__dict__[attr])
    windowing = import_module("braincascade.windowing")
    pool = windowing.ThreadPoolExecutor

    wl = workloads.WORKLOADS["dense"]
    items = wl.make_inputs(1, tmp_path, workloads.SCALES["tiny"])
    state = wl.setup(tmp_path, workloads.SCALES["tiny"])
    x = wl.load(state, tmp_path, items[0])
    untraced = wl.check(state, x, wl.op(state, x))

    tracer = tracing.Tracer()
    assert tracer.install() == []  # every target exists in the package
    assert all(owner.__dict__[attr] is not original
               for (_, _, attr), (owner, original) in before.items())
    tracer.begin(0)
    try:
        traced = wl.check(state, x, wl.op(state, x))
    finally:
        tracer.end()
        tracer.restore()

    for (_, _, attr), (owner, original) in before.items():
        assert owner.__dict__[attr] is original, attr
    assert windowing.ThreadPoolExecutor is pool
    assert traced.digest == untraced.digest
    names = {s[1] for s in tracer.spans}
    assert {"predictor.predict", "morphology.label", "windowing.run", "op"} <= names


def test_pool_spans_have_the_submitting_span_as_parent(tmp_path):
    wl = workloads.WORKLOADS["dense"]  # threads=2
    items = wl.make_inputs(2, tmp_path, workloads.SCALES["tiny"])
    state = wl.setup(tmp_path, workloads.SCALES["tiny"])
    x = wl.load(state, tmp_path, items[0])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        wl.op(state, x)
    finally:
        tracer.end()
        tracer.restore()
    by_id = {s[0]: s for s in tracer.spans}
    predicts = [s for s in tracer.spans if s[1] == "predictor.predict"]
    assert predicts and all(by_id[s[4]][1] == "windowing.run" for s in predicts)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "op", 0.0, 10.0, 0, 0, None),
        (2, "windowing.run", 1.0, 9.0, 1, 0, None),
        # two pool threads overlapping in time
        (3, "predictor.predict", 2.0, 6.0, 2, 0, None),
        (4, "predictor.predict", 4.0, 8.0, 2, 0, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 2.0, 2: 2.0, 3: 4.0, 4: 4.0}
    m = tracing.op_metrics(spans, selfs, 0)
    assert m["windowing.run_self_s"] == 2.0 and m["predictor.predict_s"] == 8.0
    assert m["predictor.calls"] == 2


def test_overrunning_worker_is_killed_with_its_children():
    code = ("import subprocess, sys, time; subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(60)']); print('READY', flush=True); time.sleep(60)")
    worker = bench_run.Guarded([sys.executable, "-c", code])
    assert worker.wait_ready(30) is not None
    code, overran = worker.finish(0.5)
    assert overran and code is None
    assert session_members(worker.proc.pid) == []


def test_no_process_outlives_an_external_run(monkeypatch, capsys):
    started = []

    class Recording(bench_run.Guarded):
        def __init__(self, cmd):
            super().__init__(cmd)
            started.append(self.proc.pid)

    monkeypatch.setattr(bench_run, "Guarded", Recording)
    result = bench_run.run("external", 6, 0.0, False, scale="tiny")
    assert result["correct"]
    assert len(started) == bench_run.SETUP_SAMPLES
    for pid in started:
        assert session_members(pid) == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_cli("--workload", "shrink", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is `sid`."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        state, session = fields[0], int(fields[3])
        if session == sid and state != "Z":
            members.append(int(entry))
    return members
