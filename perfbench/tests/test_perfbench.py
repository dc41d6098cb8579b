"""Tests of the standing benchmark itself (smoke sizes, seconds each).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("dmc-seq", "dmc-sharded", "kernel-vgh", "serve-vgh")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_every_workload_end_to_end(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _ctx(seed=5):
    return workloads.Ctx(seed, 0.5, False, workloads.SMOKE, str(ROOT))


def test_wrong_kernel_output_raises_error_rate(monkeypatch):
    original = workloads.BsplineBatched.evaluate_batch

    def corrupt(self, kind, positions, out):
        original(self, kind, positions, out)
        out.v[0, 0] = np.nextafter(out.v[0, 0], np.inf)  # one ulp off
        return out

    monkeypatch.setattr(workloads.BsplineBatched, "evaluate_batch", corrupt)
    outcome = workloads.kernel_vgh(_ctx())
    assert outcome.failed > 0 and outcome.failed <= outcome.attempted


def test_wrong_served_response_raises_error_rate(monkeypatch):
    from repro.serve import protocol

    original = protocol.decode_array

    def corrupt(obj):
        array = original(obj).copy()
        array.flat[0] = np.nextafter(array.flat[0], np.inf)
        return array

    monkeypatch.setattr(protocol, "decode_array", corrupt)
    outcome = workloads.serve_vgh(_ctx())
    assert outcome.attempted > 0 and outcome.failed == outcome.attempted


def test_wrong_walker_sweep_raises_error_rate(monkeypatch):
    import repro.qmc.dmc as dmc_mod

    original = dmc_mod.sweep

    def corrupt(wf, tau, rng):
        accepted = original(wf, tau, rng)
        positions = wf.electrons.positions  # a copy
        positions[0, 0] = np.nextafter(positions[0, 0], np.inf)  # one ulp off
        wf.electrons.load_positions(positions, wrap=False)
        return accepted

    monkeypatch.setattr(dmc_mod, "sweep", corrupt)
    outcome = workloads.dmc_seq(_ctx())
    assert outcome.failed == 1


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_results_go_only_to_a_new_explicit_path(tmp_path):
    before = sorted(p.name for p in ROOT.iterdir())
    out = tmp_path / "record.json"
    args = ("--workload", "kernel-vgh", "--seed", "1", "--seconds", "0.5", "--size", "smoke")
    result_line(bench(*args, "--out", str(out)))
    record = json.loads(out.read_text())
    host = record["host"]
    assert host["fingerprint"] and host["nproc"] >= 1 and host["stream_gbps"] > 0
    assert host["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert sorted(p.name for p in ROOT.iterdir()) == before  # nothing else written

    # An existing file -- here a committed one -- is never overwritten.
    for target in (out, ROOT / "BENCHMARK.json"):
        digest = _digest(target)
        proc = bench(*args, "--out", str(target))
        assert proc.returncode != 0 and "refusing" in proc.stderr
        assert proc.stdout == "" and _digest(target) == digest


def _session_members(sid: int) -> list[str]:
    """``pid state`` of every process (zombies too) in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(f"{entry} {fields[0]}")
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize("workload", ["dmc-sharded", "serve-vgh"])
def test_no_process_outlives_a_run(workload):
    # Both workloads start processes: pool workers, the resource tracker,
    # the serve subprocess and its worker.  None may remain, not even as
    # a zombie, once the run has exited.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0.5", "--size", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=180)
    assert proc.returncode == 0, stderr
    assert _session_members(proc.pid) == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dmc-seq", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_padded_table_matches_the_program_padding():
    from repro.core.coeffs import pad_table_3d

    table = workloads.padded_random_table(np.random.default_rng(0), 5, 3)
    assert np.array_equal(table, pad_table_3d(table[1:6, 1:6, 1:6]))


def test_slice_rates_and_self_times():
    events = [(0.5, 2), (1.0, 2), (1.2, 1), (2.0, 4), (2.1, 9)]
    rates = workloads.slice_rates(0.0, events, window_s=10.0, min_s=0.5)
    assert rates == [4.0, 4.0, 5.0]  # the short trailing slice is dropped

    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    self_s = tracer.self_times()
    spans = tracer.spans
    assert self_s["outer"] == pytest.approx(
        (spans[0][2] - spans[0][1]) - (spans[1][2] - spans[1][1])
    )
    assert tracer.totals()[0] == {"outer": 1, "inner": 1}


def test_end_to_end_estimators():
    outcome = workloads.Outcome(
        rates=[float(r) for r in range(1, 11)], latencies_s=[0.001] * 20,
        setups_s=[1.0, 3.0], peak_rss_mib=10.0,
    )
    metrics = run.end_to_end(outcome)
    assert metrics["throughput_per_s"] == pytest.approx(5.5)  # median slice rate
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert run.reported_latencies(outcome)["samples"] == 20
    assert metrics["setup_s"] == 2.0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_pin_environment_sets_threads_and_a_fresh_tune_db(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "cc")
    monkeypatch.setenv("REPRO_TUNE_DB", "/elsewhere/tunedb.json")
    env = dict(os.environ)
    try:
        controls = run._pin_environment(tmp_path)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1" == os.environ["OMP_NUM_THREADS"]
        assert os.environ["REPRO_TUNE_DB"] == str(tmp_path / "tunedb.json")
        assert "REPRO_BACKEND" in controls["dropped_env"]
        assert "REPRO_BACKEND" not in os.environ
    finally:
        os.environ.clear()
        os.environ.update(env)
