"""Tests for the OBS switchboard: zero-cost contract, hooks, engine counts."""

import json

import numpy as np
import pytest

from repro.core import (
    BsplineAoS,
    BsplineAoSoA,
    BsplineFused,
    BsplineSoA,
    Kind,
    NestedEvaluator,
)
from repro.obs import NULL_SPAN, OBS, kernel_bytes_moved


def counter_value(name, **labels):
    return OBS.registry.counter(name, **labels).value


class TestDisabledContract:
    def test_disabled_helpers_record_nothing(self):
        assert not OBS.enabled
        OBS.count("n")
        OBS.gauge("g", 1.0)
        OBS.observe("h", 0.5)
        OBS.event("e")
        OBS.complete("c", 0.0, 1.0)
        OBS.kernel_eval("soa", "v", 10, 0.1, bytes_moved=100)
        assert len(OBS.registry) == 0
        assert len(OBS.tracer) == 0

    def test_disabled_span_is_the_null_singleton(self):
        assert OBS.span("anything") is NULL_SPAN

    def test_disabled_kernels_record_nothing(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        out = eng.new_output(Kind.VGH)
        eng.vgh(0.1, 0.2, 0.3, out)
        assert len(OBS.registry) == 0


class TestLifecycle:
    def test_enable_disable_reset(self):
        OBS.enable()
        try:
            OBS.count("n")
            assert counter_value("n") == 1
        finally:
            OBS.disable()
        # Disabling keeps data; reset drops it.
        assert counter_value("n") == 1
        OBS.reset()
        assert len(OBS.registry) == 0

    def test_context_manager(self):
        with OBS:
            assert OBS.enabled
            OBS.count("n")
        assert not OBS.enabled
        assert counter_value("n") == 1
        OBS.reset()


class TestKernelEvalHook:
    def test_records_counts_bytes_and_latencies(self, obs):
        obs.kernel_eval("soa", "vgh", 512, 0.128, bytes_moved=4096)
        assert counter_value("kernel_evals_total", engine="soa", kernel="vgh") == 512
        assert counter_value("kernel_bytes_total", engine="soa", kernel="vgh") == 4096
        batch = obs.registry.histogram(
            "kernel_batch_seconds", engine="soa", kernel="vgh"
        )
        per_eval = obs.registry.histogram(
            "kernel_eval_seconds", engine="soa", kernel="vgh"
        )
        assert batch.count == 1 and np.isclose(batch.sum, 0.128)
        assert per_eval.count == 1 and np.isclose(per_eval.sum, 0.128 / 512)

    def test_zero_evals_skip_per_eval_histogram(self, obs):
        obs.kernel_eval("soa", "v", 0, 0.0)
        assert (
            obs.registry.histogram("kernel_eval_seconds", engine="soa", kernel="v").count
            == 0
        )


class TestBytesMovedModel:
    def test_stream_counts_match_paper(self):
        n, itemsize = 100, 4
        # AoS VGH: 64 stencil + 13 output streams; SoA VGH: 64 + 10.
        assert kernel_bytes_moved("vgh", "aos", n, itemsize) == 77 * n * itemsize
        assert kernel_bytes_moved("vgh", "soa", n, itemsize) == 74 * n * itemsize
        assert kernel_bytes_moved("vgl", "soa", n, itemsize) == 69 * n * itemsize
        assert kernel_bytes_moved("v", "aos", n, itemsize) == 65 * n * itemsize

    def test_non_aos_layouts_use_soa_streams(self):
        assert kernel_bytes_moved("vgh", "aosoa", 8, 8) == kernel_bytes_moved(
            "vgh", "soa", 8, 8
        )
        assert kernel_bytes_moved("vgh", "fused", 8, 8) == kernel_bytes_moved(
            "vgh", "soa", 8, 8
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            kernel_bytes_moved("vg", "soa", 8, 8)


class TestEngineCounting:
    @pytest.fixture
    def engines(self, small_grid, small_table):
        return {
            "aos": BsplineAoS(small_grid, small_table),
            "soa": BsplineSoA(small_grid, small_table),
            "fused": BsplineFused(small_grid, small_table),
            "aosoa": BsplineAoSoA(small_grid, small_table, tile_size=8),
        }

    def test_each_engine_counts_each_kernel_once(self, obs, engines):
        for name, eng in engines.items():
            for kind in ("v", "vgl", "vgh"):
                out = eng.new_output(Kind(kind))
                getattr(eng, kind)(0.3, 0.4, 0.5, out)
                assert (
                    counter_value("kernel_calls_total", engine=name, kernel=kind) == 1
                ), f"{name}/{kind}"

    def test_aosoa_tiles_do_not_double_count(self, obs, engines):
        eng = engines["aosoa"]
        out = eng.new_output(Kind.VGH)
        eng.vgh(0.3, 0.4, 0.5, out)
        # One tiled call = one logical kernel call, not one per tile.
        assert counter_value("kernel_calls_total", engine="aosoa", kernel="vgh") == 1
        assert counter_value("kernel_calls_total", engine="soa", kernel="vgh") == 0

    def test_nested_evaluator_records_occupancy(self, obs, engines):
        eng = engines["aosoa"]  # 24 splines / 8 per tile = 3 tiles
        with NestedEvaluator(eng, n_threads=2) as nested:
            out = eng.new_output(Kind.VGL)
            nested.evaluate(Kind.VGL, [(0.1, 0.2, 0.3)], out)
        assert obs.registry.gauge("nested_threads").value == 2
        assert obs.registry.gauge("nested_active_workers").value == 2
        assert obs.registry.gauge("nested_occupancy").value == 1.0
        assert counter_value("tile_evals_total", engine="aosoa", kernel="vgl") == 3
        assert any(e["name"] == "nested:vgl" for e in obs.tracer.events)


class TestWrite:
    def test_write_all_outputs(self, obs, tmp_path):
        obs.count("n", engine="soa")
        obs.observe("t", 0.5)
        with obs.span("s"):
            pass
        obs.event("e")
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        obs.write(metrics_out=metrics, trace_out=trace, events_out=events)
        m = json.loads(metrics.read_text())
        assert m["counters"][0]["name"] == "n"
        t = json.loads(trace.read_text())
        assert {ev["name"] for ev in t["traceEvents"]} == {"s", "e"}
        assert len(events.read_text().splitlines()) == 2

    def test_summary_table_delegates_to_registry(self, obs):
        obs.count("kernel_evals_total", 5, engine="soa")
        assert "kernel_evals_total{engine=soa}" in obs.summary_table()
