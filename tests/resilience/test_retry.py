"""Bounded retry-with-backoff and the resilient nested evaluator."""

import numpy as np
import pytest

from repro.core import BsplineAoSoA, Kind, NestedEvaluator
from repro.resilience import (
    FaultInjector,
    ResilientEvaluator,
    RetryExhausted,
    RetryPolicy,
    SimulatedFault,
    retry_with_backoff,
)


class TestRetryPolicy:
    def test_delays_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3)
        assert policy.delays() == [0.1, 0.2, 0.3]

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy(max_attempts=1).delays() == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestRetryWithBackoff:
    def test_success_needs_no_retry(self):
        sleeps = []
        assert retry_with_backoff(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_transient_failure_absorbed_with_backoff(self):
        fn = FaultInjector(0).failing(lambda: "ok", n_failures=2)
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0)
        assert retry_with_backoff(fn, policy=policy, sleep=sleeps.append) == "ok"
        assert sleeps == [0.01, 0.02]

    def test_exhaustion_chains_last_error(self):
        fn = FaultInjector(0).failing(lambda: "ok", n_failures=None)
        with pytest.raises(RetryExhausted, match="3 attempts") as excinfo:
            retry_with_backoff(fn, policy=RetryPolicy(max_attempts=3),
                               sleep=lambda _: None)
        assert isinstance(excinfo.value.__cause__, SimulatedFault)

    def test_non_retryable_exception_propagates_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_with_backoff(fn, retry_on=(SimulatedFault,),
                               sleep=lambda _: None)
        assert len(calls) == 1

    def test_on_retry_callback_sees_attempts(self):
        fn = FaultInjector(0).failing(lambda: "ok", n_failures=2)
        seen = []
        retry_with_backoff(
            fn, policy=RetryPolicy(max_attempts=3), sleep=lambda _: None,
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [1, 2]


class TestResilientEvaluator:
    @pytest.fixture
    def engine(self, small_grid, small_table):
        return BsplineAoSoA(small_grid, small_table, tile_size=8)

    def _reference(self, engine, kind, positions):
        out = engine.new_output(Kind(kind))
        engine.eval_tiles(Kind(kind), range(engine.n_tiles), positions, out)
        return out.as_canonical()

    def test_transient_worker_faults_absorbed(self, engine, small_grid, rng):
        positions = small_grid.random_positions(3, rng)
        nested = NestedEvaluator(engine, 2)
        nested.evaluate = FaultInjector(0).failing(nested.evaluate, n_failures=2)
        resilient = ResilientEvaluator(
            nested, RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=lambda _: None,
        )
        out = engine.new_output(Kind.VGH)
        resilient.evaluate(Kind.VGH, positions, out)
        resilient.close()
        assert resilient.retries == 2
        assert resilient.fallbacks == 0
        ref = self._reference(engine, "vgh", positions)
        got = out.as_canonical()
        for name in ("v", "g", "h"):
            np.testing.assert_array_equal(got[name], ref[name])

    def test_hard_fault_degrades_to_single_threaded(self, engine, small_grid, rng):
        positions = small_grid.random_positions(3, rng)
        nested = NestedEvaluator(engine, 2)
        nested.evaluate = FaultInjector(0).failing(
            nested.evaluate, n_failures=None
        )
        with ResilientEvaluator(
            nested, RetryPolicy(max_attempts=2, base_delay=0.0),
            sleep=lambda _: None,
        ) as resilient:
            out = engine.new_output(Kind.VGL)
            resilient.evaluate(Kind.VGL, positions, out)
        assert resilient.fallbacks == 1
        assert resilient.retries == 1
        # The fallback runs the same pure kernels: bit-identical results.
        ref = self._reference(engine, "vgl", positions)
        got = out.as_canonical()
        for name in ("v", "g", "l"):
            np.testing.assert_array_equal(got[name], ref[name])

    def test_tiled_driver_reports_fallbacks(self, monkeypatch):
        from repro.miniqmc.config import MiniQmcConfig
        from repro.miniqmc import driver as driver_mod

        cfg = MiniQmcConfig(
            n_splines=24, grid_shape=(12, 12, 12), n_samples=2,
            n_iters=1, n_walkers=2, tile_size=8, seed=3,
        )
        inj = FaultInjector(0)
        orig_init = driver_mod.NestedEvaluator.__init__

        def broken_init(self, eng, n_threads):
            orig_init(self, eng, n_threads)
            self.evaluate = inj.failing(self.evaluate, n_failures=1)

        monkeypatch.setattr(driver_mod.NestedEvaluator, "__init__", broken_init)
        res = driver_mod.run_tiled_driver(
            cfg, n_threads=2, kernels=("v",),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        assert res.retries == 1
        assert res.fallbacks == 0
        assert res.evals == {"v": 4}
