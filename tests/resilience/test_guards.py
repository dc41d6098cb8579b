"""Numerical guardrails: finite checks, guarded engines, population control."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core import BsplineAoS, BsplineAoSoA, BsplineFused, BsplineSoA, Kind
from repro.qmc.rng import WalkerRngPool
from repro.resilience import (
    GuardConfig,
    GuardedEngine,
    GuardViolation,
    PopulationGuard,
    check_finite,
    nonfinite_counts,
)

_ENGINES = {
    "aos": lambda g, t: BsplineAoS(g, t),
    "soa": lambda g, t: BsplineSoA(g, t),
    "fused": lambda g, t: BsplineFused(g, t),
    "aosoa": lambda g, t: BsplineAoSoA(g, t, tile_size=8),
}


class TestFiniteChecks:
    def test_clean_arrays_pass(self):
        assert nonfinite_counts(a=np.ones(4), b=np.zeros((2, 3))) == {}
        check_finite("clean", a=np.ones(4))  # no raise

    def test_counts_per_array(self):
        a = np.array([1.0, np.nan, np.inf])
        b = np.array([np.nan, np.nan])
        assert nonfinite_counts(a=a, b=b, c=np.ones(2)) == {"a": 2, "b": 2}

    def test_check_finite_names_streams(self):
        with pytest.raises(GuardViolation, match="gradient: 1 bad"):
            check_finite("VGH", value=np.ones(3),
                         gradient=np.array([1.0, np.nan, 2.0]))


class TestGuardConfig:
    def test_defaults_valid(self):
        cfg = GuardConfig()
        assert cfg.on_nonfinite_energy == "raise"
        assert cfg.on_nonfinite_output == "raise"

    @pytest.mark.parametrize("policy", ["raise", "drop", "recompute", "ignore"])
    def test_energy_policies_accepted(self, policy):
        assert GuardConfig(on_nonfinite_energy=policy).on_nonfinite_energy == policy

    def test_bad_energy_policy_rejected(self):
        with pytest.raises(ValueError, match="on_nonfinite_energy"):
            GuardConfig(on_nonfinite_energy="explode")

    def test_bad_output_policy_rejected(self):
        with pytest.raises(ValueError, match="on_nonfinite_output"):
            GuardConfig(on_nonfinite_output="drop")


def _poisoned_table(table):
    """A table whose every stencil read is poisoned (one full bad spline)."""
    bad = table.copy()
    bad[..., 0] = np.nan
    return bad


class TestGuardedEngine:
    @pytest.mark.parametrize("layout", list(_ENGINES))
    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    def test_clean_engine_passes_all_layouts(
        self, layout, kind, small_grid, small_table
    ):
        guarded = GuardedEngine(_ENGINES[layout](small_grid, small_table), "raise")
        out = guarded.new_output(Kind(kind))
        getattr(guarded, kind)(0.4, 0.6, 0.9, out)
        assert guarded.violations == 0

    @pytest.mark.parametrize("layout", list(_ENGINES))
    def test_raise_policy_detects_all_layouts(self, layout, small_grid, small_table):
        eng = _ENGINES[layout](small_grid, _poisoned_table(small_table))
        guarded = GuardedEngine(eng, "raise")
        out = guarded.new_output(Kind.VGH)
        with pytest.raises(GuardViolation, match="non-finite VGH"):
            guarded.vgh(0.4, 0.6, 0.9, out)

    def test_count_policy_records_and_continues(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, _poisoned_table(small_table))
        guarded = GuardedEngine(eng, "count")
        out = guarded.new_output(Kind.VGL)
        for _ in range(3):
            guarded.vgl(0.4, 0.6, 0.9, out)
        assert guarded.violations == 3
        assert guarded.repairs == 0

    def test_count_policy_is_thread_safe(self, small_grid, small_table):
        # One engine shared by hammering walker threads: every violation
        # must be counted exactly once (the counters update under a lock).
        import threading

        eng = BsplineSoA(small_grid, _poisoned_table(small_table))
        guarded = GuardedEngine(eng, "count")
        per_thread, n_threads = 25, 4
        barrier = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer():
            out = guarded.new_output(Kind.VGH)  # outputs stay thread-private
            barrier.wait()
            try:
                for _ in range(per_thread):
                    guarded.vgh(0.4, 0.6, 0.9, out)
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert guarded.violations == per_thread * n_threads

    @pytest.mark.parametrize("layout", list(_ENGINES))
    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    def test_recompute_policy_repairs_all_layouts(
        self, layout, kind, small_grid, small_table
    ):
        eng = _ENGINES[layout](small_grid, _poisoned_table(small_table))
        guarded = GuardedEngine(eng, "recompute", reference_table=small_table)
        pristine = _ENGINES[layout](small_grid, small_table)
        out = guarded.new_output(Kind(kind))
        ref = pristine.new_output(Kind(kind))
        getattr(guarded, kind)(0.4, 0.6, 0.9, out)
        getattr(pristine, kind)(0.4, 0.6, 0.9, ref)
        assert guarded.repairs == 1
        a, b = out.as_canonical(), ref.as_canonical()
        for name in ("v", "g", "l", "h"):
            if a.get(name) is not None and b.get(name) is not None:
                np.testing.assert_allclose(a[name], b[name], atol=1e-6)

    def test_recompute_without_reference_table_rejected(self, small_grid, small_table):
        class Bare:
            grid = small_grid

        with pytest.raises(ValueError, match="reference_table"):
            GuardedEngine(Bare(), "recompute")

    def test_unknown_policy_rejected(self, small_grid, small_table):
        with pytest.raises(ValueError, match="policy"):
            GuardedEngine(BsplineSoA(small_grid, small_table), "fix")

    def test_passthrough_attributes(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        guarded = GuardedEngine(eng, "raise")
        assert guarded.n_splines == eng.n_splines
        assert guarded.grid is eng.grid


@dataclass
class FakeWalker:
    e_local: float
    clones: list = field(default_factory=list)

    def clone(self, rng):
        child = FakeWalker(self.e_local)
        self.clones.append(child)
        return child


class TestPopulationGuard:
    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            PopulationGuard(0)
        with pytest.raises(ValueError, match="max_factor"):
            PopulationGuard(4, max_factor=0)
        assert PopulationGuard(4, max_factor=3).cap == 12

    def test_healthy_population_untouched(self):
        guard = PopulationGuard(4)
        walkers = [FakeWalker(-1.0) for _ in range(4)]
        out = guard.enforce(list(walkers), walkers, WalkerRngPool(0))
        assert out == walkers
        assert guard.rescues == guard.truncations == 0

    def test_explosion_truncated_to_cap(self):
        guard = PopulationGuard(2, max_factor=2)
        new = [FakeWalker(-1.0) for _ in range(9)]
        out = guard.enforce(new, [], WalkerRngPool(0))
        assert len(out) == 4
        assert guard.truncations == 1

    def test_extinction_rescued_from_best_finite_parents(self):
        guard = PopulationGuard(4)
        previous = [FakeWalker(-3.0), FakeWalker(np.nan), FakeWalker(-7.0)]
        out = guard.enforce([], previous, WalkerRngPool(0))
        assert len(out) == 4
        assert guard.rescues == 1
        # The lowest finite-energy walker seeds the rescue.
        assert out[0] is previous[2]
        assert all(np.isfinite(w.e_local) for w in out)

    def test_total_extinction_raises(self):
        guard = PopulationGuard(3)
        with pytest.raises(GuardViolation, match="extinct"):
            guard.enforce([], [FakeWalker(np.nan)], WalkerRngPool(0))
