"""Deterministic fault injection, end to end against the guardrails."""

import numpy as np
import pytest

from repro.core import BsplineAoSoA, BsplineSoA, Kind, NestedEvaluator
from repro.qmc.dmc import DmcWalker, run_dmc
from repro.qmc.estimators import LocalEnergy
from repro.qmc.rng import WalkerRngPool
from repro.qmc.vmc import run_vmc
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    GuardedEngine,
    GuardViolation,
    SimulatedFault,
)
from tests.qmc.test_wavefunction import build_wf


class TestInjectorDeterminism:
    def test_same_seed_corrupts_same_sites(self, small_table):
        a = FaultInjector(99).corrupt_coefficients(small_table, n_sites=5)[1]
        b = FaultInjector(99).corrupt_coefficients(small_table, n_sites=5)[1]
        assert a == b

    def test_different_seed_differs(self, small_table):
        a = FaultInjector(1).corrupt_coefficients(small_table, n_sites=5)[1]
        b = FaultInjector(2).corrupt_coefficients(small_table, n_sites=5)[1]
        assert a != b

    def test_corruption_modes(self, small_table):
        inj = FaultInjector(0)
        nan_t, sites = inj.corrupt_coefficients(small_table, n_sites=3, mode="nan")
        assert all(np.isnan(nan_t[s]) for s in sites)
        inf_t, sites = inj.corrupt_coefficients(small_table, n_sites=3, mode="inf")
        assert all(np.isinf(inf_t[s]) for s in sites)
        noise_t, sites = inj.corrupt_coefficients(small_table, n_sites=3, mode="noise")
        assert all(np.isfinite(noise_t[s]) and abs(noise_t[s]) > 1e20 for s in sites)
        # The original is untouched without in_place.
        assert np.isfinite(small_table).all()
        assert len(inj.log) == 3

    def test_in_place(self, small_table):
        table = small_table.copy()
        out, sites = FaultInjector(0).corrupt_coefficients(table, in_place=True)
        assert out is table
        assert np.isnan(table[sites[0]])

    def test_unknown_mode_rejected(self, small_table):
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(0).corrupt_coefficients(small_table, mode="zero")

    def test_poison_energies_cadence(self):
        inj = FaultInjector(0)
        poisoned = inj.poison_energies(lambda: 1.0, every=3)
        values = [poisoned() for _ in range(9)]
        assert [np.isnan(v) for v in values] == [False, False, True] * 3
        assert len(inj.log) == 3

    def test_failing_wrapper_transient(self):
        inj = FaultInjector(0)
        fn = inj.failing(lambda: "ok", n_failures=2)
        for _ in range(2):
            with pytest.raises(SimulatedFault):
                fn()
        assert fn() == "ok"

    def test_failing_wrapper_hard(self):
        fn = FaultInjector(0).failing(lambda: "ok", n_failures=None)
        for _ in range(5):
            with pytest.raises(SimulatedFault):
                fn()


class TestCorruptedTable:
    """A corrupted shared table must be detected (and repairable)."""

    def test_guarded_engine_detects_corruption(self, small_grid, small_table):
        corrupted, _ = FaultInjector(5).corrupt_coefficients(
            small_table, n_sites=small_table.size // 4
        )
        guarded = GuardedEngine(BsplineSoA(small_grid, corrupted), "raise")
        out = guarded.new_output(Kind.VGH)
        with pytest.raises(GuardViolation, match="VGH"):
            guarded.vgh(0.5, 0.5, 0.5, out)
        assert guarded.violations == 1

    def test_guarded_engine_repairs_from_pristine_table(
        self, small_grid, small_table
    ):
        corrupted, _ = FaultInjector(5).corrupt_coefficients(
            small_table, n_sites=small_table.size // 4
        )
        guarded = GuardedEngine(
            BsplineSoA(small_grid, corrupted),
            "recompute",
            reference_table=small_table,
        )
        pristine = BsplineSoA(small_grid, small_table)
        out = guarded.new_output(Kind.VGH)
        ref = pristine.new_output(Kind.VGH)
        guarded.vgh(0.3, 0.7, 1.1, out)
        pristine.vgh(0.3, 0.7, 1.1, ref)
        assert guarded.repairs == 1
        np.testing.assert_allclose(out.v, ref.v, atol=1e-8)
        np.testing.assert_allclose(out.g, ref.g, atol=1e-7)


class TestPoisonedDmcEnergies:
    """NaN local energies through the estimator_factory seam of run_dmc."""

    @staticmethod
    def _walkers(seed, n):
        pool = WalkerRngPool(seed)
        return pool, [
            DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())
            for _ in range(n)
        ]

    @staticmethod
    def _poisoned_factory(inj, every):
        measure = inj.poison_energies(
            lambda w: LocalEnergy(w.wf, 4.0).total(), every=every
        )

        class Estimator:
            def __init__(self, walker):
                self.walker = walker

            def total(self):
                return measure(self.walker)

        return Estimator

    def test_raise_policy_fails_loudly(self):
        pool, walkers = self._walkers(21, 3)
        with pytest.raises(GuardViolation, match="non-finite local energy"):
            run_dmc(
                walkers, pool, n_generations=4, tau=0.02,
                guard=GuardConfig(on_nonfinite_energy="raise"),
                estimator_factory=self._poisoned_factory(FaultInjector(0), 4),
            )

    def test_drop_policy_rebranches_over_healthy_walkers(self):
        pool, walkers = self._walkers(21, 3)
        res = run_dmc(
            walkers, pool, n_generations=4, tau=0.02,
            guard=GuardConfig(on_nonfinite_energy="drop"),
            estimator_factory=self._poisoned_factory(FaultInjector(0), 4),
        )
        assert res.dropped_walkers > 0
        assert np.isfinite(res.energy_trace).all()
        assert (res.population_trace >= 1).all()

    def test_recompute_policy_remeasures_through_fresh_estimator(self):
        pool, walkers = self._walkers(21, 3)
        res = run_dmc(
            walkers, pool, n_generations=4, tau=0.02,
            guard=GuardConfig(on_nonfinite_energy="recompute"),
            estimator_factory=self._poisoned_factory(FaultInjector(0), 4),
        )
        # The re-measurement pulls a fresh (unpoisoned) value, so nothing
        # is dropped and the trace stays clean.
        assert res.dropped_walkers == 0
        assert np.isfinite(res.energy_trace).all()

    def test_unguarded_run_lets_poison_reach_branching(self):
        # Without a guard the NaN flows straight into the branching
        # weight and the run dies with an unhelpful low-level error —
        # the legacy failure mode the guard policies replace.
        pool, walkers = self._walkers(21, 3)
        with pytest.raises(ValueError, match="NaN"):
            run_dmc(
                walkers, pool, n_generations=4, tau=0.02,
                estimator_factory=self._poisoned_factory(FaultInjector(0), 4),
            )


class TestPoisonedVmcEnergies:
    """NaN local energies in VMC, through a poisoned ``LocalEnergy``.

    Every fourth ``total()`` call returns NaN; the next call (whether the
    next step's measurement or a ``"recompute"`` re-measure through a
    fresh estimator) is healthy again.
    """

    N_STEPS = 8

    @pytest.fixture
    def built(self, monkeypatch):
        import repro.qmc.vmc as vmc_mod

        measure = FaultInjector(0).poison_energies(
            lambda est: est.total(), every=4
        )
        built = []

        class PoisonedLocalEnergy:
            def __init__(self, wf, ion_charge):
                self._inner = LocalEnergy(wf, ion_charge)
                built.append(self)

            def total(self):
                return measure(self._inner)

        monkeypatch.setattr(vmc_mod, "LocalEnergy", PoisonedLocalEnergy)
        return built

    def _run(self, policy):
        rng = np.random.default_rng(31)
        return run_vmc(
            build_wf(rng), rng, n_steps=self.N_STEPS, n_warmup=1, tau=0.2,
            guard=GuardConfig(on_nonfinite_energy=policy),
        )

    def test_raise_policy_fails_loudly(self, built):
        with pytest.raises(GuardViolation, match="non-finite local energy"):
            self._run("raise")

    def test_drop_policy_skips_poisoned_samples(self, built):
        res = self._run("drop")
        # Calls 4 and 8 of 8 measurements were poisoned.
        assert len(res.energies) == self.N_STEPS - 2
        assert np.isfinite(res.energies).all()
        assert len(built) == 1

    def test_recompute_policy_remeasures_through_fresh_estimator(self, built):
        res = self._run("recompute")
        # Each poisoned call (4 and 8 of 10) is re-measured once by a
        # fresh estimator, which returns a finite value.
        assert len(res.energies) == self.N_STEPS
        assert np.isfinite(res.energies).all()
        assert len(built) == 3

    def test_unguarded_run_keeps_the_poisoned_samples(self, built):
        rng = np.random.default_rng(31)
        res = run_vmc(build_wf(rng), rng, n_steps=self.N_STEPS, n_warmup=1, tau=0.2)
        assert len(res.energies) == self.N_STEPS
        assert np.isnan(res.energies).sum() == 2


class TestKilledWorkers:
    def test_worker_death_propagates_from_nested_evaluate(
        self, small_grid, small_table, rng
    ):
        eng = BsplineAoSoA(small_grid, small_table, tile_size=8)
        inj = FaultInjector(0)
        eng.eval_tiles = inj.failing(eng.eval_tiles, n_failures=1)
        positions = small_grid.random_positions(2, rng)
        with NestedEvaluator(eng, 2) as nested:
            out = eng.new_output(Kind.V)
            with pytest.raises(SimulatedFault, match="injected fault"):
                nested.evaluate(Kind.V, positions, out)
            # The transient fault is gone; the evaluator still works.
            nested.evaluate(Kind.V, positions, out)
        assert np.isfinite(out.tiles[0].v).all()
