"""Sharded DMC: the executors that run the DMC loop over walker arrays.

The one DMC generation loop (:func:`repro.qmc.dmc._run_dmc_loop`) splits
naturally at the paper's three stages: drift-diffusion and measurement
touch only per-walker state, while branching and population control are
global decisions the loop makes in the parent.  The executors here keep
the *authoritative* population in the parent as plain arrays —
positions, exact RNG stream, last local energy — and hand each
generation's walkers to code that holds the heavy wavefunction
machinery (shared coefficient table, Slater-Jastrow templates) and never
pickles it back:

* :class:`_PoolExecutor` ships contiguous shards to persistent worker
  processes;
* :class:`_OrbitalExecutor` (Opt C) propagates the whole population in
  the parent and fans each batched kernel call along the spline axis;
* the supervised, elastic, rebalancing executor in :mod:`repro.fleet.dmc`
  shards by sticky home under a supervisor.

All three share :class:`_ArrayExecutor`, and its shards rebuild derived
state with ``recompute()`` before every sweep, so a walker's trajectory
is a pure function of its (positions, ions, rng-state) triple.  Two
consequences the tests pin down:

* **worker-count invariance** — the run is bit-identical for any
  ``n_workers`` and either split (sharding is contiguous, gathering
  ordered, branching draws come from per-walker streams and a
  parent-side clone pool);
* **cadence-free resume** — unlike the in-process executor behind
  :func:`repro.qmc.dmc.run_dmc` (whose checkpoints recompute mid-run
  state), checkpoint/resume here is bit-identical to the uninterrupted
  run at *any* ``checkpoint_every``, and a resumed run may even use a
  different worker count.

A third consequence powers :mod:`repro.fleet`: because the parent's
walker arrays *are* the in-memory checkpoint, a worker that crashes or
hangs mid-generation loses nothing — restart it, re-ship its tasks,
and the generation replays bit-identically.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.coeffs import pad_table_3d
from repro.lattice.cell import Cell
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, build_walker_range, solve_spec_table
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.sharding import shard_slices, walker_rng
from repro.parallel.shared_table import SharedTable
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.dmc import DmcResult, _Executor, _run_dmc_loop
from repro.qmc.drift_diffusion import sweep
from repro.qmc.estimators import LocalEnergy
from repro.qmc.particleset import ParticleSet
from repro.qmc.rng import WalkerRngPool
from repro.resilience.checkpoint import restore_rng, rng_state
from repro.resilience.guards import GuardConfig

__all__ = ["run_dmc_sharded"]


@dataclass
class _WalkerState:
    """The parent's authoritative view of one walker: arrays, no objects.

    ``home`` is the walker's current shard assignment — pure scheduling
    state used by the fleet executor's rebalancer.  It is deliberately
    excluded from :meth:`task` and from checkpoints: the physics is a
    function of the task triple only, which is what keeps traces
    identical across worker counts, rebalances and restarts.
    """

    positions: np.ndarray
    ion_positions: np.ndarray
    rng: np.random.Generator
    e_local: float = 0.0
    home: int = -1

    def clone(self, rng: np.random.Generator) -> "_WalkerState":
        """Branching copy: same configuration, fresh stream (pool-drawn)."""
        return _WalkerState(
            positions=self.positions.copy(),
            ion_positions=self.ion_positions.copy(),
            rng=rng,
            e_local=self.e_local,
            home=self.home,
        )

    def task(self) -> dict:
        return {
            "positions": self.positions,
            "ion_positions": self.ion_positions,
            "rng_state": rng_state(self.rng),
        }


class _DmcShard:
    """Worker-process state: attached table + reusable wavefunction templates.

    Templates are grown on demand (branching can push a shard past its
    initial size); each task loads its positions into template ``i``,
    recomputes, and propagates — the template never carries state between
    generations.
    """

    def __init__(self, worker_id: int, spec: CrowdSpec, table_spec: dict):
        self._spec = spec
        self._table = SharedTable.attach(table_spec)
        self._array = self._table.array
        # Template 0 doubles as the structural prototype; templates use a
        # fixed arbitrary configuration stream (walker 0's) — every task
        # overwrites positions before any physics runs.
        self._wfs, _ = build_walker_range(spec, self._array, 0, 1)
        # Every template shares template 0's orbital set so the shard's
        # tasks form ONE crowd for the batched step (walkers only batch
        # together when they share the orbital-set object).
        self._spos = self._wfs[0].slater.spos

    def _template(self, i: int):
        while len(self._wfs) <= i:
            wfs, _ = build_walker_range(
                self._spec, self._array, 0, 1, spos=self._spos
            )
            self._wfs.append(wfs[0])
        return self._wfs[i]

    def _load(self, i: int, task: dict):
        wf = self._template(i)
        wf.electrons.load_positions(task["positions"], wrap=False)
        wf.ions.load_positions(task["ion_positions"], wrap=False)
        wf.recompute()
        return wf

    def measure(self, tasks: list[dict], ion_charge: float) -> list[float]:
        """Local energy of each task's configuration (no RNG consumed)."""
        return [
            float(LocalEnergy(self._load(i, t), ion_charge).total())
            for i, t in enumerate(tasks)
        ]

    def propagate(
        self,
        tasks: list[dict],
        tau: float,
        ion_charge: float,
        step_mode: str = "batched",
    ) -> list[dict]:
        """One drift-diffusion sweep + measurement per task.

        ``step_mode="batched"`` loads every task into its template and
        advances the whole shard through the batched population kernels
        (one crowd — all templates share one orbital set), then measures
        in task order; measurement consumes no RNG, so this is bitwise
        identical to the per-task ``"walker"`` loop.
        """
        t0 = time.perf_counter()
        out = []
        if step_mode == "batched" and tasks:
            wfs = [self._load(i, t) for i, t in enumerate(tasks)]
            rngs = [restore_rng(t["rng_state"]) for t in tasks]
            state = CrowdState(wfs, rngs)
            batched_sweep(state, tau)
            for i, wf in enumerate(wfs):
                out.append(
                    {
                        "positions": wf.electrons.positions.copy(),
                        "rng_state": rng_state(rngs[i]),
                        "e_local": float(LocalEnergy(wf, ion_charge).total()),
                        "accepted": int(state.accepts[i]),
                        "attempted": state.n_electrons,
                    }
                )
        else:
            for i, task in enumerate(tasks):
                wf = self._load(i, task)
                rng = restore_rng(task["rng_state"])
                acc, att = sweep(wf, tau, rng)
                e = float(LocalEnergy(wf, ion_charge).total())
                out.append(
                    {
                        "positions": wf.electrons.positions.copy(),
                        "rng_state": rng_state(rng),
                        "e_local": e,
                        "accepted": acc,
                        "attempted": att,
                    }
                )
        if OBS.enabled and tasks:
            OBS.count("dmc_shard_walkers_propagated_total", len(tasks))
            OBS.observe("dmc_shard_propagate_seconds", time.perf_counter() - t0)
        return out

    def close(self) -> None:
        self._wfs = self._array = None
        try:
            self._table.close()
        except BufferError:
            pass


def _init_dmc_shard(worker_id: int, spec: CrowdSpec, table_spec: dict):
    return _DmcShard(worker_id, spec, table_spec)


class _LocalDmcShard(_DmcShard):
    """A :class:`_DmcShard` living in the parent over a plain table.

    The orbital-split executor holds the whole population here; the
    heavy kernels underneath are fanned across processes by the
    injected :class:`~repro.parallel.orbital.OrbitalEvaluator`, so this
    shard never needs a shared-memory attachment of its own.
    """

    def __init__(self, spec: CrowdSpec, table: np.ndarray):
        self._spec = spec
        self._array = table
        self._wfs, _ = build_walker_range(spec, table, 0, 1)
        self._spos = self._wfs[0].slater.spos

    def close(self) -> None:
        self._wfs = None


def _initial_population(spec: CrowdSpec) -> list[_WalkerState]:
    """Deterministic starting population from per-walker streams.

    Uses the same streams as :func:`repro.parallel.crowd.build_walker_range`
    (stream 0 configuration, stream 1 moves) but builds only the arrays —
    the parent never instantiates wavefunctions.
    """
    cell = Cell.cubic(spec.box)
    states = []
    for w in range(spec.n_walkers):
        conf_rng = walker_rng(spec.seed, w, stream=0)
        ion_positions = cell.frac_to_cart(conf_rng.random((2, 3)))
        electrons = ParticleSet.random("e", cell, 2 * spec.n_orbitals, conf_rng)
        states.append(
            _WalkerState(
                positions=electrons.positions.copy(),
                ion_positions=ion_positions,
                rng=walker_rng(spec.seed, w, stream=1),
            )
        )
    return states


class _ArrayExecutor(_Executor):
    """What the sharded executors share: a parent-side population of
    :class:`_WalkerState` arrays built from the spec, and shards that
    rebuild every walker from its task before using it — so the
    ``"recompute"`` policy has nothing further to rebuild and drops.

    Subclasses supply ``_call(states, method, *args)``, which runs a
    :class:`_DmcShard` method over the states' tasks and returns the
    results in walker order.
    """

    kind = "dmc-sharded"

    def __init__(self, spec: CrowdSpec, step_mode: str):
        self._spec = spec
        self._step_mode = step_mode
        self.n_walkers = spec.n_walkers

    def system(self) -> dict:
        # The physical system is part of the checkpoint contract; the
        # worker count deliberately is not (resume with any n_workers).
        spec = self._spec
        return {
            "spec": {
                "n_walkers": spec.n_walkers,
                "n_orbitals": spec.n_orbitals,
                "box": spec.box,
                "grid_shape": list(spec.grid_shape),
                "engine": spec.engine,
                "seed": spec.seed,
            }
        }

    def _call(self, states: list[_WalkerState], method: str, *args) -> list:
        raise NotImplementedError

    def initial(self) -> list[_WalkerState]:
        return _initial_population(self._spec)

    def measure(self, states: list[_WalkerState], ion_charge: float) -> list[float]:
        return self._call(states, "measure", ion_charge)

    def propagate(
        self, states: list[_WalkerState], gen: int, tau: float, ion_charge: float
    ) -> tuple[list[float], int, int]:
        results = self._call(states, "propagate", tau, ion_charge, self._step_mode)
        accepted = attempted = 0
        for s, r in zip(states, results):
            s.positions = r["positions"]
            s.rng = restore_rng(r["rng_state"])
            accepted += r["accepted"]
            attempted += r["attempted"]
        return [r["e_local"] for r in results], accepted, attempted

    def snapshot(self, states: list[_WalkerState]) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.stack([s.positions for s in states]),
            np.stack([s.ion_positions for s in states]),
        )

    def restore(self, positions, ion_positions, rngs) -> list[_WalkerState]:
        return [
            _WalkerState(
                positions=positions[i].copy(),
                ion_positions=ion_positions[i].copy(),
                rng=rng,
            )
            for i, rng in enumerate(rngs)
        ]


class _PoolExecutor(_ArrayExecutor):
    """The plain executor: contiguous shards over an unsupervised pool."""

    def __init__(self, spec: CrowdSpec, step_mode: str, pool: ProcessCrowdPool):
        super().__init__(spec, step_mode)
        self._pool = pool

    def _call(self, states: list[_WalkerState], method: str, *args) -> list:
        slices = shard_slices(len(states), self._pool.n_workers)
        per_worker = [
            ([s.task() for s in states[sl.start : sl.stop]], *args) for sl in slices
        ]
        merged = []
        for shard in self._pool.call(method, per_worker):
            merged.extend(shard)
        return merged

    def finish(self) -> None:
        self._pool.merge_metrics()


class _OrbitalExecutor(_ArrayExecutor):
    """Opt C executor: population in the parent, kernels fanned.

    Trace-affecting work is identical to the pool executors — the same
    ``measure``/``propagate`` physics over the same task triples, just
    computed through orbital-block fan-out (bit-gated, so bit-identical
    to any walker sharding).  ``summary()`` surfaces the split and, when
    supervised, the fleet recovery counters.
    """

    def __init__(
        self,
        spec: CrowdSpec,
        step_mode: str,
        shard: _LocalDmcShard,
        fanned,
        n_workers: int,
    ):
        super().__init__(spec, step_mode)
        self._shard = shard
        self._fanned = fanned
        self._n_workers = n_workers

    def _call(self, states: list[_WalkerState], method: str, *args) -> list:
        return getattr(self._shard, method)([s.task() for s in states], *args)

    def finish(self) -> None:
        self._shard.close()

    def summary(self) -> dict | None:
        out = {
            "split": "orbitals",
            "orbital_shards": self._fanned.n_blocks,
            "n_workers": self._n_workers,
        }
        fleet = self._fanned.fleet
        if fleet is not None:
            out.update(fleet)
        return out


@contextmanager
def _open_executor(
    spec: CrowdSpec,
    n_workers: int,
    step_mode: str,
    *,
    split: str,
    orbital_shards: int | None,
    fleet,
    injector,
    start_method: str | None,
):
    """Start what the chosen split needs, yield its executor, tear down.

    The one place the sharded drivers resolve the split, share the
    coefficient table and start (supervised) workers.
    """
    if split != "walkers" or orbital_shards is not None:
        from repro.parallel.orbital import OrbitalEvaluator, resolve_split

        mode, shards = resolve_split(
            spec.n_walkers,
            n_workers,
            spec.n_orbitals,
            split=split,
            orbital_shards=orbital_shards,
            config=spec.run_config(),
        )
        if mode == "orbitals":
            if injector is not None:
                raise ValueError(
                    "fault injectors target walker shards; orbital replicas "
                    "take faults via OrbitalEvaluator.arm_fault instead"
                )
            table = solve_spec_table(spec)
            spec = spec.resolved(table.dtype)
            shard = _LocalDmcShard(spec, table)
            fanned = OrbitalEvaluator(
                shard._spos.grid,
                shard._spos.engine.P,
                config=spec.config,
                processes=n_workers,
                orbital_shards=shards,
                supervise=fleet is not None,
                fleet_config=fleet,
                start_method=start_method,
            )
            shard._spos._batched = fanned
            try:
                yield _OrbitalExecutor(spec, step_mode, shard, fanned, n_workers)
            finally:
                fanned.close()
            return
    if injector is not None and fleet is None:
        raise ValueError(
            "injector requires fleet supervision (pass fleet=FleetConfig(...))"
        )
    # Pad in the parent so every worker attaches the ghost halo
    # zero-copy (build_walker_range detects the padded shape).
    with SharedTable.create(pad_table_3d(solve_spec_table(spec))) as shared:
        init_args = (spec, dict(shared.spec, n_workers=n_workers))
        if fleet is None:
            with ProcessCrowdPool(
                n_workers, _init_dmc_shard, init_args, start_method=start_method
            ) as pool:
                yield _PoolExecutor(spec, step_mode, pool)
        else:
            from repro.fleet.dmc import _FleetExecutor
            from repro.fleet.supervisor import FleetSupervisor

            with FleetSupervisor(
                n_workers,
                _init_dmc_shard,
                init_args,
                config=fleet,
                stateful=False,
                start_method=start_method,
            ) as supervisor:
                yield _FleetExecutor(spec, step_mode, supervisor, injector)


def run_dmc_sharded(
    spec: CrowdSpec,
    n_workers: int = 1,
    n_generations: int = 20,
    tau: float = 0.05,
    target_population: int | None = None,
    feedback: float = 1.0,
    max_population_factor: int = 4,
    ion_charge: float = 4.0,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    guard: GuardConfig | None = None,
    start_method: str | None = None,
    step_mode: str | None = None,
    fleet=None,
    injector=None,
    split: str = "walkers",
    orbital_shards: int | None = None,
) -> DmcResult:
    """Run DMC with propagation sharded over ``n_workers`` processes.

    ``split`` selects the sharded axis (see
    :func:`~repro.parallel.crowd.run_crowd_parallel`): under
    ``"orbitals"`` the authoritative population *and* the propagation
    loop stay in the parent, and each generation's batched kernel calls
    are fanned across the pool along the spline axis — bit-identical to
    the walker split (``DmcResult.fleet`` then reports the split and,
    when supervised, the recovery counters; orbital shards are
    stateless replicas, so there is no walker rebalancing to report).

    Parameters mirror :func:`repro.qmc.dmc.run_dmc` where they overlap;
    the ensemble itself is described by ``spec`` (the parent builds the
    initial population deterministically from per-walker streams).
    ``step_mode`` selects batched shard propagation (default) or the
    per-walker sweep; both are bit-identical, so — like the worker
    count — the mode is deliberately not part of the checkpoint
    contract.  ``resume="auto"`` resumes from ``checkpoint_path`` if a
    checkpoint exists there, else starts fresh.

    Passing a :class:`repro.fleet.FleetConfig` as ``fleet`` runs the
    same loop under a supervisor (:func:`repro.fleet.run_dmc_supervised`)
    with crash/hang recovery, optional elastic scaling and shard
    rebalancing — still bit-identical.  ``injector`` (a
    :class:`~repro.resilience.faults.FaultInjector` carrying process
    faults) requires ``fleet``.

    Guard policy note: workers recompute derived state before every
    sweep, so the ``"recompute"`` non-finite-energy policy has nothing
    further to rebuild — it behaves like ``"drop"`` here.  ``"raise"``
    and ``"ignore"`` behave as in ``run_dmc``.

    Returns the same :class:`~repro.qmc.dmc.DmcResult` shape as the
    sequential driver.  ``step_mode=None`` resolves through the spec's
    :class:`~repro.config.RunConfig`, then ``REPRO_STEP_MODE``.
    """
    from repro.config import effective_step_mode

    step_mode = effective_step_mode(step_mode, spec.config)
    with _open_executor(
        spec,
        n_workers,
        step_mode,
        split=split,
        orbital_shards=orbital_shards,
        fleet=fleet,
        injector=injector,
        start_method=start_method,
    ) as executor:
        return _run_dmc_loop(
            executor,
            WalkerRngPool(spec.seed),
            n_generations=n_generations,
            tau=tau,
            target_population=target_population,
            feedback=feedback,
            max_population_factor=max_population_factor,
            ion_charge=ion_charge,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume=resume,
            guard=guard,
        )
