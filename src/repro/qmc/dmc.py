"""Diffusion Monte Carlo: one generation loop, four executors.

Paper Sec. III describes the three stages per generation this module
implements: "(i) a drift-diffusion process ... (ii) a measurement stage
... (iii) a branching process" over an ensemble of walkers, each carrying
its own configuration ``R`` and private random stream.

:func:`_run_dmc_loop` is the one implementation of that generation.  It
owns everything that changes a trace: the non-finite-energy policy,
branching weights and uniforms, clone streams, population guarding,
trial-energy feedback, traces, metrics and checkpoint cadence.  An
:class:`_Executor` owns only how walkers are handled.  Four run the loop:
:class:`_InProcessExecutor` over live :class:`DmcWalker` objects (behind
:func:`run_dmc`), and over parent-side walker arrays the worker-pool and
orbital-split executors of :func:`repro.parallel.run_dmc_sharded` and
the supervised one of :func:`repro.fleet.run_dmc_supervised`.

Branching uses the standard integer-copies scheme: a walker with weight
``w = exp(-tau * ((E_L + E_L_old)/2 - E_T))`` produces
``floor(w + u)`` copies (``u`` uniform, from the walker's own stream),
and the trial energy ``E_T`` is steered with a population-control
feedback term so the ensemble stays near its target size.  Each clone
receives a *fresh* random stream from the clone pool (never a copy of
the parent's), keeping streams independent.

Fault tolerance (:mod:`repro.resilience`): periodic checkpoints (walker
positions, exact RNG bit-generator states, traces) in one format, of
kind ``"dmc"`` in-process and ``"dmc-sharded"`` over arrays, resume such
that the continued run reproduces the uninterrupted energy/population
traces **bit-for-bit**; a :class:`~repro.resilience.guards.GuardConfig`
turns NaN/Inf local energies into a policy (raise / recompute /
drop-and-rebranch) instead of silent trace poison; and population
collapse or explosion is rescued toward the target by a
:class:`~repro.resilience.guards.PopulationGuard`.

Bit-for-bit note: the in-process executor keeps live derived state, so
its checkpoint snapshot calls ``recompute()`` on every walker (so the
in-memory state equals what a restore rebuilds from positions).
Sequential runs compared for reproducibility must therefore share the
same ``checkpoint_every`` cadence.  The array executors rebuild walkers
before every sweep, so their checkpoints resume bit-identically at any
cadence — and, for the same reason, follow a different trajectory.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.drift_diffusion import sweep
from repro.qmc.estimators import LocalEnergy
from repro.qmc.rng import WalkerRngPool
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    has_checkpoint,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.guards import (
    GuardConfig,
    GuardViolation,
    PopulationGuard,
    screen_energy,
)

__all__ = ["DmcWalker", "DmcResult", "run_dmc", "build_dmc_ensemble"]


@dataclass
class DmcWalker:
    """One DMC walker: wavefunction state + stream + bookkeeping."""

    wf: SlaterJastrow
    rng: np.random.Generator
    e_local: float = 0.0

    def clone(self, rng: np.random.Generator) -> "DmcWalker":
        """A branching copy: same configuration, fresh random stream.

        The clone gets its own mutable state (particles, tables,
        determinant inverses) but *shares* the parent's orbital set —
        the read-only coefficient table every walker in the ensemble
        reads.  Sharing keeps branching O(walker state) instead of
        O(spline table) and keeps the whole ensemble in one crowd for
        the batched population step.
        """
        spos = self.wf.slater.spos
        wf_new = copy.deepcopy(self.wf, {id(spos): spos})
        return DmcWalker(wf=wf_new, rng=rng, e_local=self.e_local)


@dataclass
class DmcResult:
    """Outcome of a DMC run.

    Attributes
    ----------
    energy_trace:
        Population-averaged local energy per generation.
    population_trace:
        Walker count per generation.
    e_trial_trace:
        The steered trial energy per generation.
    acceptance:
        Overall move acceptance.
    rescues, truncations:
        Population-guard interventions (collapse rescues / explosion
        truncations) over the run — nonzero means the run needed help.
    dropped_walkers:
        Walkers discarded by the non-finite-energy ``"drop"`` policy.
    fleet:
        Supervision outcome when the run was driven by
        :func:`repro.fleet.run_dmc_supervised` (restart/rebalance/scale
        counts, MTTR samples, final worker count); ``None`` otherwise.
    """

    energy_trace: np.ndarray
    population_trace: np.ndarray
    e_trial_trace: np.ndarray
    acceptance: float
    rescues: int = field(default=0)
    truncations: int = field(default=0)
    dropped_walkers: int = field(default=0)
    fleet: dict | None = field(default=None)

    @property
    def energy_mean(self) -> float:
        """Mean of the second half of the energy trace (post-equilibration)."""
        half = len(self.energy_trace) // 2
        return float(np.mean(self.energy_trace[half:]))


def _crowd_groups(walkers: list[DmcWalker]) -> list[list[DmcWalker]]:
    """Partition an ensemble into crowds that can step batched together.

    Walkers sharing one orbital-set object, electron count and Jastrow
    structure form one lock-step group; walker order is preserved inside
    each group (streams are private, so cross-group order is free).
    Branching clones share their parent's orbital set, so a standard
    ensemble stays a single crowd for its whole life.
    """
    groups: dict[tuple, list[DmcWalker]] = {}
    for w in walkers:
        wf = w.wf
        key = (
            id(wf.slater.spos),
            len(wf.electrons),
            wf.j1 is not None,
            wf.j2 is not None,
        )
        groups.setdefault(key, []).append(w)
    return list(groups.values())


class _Executor:
    """How one DMC driver handles its walkers; the loop decides the rest.

    Walkers of every executor expose ``rng``, ``e_local`` and
    ``clone(rng)``.  ``kind`` names the checkpoint kind and the metrics'
    ``driver`` label; ``n_walkers`` is the default population target.
    """

    kind: str
    n_walkers: int

    def system(self) -> dict:
        """Identity parameters a checkpoint must match besides the physics."""
        return {}

    def initial(self) -> list:
        """The starting population; the loop refills this list in place."""
        raise NotImplementedError

    def measure(self, walkers: list, ion_charge: float):
        """Local energies in walker order.  May be lazy: the loop applies
        the non-finite policy to each energy before drawing the next."""
        raise NotImplementedError

    def remeasure(self, walker, ion_charge: float) -> float | None:
        """The energy after rebuilding the walker's derived state, or
        ``None`` when there is nothing to rebuild (the walker is dropped)."""
        return None

    def propagate(self, walkers: list, gen: int, tau: float, ion_charge: float):
        """One drift-diffusion sweep per walker, advancing positions and
        streams; returns ``(energies, accepted, attempted)``."""
        raise NotImplementedError

    def snapshot(self, walkers: list) -> tuple[np.ndarray, np.ndarray]:
        """Stacked electron and ion positions for a checkpoint."""
        raise NotImplementedError

    def restore(self, positions, ion_positions, rngs) -> list:
        """Walkers rebuilt from checkpointed positions and streams."""
        raise NotImplementedError

    def generation_end(self, gen: int, walkers: list, seconds: float) -> None:
        """Runs after all trace-affecting work of a generation (hooks,
        heartbeats, autoscaling)."""

    def finish(self) -> None:
        """Runs once after the last generation."""

    def summary(self) -> dict | None:
        """Driver outcome reported as ``DmcResult.fleet``."""
        return None


class _InProcessExecutor(_Executor):
    """Live :class:`DmcWalker` objects in this process.

    Wavefunction state carries over between generations: there is no
    per-generation ``recompute()`` and no copy, only at a checkpoint
    snapshot.  The population *is* the caller's walker list, which the
    loop refills in place every generation.
    """

    kind = "dmc"

    def __init__(
        self, walkers: list[DmcWalker], step_mode: str, estimator_factory, on_generation
    ):
        self._walkers = walkers
        self._step_mode = step_mode
        self._factory = estimator_factory
        self._on_generation = on_generation
        # One estimator per walker per generation, cleared after
        # branching (clones and survivors get fresh ones).
        self._estimators: dict[int, object] = {}
        self.n_walkers = len(walkers)

    def _e_local(self, w: DmcWalker) -> float:
        est = self._estimators.get(id(w))
        if est is None:
            est = self._estimators[id(w)] = self._factory(w)
        return est.total()

    def initial(self) -> list[DmcWalker]:
        return self._walkers

    def measure(self, walkers: list[DmcWalker], ion_charge: float):
        # Lazy: each walker is measured only when the loop asks for its
        # energy, so a "recompute" re-measurement lands before the next
        # walker is measured — the call order the estimator seam sees.
        return map(self._e_local, walkers)

    def remeasure(self, w: DmcWalker, ion_charge: float) -> float:
        # Rebuild derived state (a drifted inverse is the usual culprit)
        # and re-measure once through a fresh estimator.
        w.wf.recompute()
        self._estimators.pop(id(w), None)
        return self._e_local(w)

    def propagate(self, walkers: list[DmcWalker], gen: int, tau: float, ion_charge: float):
        accepted = attempted = 0
        if self._step_mode == "batched":
            # Each shared-orbital-set group advances in lock step; since
            # every walker consumes only its private stream, the result
            # is bit-identical to sweeping walkers one at a time.
            for group in _crowd_groups(walkers):
                state = CrowdState([w.wf for w in group], [w.rng for w in group])
                acc, att = batched_sweep(state, tau)
                accepted += acc
                attempted += att
        else:
            for w in walkers:
                acc, att = sweep(w.wf, tau, w.rng)
                accepted += acc
                attempted += att
        return self.measure(walkers, ion_charge), accepted, attempted

    def snapshot(self, walkers: list[DmcWalker]) -> tuple[np.ndarray, np.ndarray]:
        # Recompute first so the continuing run and a future restore
        # share identical derived state (the bit-for-bit contract).
        for w in walkers:
            w.wf.recompute()
        return (
            np.stack([w.wf.electrons.positions for w in walkers]),
            # Branching clones inherit their parent's ion configuration,
            # so ion positions are part of the snapshot.
            np.stack([w.wf.ions.positions for w in walkers]),
        )

    def restore(self, positions, ion_positions, rngs) -> list[DmcWalker]:
        """Load a checkpoint into the caller's walkers, which serve as
        templates for wavefunction structure (table, cell, Jastrows)."""
        templates = self._walkers
        restored = []
        for i, rng in enumerate(rngs):
            if i < len(templates):
                wf = templates[i].wf
            else:
                # Extra walkers share the template's orbital set
                # (read-only), like branching clones do.
                spos0 = templates[0].wf.slater.spos
                wf = copy.deepcopy(templates[0].wf, {id(spos0): spos0})
            try:
                wf.electrons.load_positions(positions[i], wrap=False)
                wf.ions.load_positions(ion_positions[i], wrap=False)
            except ValueError as exc:
                raise CheckpointError(
                    f"template walker {i} does not match checkpoint shape: {exc}"
                ) from exc
            wf.recompute()
            restored.append(DmcWalker(wf=wf, rng=rng))
        templates[:] = restored
        return templates

    def generation_end(self, gen: int, walkers: list[DmcWalker], seconds: float) -> None:
        self._estimators.clear()
        if self._on_generation is not None:
            self._on_generation(gen, walkers)


def _write_dmc_checkpoint(
    path, kind, params, executor, walkers, clone_pool, generation,
    e_trial, accepted, attempted, traces,
) -> None:
    """Snapshot the full ensemble state after ``generation`` generations."""
    positions, ion_positions = executor.snapshot(walkers)
    energy_trace, pop_trace, et_trace = traces
    manifest = {
        "kind": kind,
        "generation": generation,
        "accepted": accepted,
        "attempted": attempted,
        "n_walkers": len(walkers),
        "pool_state": clone_pool.state,
        "walker_rng_states": [rng_state(w.rng) for w in walkers],
        "params": params,
    }
    arrays = {
        "positions": positions,
        "ion_positions": ion_positions,
        "e_local": np.asarray([w.e_local for w in walkers], dtype=np.float64),
        "e_trial": np.asarray(e_trial, dtype=np.float64),
        "energy_trace": np.asarray(energy_trace, dtype=np.float64),
        "population_trace": np.asarray(pop_trace, dtype=np.int64),
        "e_trial_trace": np.asarray(et_trace, dtype=np.float64),
    }
    save_checkpoint(path, manifest, arrays)


def _read_dmc_checkpoint(path, kind, params):
    """Load a checkpoint of ``kind`` whose parameters must equal ``params``."""
    ckpt = load_checkpoint(path, expect_kind=kind)
    saved = ckpt.manifest["params"]
    for key in params:
        if saved.get(key) != params[key]:
            raise CheckpointError(
                f"checkpoint parameter mismatch for {key!r}: "
                f"saved {saved.get(key)!r}, requested {params[key]!r}"
            )
    return ckpt


def _run_dmc_loop(
    executor: _Executor,
    clone_pool: WalkerRngPool,
    *,
    n_generations: int,
    tau: float,
    target_population: int | None,
    feedback: float,
    max_population_factor: int,
    ion_charge: float,
    checkpoint_every: int | None,
    checkpoint_path,
    resume,
    guard: GuardConfig | None,
) -> DmcResult:
    """The DMC generation loop, run through an :class:`_Executor`.

    Everything trace-affecting lives *here*, so executors of one family
    produce identical traces by construction.  The population list the
    executor hands out is refilled in place every generation.

    ``resume="auto"`` resumes from ``checkpoint_path`` when a complete
    checkpoint exists there and starts fresh otherwise — the idiom for
    restart-in-a-loop deployments.
    """
    if n_generations <= 0:
        raise ValueError(f"n_generations must be positive, got {n_generations}")
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    if isinstance(resume, str) and resume == "auto":
        if checkpoint_path is None:
            raise ValueError("resume='auto' requires checkpoint_path")
        resume = checkpoint_path if has_checkpoint(checkpoint_path) else None
    kind = executor.kind
    target = target_population or executor.n_walkers
    params = {
        "tau": tau,
        "target_population": target,
        "feedback": feedback,
        "max_population_factor": max_population_factor,
        "ion_charge": ion_charge,
        **executor.system(),
    }
    energy_policy = guard.on_nonfinite_energy if guard is not None else "ignore"
    pop_guard = PopulationGuard(target, max_population_factor)
    dropped = 0

    def keep(w, e_local: float) -> bool:
        """Record ``w``'s energy under the non-finite policy; True keeps it."""
        nonlocal dropped
        w.e_local = e_local  # a dropped walker keeps its bad energy
        e_local = screen_energy(
            e_local, energy_policy, kind, lambda: executor.remeasure(w, ion_charge)
        )
        if e_local is None:
            dropped += 1
            return False
        w.e_local = e_local
        return True

    if resume is not None:
        ckpt = _read_dmc_checkpoint(resume, kind, params)
        walkers = executor.restore(
            ckpt.arrays["positions"],
            ckpt.arrays["ion_positions"],
            [restore_rng(s) for s in ckpt.manifest["walker_rng_states"]],
        )
        for w, e in zip(walkers, ckpt.arrays["e_local"]):
            w.e_local = float(e)
        clone_pool = WalkerRngPool.from_state(ckpt.manifest["pool_state"])
        start_gen = int(ckpt.manifest["generation"])
        e_trial = float(ckpt.arrays["e_trial"])
        accepted = int(ckpt.manifest["accepted"])
        attempted = int(ckpt.manifest["attempted"])
        energy_trace = list(ckpt.arrays["energy_trace"])
        pop_trace = [int(p) for p in ckpt.arrays["population_trace"]]
        et_trace = list(ckpt.arrays["e_trial_trace"])
    else:
        walkers = executor.initial()
        energies = executor.measure(walkers, ion_charge)
        walkers[:] = [w for w, e in zip(walkers, energies) if keep(w, e)]
        if not walkers:
            raise GuardViolation("no walker with finite local energy at start")
        e_trial = float(np.mean([w.e_local for w in walkers]))
        start_gen = 0
        accepted = attempted = 0
        energy_trace, pop_trace, et_trace = [], [], []

    for gen in range(start_gen, n_generations):
        t_gen = time.perf_counter()
        # (i) drift-diffusion propagation, then (ii) measurement in
        # walker order.
        energies, acc, att = executor.propagate(walkers, gen, tau, ion_charge)
        accepted += acc
        attempted += att
        weights: list[float | None] = []
        for w, e in zip(walkers, energies):
            e_old = w.e_local
            if not keep(w, e):
                weights.append(None)  # dropped: no branching copies at all
                continue
            # Branching weight from the symmetrized local energy.
            weights.append(
                float(np.exp(-tau * (0.5 * (w.e_local + e_old) - e_trial)))
            )
        # (iii) branching: integer copies floor(w + u), the uniform drawn
        # from the walker's own stream.
        new_walkers = []
        cap = pop_guard.cap
        for w, wt in zip(walkers, weights):
            if wt is None:
                continue
            n_copies = int(wt + w.rng.random())
            for c in range(n_copies):
                if len(new_walkers) >= cap:
                    break
                if c == 0:
                    new_walkers.append(w)
                else:
                    new_walkers.append(w.clone(clone_pool.next_rng()))
                    OBS.count("dmc_branch_clones_total")
        walkers[:] = pop_guard.enforce(new_walkers, walkers, clone_pool)
        e_est = float(np.mean([w.e_local for w in walkers]))
        # Population-control feedback on the trial energy.
        e_trial = e_est - feedback * np.log(len(walkers) / target)
        energy_trace.append(e_est)
        pop_trace.append(len(walkers))
        et_trace.append(e_trial)
        dt = time.perf_counter() - t_gen
        if OBS.enabled:
            OBS.count("dmc_generations_total")
            OBS.observe("dmc_generation_seconds", dt)
            OBS.gauge("dmc_population", len(walkers))
            OBS.gauge("dmc_e_trial", e_trial)
            OBS.complete(
                "dmc:generation",
                t_gen,
                dt,
                cat="qmc",
                generation=gen,
                population=len(walkers),
            )
        if checkpoint_every is not None and (gen + 1) % checkpoint_every == 0:
            _write_dmc_checkpoint(
                checkpoint_path, kind, params, executor, walkers, clone_pool,
                gen + 1, e_trial, accepted, attempted,
                (energy_trace, pop_trace, et_trace),
            )
        # Runs after all trace-affecting work for the generation.
        executor.generation_end(gen, walkers, dt)
    executor.finish()
    return DmcResult(
        energy_trace=np.asarray(energy_trace),
        population_trace=np.asarray(pop_trace),
        e_trial_trace=np.asarray(et_trace),
        acceptance=accepted / max(attempted, 1),
        rescues=pop_guard.rescues,
        truncations=pop_guard.truncations,
        dropped_walkers=dropped,
        fleet=executor.summary(),
    )


def run_dmc(
    walkers: list[DmcWalker],
    pool: WalkerRngPool,
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
    estimator_factory=None,
    on_generation=None,
    step_mode: str | None = None,
    config=None,
) -> DmcResult:
    """Propagate a DMC ensemble; returns traces for analysis.

    Runs the shared generation loop through the in-process executor.

    Parameters
    ----------
    walkers:
        The initial (ideally VMC-equilibrated) ensemble; mutated in place
        and re-populated by branching.  When resuming, these serve as
        structural templates whose positions/streams are overwritten from
        the checkpoint.
    pool:
        Stream factory for branching clones (replaced by the restored
        pool when resuming).
    n_generations:
        Total DMC generations for the run (including any completed before
        a resume point); must be positive.
    tau:
        Imaginary time step.
    target_population:
        Population-control target; defaults to the initial count.
    feedback:
        E_T feedback strength kappa in
        ``E_T = E_est - kappa/tau * log(pop / target)`` (classic form,
        scaled mildly here to avoid over-steering small test populations).
    max_population_factor:
        Hard cap on population explosion (run aborts into a truncation
        instead of eating all memory if the trial energy misbehaves).
    ion_charge:
        Valence charge for the local-energy estimator.
    checkpoint_every:
        Write a checkpoint to ``checkpoint_path`` every this many
        generations (and recompute walker state at each save — see the
        module docstring's bit-for-bit note).
    checkpoint_path:
        Checkpoint directory (required with ``checkpoint_every``);
        overwritten atomically at each save.
    resume:
        Path of a checkpoint to continue from; physics parameters must
        match the checkpointed run.  ``"auto"`` resumes from
        ``checkpoint_path`` when a checkpoint exists there and starts
        fresh otherwise.
    guard:
        Non-finite-energy policy
        (:class:`~repro.resilience.guards.GuardConfig`); ``None`` keeps
        the legacy pass-through behavior.
    estimator_factory:
        ``factory(walker) -> estimator`` with a ``total()`` method;
        defaults to :class:`~repro.qmc.estimators.LocalEnergy`.  The
        fault-injection tests use this seam to poison measurements.
    on_generation:
        ``hook(gen, walkers)`` called after each completed generation
        (after any checkpoint write); exceptions propagate, which is how
        the resilience tests simulate a mid-run kill.
    step_mode:
        ``"batched"`` (default) propagates each generation through the
        batched population step: walkers are grouped by shared orbital
        set and advanced in lock step with one kernel call per electron
        move (:mod:`repro.qmc.batched_step`).  ``"walker"`` keeps the
        sequential per-walker sweep.  Both produce bit-identical
        trajectories (each walker's private stream is consumed in the
        same order), so the mode is not part of the checkpoint contract.
        ``None`` resolves through ``config.step_mode``, then the
        ``REPRO_STEP_MODE`` environment variable, then ``"batched"``.
    config:
        Optional :class:`repro.config.RunConfig`; currently supplies
        the ``step_mode`` default (the ensemble's kernel knobs are
        fixed at :func:`build_dmc_ensemble` time).
    """
    from repro.config import effective_step_mode

    step_mode = effective_step_mode(step_mode, config)
    if not walkers:
        raise ValueError("need at least one walker")
    executor = _InProcessExecutor(
        walkers,
        step_mode,
        estimator_factory or (lambda w: LocalEnergy(w.wf, ion_charge)),
        on_generation,
    )
    return _run_dmc_loop(
        executor,
        pool,
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


def build_dmc_ensemble(
    pool: WalkerRngPool,
    n_walkers: int,
    n_orbitals: int = 4,
    box: float = 6.0,
    grid_shape: tuple[int, int, int] = (12, 12, 12),
    engine: str = "fused",
    tile_size: int | None = None,
    chunk_size: int | None = None,
    backend: str | None = None,
    config=None,
) -> list[DmcWalker]:
    """A small, fully deterministic DMC ensemble (CLI and test harnesses).

    Each walker gets a plane-wave-seeded Slater-Jastrow wavefunction on a
    cubic cell and a private stream from ``pool``.  Two calls with pools
    in the same state build bit-identical ensembles — the property the
    checkpoint/resume CLI relies on to reconstruct walker *structure*
    before loading checkpointed positions into it.  ``config`` (a
    :class:`repro.config.RunConfig`) carries the batched-kernel knobs:
    blocking never changes a trajectory bit, while an allclose-tier
    backend shifts it within its declared tolerance.  The
    ``tile_size``/``chunk_size``/``backend`` kwargs are the deprecated
    pre-config spellings, honoured (with a warning) for one release.
    """
    from repro.lattice.cell import Cell
    from repro.lattice.orbitals import PlaneWaveOrbitalSet
    from repro.lattice.pbc import wigner_seitz_radius
    from repro.qmc.jastrow import make_polynomial_radial
    from repro.qmc.particleset import ParticleSet
    from repro.qmc.slater import SplineOrbitalSet

    cell = Cell.cubic(box)
    orbitals = PlaneWaveOrbitalSet(cell, n_orbitals)
    spos = SplineOrbitalSet.from_orbital_functions(
        cell,
        orbitals,
        grid_shape,
        engine=engine,
        dtype=np.float64,
        tile_size=tile_size,
        chunk_size=chunk_size,
        backend=backend,
        config=config,
    )
    rcut = 0.9 * wigner_seitz_radius(cell)
    walkers = []
    for _ in range(n_walkers):
        wrng = pool.next_rng()
        ions = ParticleSet("ion", cell, cell.frac_to_cart(wrng.random((2, 3))))
        electrons = ParticleSet.random("e", cell, 2 * n_orbitals, wrng)
        wf = SlaterJastrow(
            electrons,
            ions,
            spos,
            make_polynomial_radial(0.4, rcut),
            make_polynomial_radial(0.6, rcut),
        )
        walkers.append(DmcWalker(wf=wf, rng=pool.next_rng()))
    return walkers
