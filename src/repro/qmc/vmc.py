"""Variational Monte Carlo: one step loop for every VMC driver.

VMC samples ``|Psi_T|^2`` with the drift-diffusion kernel and averages
the local energy.  In this reproduction it serves two roles: a
correctness harness (detailed balance + estimator sanity on toy systems)
and the equilibration stage that hands thermalized walkers to DMC.

:func:`_run_vmc_loop` is the one implementation of a VMC run, the
walker loop of the paper's Fig. 3 over a list of walkers.  It owns the
sweep (one :class:`~repro.qmc.batched_step.CrowdState` over the list in
``"batched"`` mode, :func:`~repro.qmc.drift_diffusion.sweep` per walker
in lock step in ``"walker"`` mode — bit-identical, since walkers draw
only from their private streams), the recompute cadence, measurement,
the non-finite-energy policy, the ``vmc_*`` metrics and the ``"vmc"``
checkpoint.  :func:`run_vmc` runs it over one walker;
:func:`repro.parallel.run_vmc_population` runs it over each worker's
shard (or the whole population, in-process or orbital-split) and the
``vmc`` op of the serving layer over a spec's population.

``run_vmc`` supports periodic checkpoints and bit-for-bit resume
(positions + exact RNG state + partial energy trace), and a
:class:`~repro.resilience.guards.GuardConfig` policy for non-finite
local energies.  Taking a checkpoint calls ``wf.recompute()``, so
reproducibility comparisons must share the same ``checkpoint_every``
cadence (see :mod:`repro.qmc.dmc`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.drift_diffusion import sweep
from repro.qmc.estimators import LocalEnergy
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    set_rng_state,
    rng_state,
)
from repro.resilience.guards import GuardConfig, screen_energy

__all__ = ["VmcResult", "run_vmc"]

#: Sweeps between full recomputations (rounding-drift control); part of
#: the trajectory, so every driver that does not choose shares it.
_DEFAULT_RECOMPUTE_EVERY = 20


@dataclass
class VmcResult:
    """Outcome of a VMC run.

    Attributes
    ----------
    energies:
        Per-step local energies after warm-up.
    acceptance:
        Overall move acceptance ratio.
    energy_mean, energy_error:
        Mean local energy and its naive standard error (no blocking; the
        tests use generous tolerances instead).
    """

    energies: np.ndarray
    acceptance: float
    energy_mean: float = field(init=False)
    energy_error: float = field(init=False)

    def __post_init__(self) -> None:
        self.energy_mean = float(np.mean(self.energies)) if len(self.energies) else 0.0
        self.energy_error = (
            float(np.std(self.energies) / np.sqrt(len(self.energies)))
            if len(self.energies) > 1
            else 0.0
        )


def run_vmc(
    wf: SlaterJastrow,
    rng: np.random.Generator,
    n_steps: int = 50,
    n_warmup: int = 10,
    tau: float = 0.3,
    ion_charge: float = 4.0,
    recompute_every: int = _DEFAULT_RECOMPUTE_EVERY,
    measure: bool = True,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    guard: GuardConfig | None = None,
    step_mode: str | None = None,
    config=None,
) -> VmcResult:
    """Run VMC on one walker and return its energy trace.

    Parameters
    ----------
    wf:
        The walker's wavefunction; mutated in place (the walker moves).
        When resuming, its positions are overwritten from the checkpoint.
    rng:
        The walker's private stream; restored in place on resume.
    n_steps:
        Measured generations (one sweep over all electrons each).
    n_warmup:
        Discarded equilibration sweeps.
    tau:
        Drift-diffusion time step.
    ion_charge:
        Valence charge for the potential estimator.
    recompute_every:
        Sweeps between full recomputations (rounding-drift control).
    measure:
        False skips the energy estimator (pure-propagation benchmarks).
    checkpoint_every:
        Write a checkpoint to ``checkpoint_path`` every this many sweeps.
    checkpoint_path:
        Checkpoint directory (required with ``checkpoint_every``).
    resume:
        Checkpoint to continue from; run parameters must match.
    guard:
        Non-finite-energy policy
        (:func:`~repro.resilience.guards.screen_energy`): ``"raise"``
        fails loudly, ``"recompute"`` rebuilds derived state and
        re-measures once through a fresh estimator (dropping the sample
        if still bad), ``"drop"`` skips the sample; ``None`` keeps every
        sample.
    step_mode:
        ``"batched"`` (default) advances the walker through the batched
        population-step kernels (:mod:`repro.qmc.batched_step`, a crowd
        of one); ``"walker"`` uses the sequential per-electron loop.
        Both produce bit-identical trajectories, so the mode is not part
        of the checkpoint contract — a checkpoint from either mode
        resumes under either mode.  ``None`` resolves through
        ``config.step_mode``, then ``REPRO_STEP_MODE``, then
        ``"batched"``.
    config:
        Optional :class:`repro.config.RunConfig`; supplies the
        ``step_mode`` default (kernel knobs are fixed when the
        wavefunction's orbital set is built).
    """
    from repro.config import effective_step_mode

    out = _run_vmc_loop(
        [wf], [rng], n_steps, n_warmup, tau, ion_charge,
        effective_step_mode(step_mode, config),
        recompute_every=recompute_every,
        measure=measure,
        energy_policy=guard.on_nonfinite_energy if guard is not None else "ignore",
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    return VmcResult(
        energies=out["energies"][0],
        acceptance=out["accepted"] / max(out["attempted"], 1),
    )


def _run_vmc_loop(
    wfs: list[SlaterJastrow],
    rngs: list[np.random.Generator],
    n_steps: int,
    n_warmup: int,
    tau: float,
    ion_charge: float,
    step_mode: str,
    recompute_every: int = _DEFAULT_RECOMPUTE_EVERY,
    measure: bool = True,
    energy_policy: str = "ignore",
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
) -> dict:
    """Advance ``wfs`` (each with its own stream in ``rngs``) through
    ``n_warmup + n_steps`` sweeps; the loop every VMC driver runs.

    Returns ``{"energies", "accepted", "attempted"}``: a
    ``(len(wfs), n_measured)`` float64 array of post-warm-up local
    energies in walker order (a ``"drop"`` policy can shorten a trace,
    so it is meant for one walker) and integer move counts.  The
    ``"vmc"`` checkpoint holds one walker, so ``checkpoint_every`` and
    ``resume`` need ``len(wfs) == 1``.  Metrics count one
    ``vmc_steps_total`` per sweep of the whole list.
    """
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    params = {
        "n_warmup": n_warmup,
        "tau": tau,
        "ion_charge": ion_charge,
        "recompute_every": recompute_every,
        "measure": measure,
    }
    if resume is not None:
        start_step, accepted, attempted, traces = _read_vmc_checkpoint(
            resume, params, wfs, rngs
        )
    else:
        start_step = accepted = attempted = 0
        traces = [[] for _ in wfs]
    if not wfs:
        return {"energies": np.empty((0, n_steps)), "accepted": 0, "attempted": 0}
    # Built after any resume, so estimators and the SoA position cache
    # see the restored configuration.
    estimators = [LocalEnergy(wf, ion_charge) for wf in wfs] if measure else None
    crowd = CrowdState(wfs, rngs) if step_mode == "batched" else None

    def remeasure(i: int) -> float:
        # Rebuild derived state and re-measure through a fresh estimator.
        wfs[i].recompute()
        estimators[i] = LocalEnergy(wfs[i], ion_charge)
        return estimators[i].total()

    for step in range(start_step, n_warmup + n_steps):
        t_step = time.perf_counter() if OBS.enabled else 0.0
        if crowd is not None:
            acc, att = batched_sweep(crowd, tau)
        else:
            acc = att = 0
            for wf, rng in zip(wfs, rngs):
                a, t = sweep(wf, tau, rng)
                acc += a
                att += t
        if OBS.enabled:
            dt = time.perf_counter() - t_step
            OBS.count("vmc_steps_total")
            OBS.observe("vmc_step_seconds", dt)
            OBS.complete("vmc:sweep", t_step, dt, cat="qmc", step=step)
        accepted += acc
        attempted += att
        if (step + 1) % recompute_every == 0:
            for wf in wfs:
                wf.recompute()
        if step >= n_warmup and estimators is not None:
            for i, trace in enumerate(traces):
                e = screen_energy(
                    estimators[i].total(), energy_policy, "vmc",
                    lambda: remeasure(i),
                )
                if e is not None:
                    trace.append(e)
        if checkpoint_every is not None and (step + 1) % checkpoint_every == 0:
            _write_vmc_checkpoint(
                checkpoint_path, step + 1, accepted, attempted, params,
                wfs, rngs, traces,
            )
    return {
        "energies": np.asarray(traces, dtype=np.float64),
        "accepted": accepted,
        "attempted": attempted,
    }


def _write_vmc_checkpoint(
    path, step, accepted, attempted, params, wfs, rngs, traces
) -> None:
    """Save the one walker of ``wfs`` (recomputed first, so its state is
    what a resume rebuilds from positions)."""
    (wf,), (rng,), (energies,) = wfs, rngs, traces
    wf.recompute()
    save_checkpoint(
        path,
        {
            "kind": "vmc",
            "step": step,
            "accepted": accepted,
            "attempted": attempted,
            "rng_state": rng_state(rng),
            "params": params,
        },
        {
            "positions": wf.electrons.positions,
            "ion_positions": wf.ions.positions,
            "energies": np.asarray(energies, dtype=np.float64),
        },
    )


def _read_vmc_checkpoint(resume, params, wfs, rngs):
    """Restore the one walker of ``wfs`` in place; returns ``(step,
    accepted, attempted, traces)``."""
    (wf,), (rng,) = wfs, rngs
    ckpt = load_checkpoint(resume, expect_kind="vmc")
    saved = ckpt.manifest["params"]
    for key in params:
        if saved.get(key) != params[key]:
            raise CheckpointError(
                f"checkpoint parameter mismatch for {key!r}: "
                f"saved {saved.get(key)!r}, requested {params[key]!r}"
            )
    try:
        wf.electrons.load_positions(ckpt.arrays["positions"], wrap=False)
        wf.ions.load_positions(ckpt.arrays["ion_positions"], wrap=False)
    except ValueError as exc:
        raise CheckpointError(
            f"wavefunction does not match checkpoint shape: {exc}"
        ) from exc
    wf.recompute()
    set_rng_state(rng, ckpt.manifest["rng_state"])
    return (
        int(ckpt.manifest["step"]),
        int(ckpt.manifest["accepted"]),
        int(ckpt.manifest["attempted"]),
        [list(ckpt.arrays["energies"])],
    )
