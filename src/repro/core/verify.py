"""Runtime self-verification of the engine family.

A downstream user swapping in a new layout (or suspecting a platform-
specific NumPy issue) can ask the library to prove all engines agree on
their hardware, QMCPACK-unit-test style:

    from repro.core.verify import verify_engines
    report = verify_engines(grid, coefficients)
    assert report.all_passed, report.summary()

Every engine is checked against the slow reference oracle at random and
adversarial (boundary-wrapping) positions, for all three kernels.

The same report machinery serves the kernel-backend conformance harness,
:func:`repro.backends.verify_backend`, so engine-family and backend
checks share one summary format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batched import BsplineBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.layout_aos import BsplineAoS
from repro.core.layout_aosoa import BsplineAoSoA
from repro.core.layout_fused import BsplineFused
from repro.core.layout_soa import BsplineSoA
from repro.core.refimpl import reference_v, reference_vgh, reference_vgl

__all__ = ["EngineCheck", "VerifyReport", "verify_engines"]


@dataclass(frozen=True)
class EngineCheck:
    """Result of checking one (engine, kernel) pair."""

    engine: str
    kernel: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


@dataclass
class VerifyReport:
    """All checks from one :func:`verify_engines` run."""

    checks: list[EngineCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        """Human-readable pass/fail table."""
        lines = ["engine      kernel  max_error   tol       status"]
        for c in self.checks:
            lines.append(
                f"{c.engine:10s}  {c.kernel:6s}  {c.max_error:9.2e}  "
                f"{c.tolerance:.1e}  {'PASS' if c.passed else 'FAIL'}"
            )
        return "\n".join(lines)


def _adversarial_positions(grid: Grid3D, rng: np.random.Generator, count: int):
    """Random positions plus the boundary-wrapping corner cases."""
    pos = list(grid.random_positions(count, rng))
    lx, ly, lz = grid.lengths
    eps = 1e-9
    pos.append(np.array([eps, eps, eps]))
    pos.append(np.array([lx - eps, ly - eps, lz - eps]))
    pos.append(np.array([-0.3 * lx, 1.7 * ly, 0.5 * lz]))
    return pos


def verify_engines(
    grid: Grid3D,
    coefficients: np.ndarray,
    n_positions: int = 5,
    tile_size: int | None = None,
    seed: int = 1,
) -> VerifyReport:
    """Cross-check every engine against the reference oracle.

    Parameters
    ----------
    grid, coefficients:
        The table under test.
    n_positions:
        Random positions (three adversarial ones are always added).
    tile_size:
        Nb for the AoSoA engine; defaults to the largest power-of-two
        divisor of N up to N/2 (falls back to N).
    seed:
        Position stream seed.

    Returns
    -------
    VerifyReport
        Tolerances scale with the table dtype: 1e-10 relative headroom
        for float64, 1e-3 for float32.
    """
    n_splines = coefficients.shape[3]
    if tile_size is None:
        tile_size = n_splines
        for nb in (n_splines // 2, n_splines // 4):
            if nb and n_splines % nb == 0:
                tile_size = nb
                break
    rng = np.random.default_rng(seed)
    positions = _adversarial_positions(grid, rng, n_positions)
    scale = float(np.abs(coefficients).max()) or 1.0
    tol = (1e-3 if coefficients.dtype == np.float32 else 1e-9) * scale * 100

    engines = {
        "aos": BsplineAoS(grid, coefficients),
        "soa": BsplineSoA(grid, coefficients),
        "fused": BsplineFused(grid, coefficients),
        "aosoa": BsplineAoSoA(grid, coefficients, tile_size),
    }
    batched = BsplineBatched(grid, coefficients)

    report = VerifyReport()
    references = {
        "v": [reference_v(grid, coefficients, *p) for p in positions],
        "vgl": [reference_vgl(grid, coefficients, *p) for p in positions],
        "vgh": [reference_vgh(grid, coefficients, *p) for p in positions],
    }
    for name, eng in engines.items():
        for kind in (Kind.V, Kind.VGL, Kind.VGH):
            kernel = kind.value
            out = eng.new_output(kind)
            worst = 0.0
            for i, p in enumerate(positions):
                eng.evaluate(kind, p, out)
                c = out.as_canonical()
                if kernel == "v":
                    worst = max(worst, float(np.abs(c["v"] - references["v"][i]).max()))
                elif kernel == "vgl":
                    rv, rg, rl = references["vgl"][i]
                    worst = max(
                        worst,
                        float(np.abs(c["v"] - rv).max()),
                        float(np.abs(c["g"] - rg).max()),
                        float(np.abs(c["l"] - rl).max()),
                    )
                else:
                    rv, rg, rh = references["vgh"][i]
                    worst = max(
                        worst,
                        float(np.abs(c["v"] - rv).max()),
                        float(np.abs(c["g"] - rg).max()),
                        float(np.abs(c["h"] - rh).max()),
                    )
            report.checks.append(EngineCheck(name, kernel, worst, tol))

    # Batched engine: compare its vgh against the references directly.
    pos_arr = np.asarray(positions)
    bout = batched.new_output(Kind.VGH, n=len(positions))
    batched.evaluate_batch(Kind.VGH, pos_arr, bout)
    worst = 0.0
    for i in range(len(positions)):
        rv, rg, rh = references["vgh"][i]
        worst = max(worst, float(np.abs(bout.v[i] - rv).max()))
        worst = max(worst, float(np.abs(bout.g[i] - rg).max()))
    report.checks.append(EngineCheck("batched", "vgh", worst, tol))
    return report

