"""miniQMC benchmark configurations.

The paper's configurations do not fit a laptop-class Python host (a
48^3 x 4096 single-precision table alone is 1.8 GB and one C++ kernel
eval is ~microseconds; the Python port is ~10^3 slower).  Every config
therefore comes in two flavours:

* ``paper_*`` — the exact paper parameters, consumed by the *model*
  benches (:mod:`repro.hwsim`), which never allocate the table;
* ``live_*`` — scaled-down parameters for wall-clock measurements of the
  real NumPy kernels on this host, preserving the structural knobs
  (layouts, tile ratios, sample batching) while shrinking N and the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MiniQmcConfig",
    "paper_sweep_sizes",
    "paper_coral",
    "live_kernel_config",
    "live_app_config",
    "random_coefficients",
]

#: The paper's N sweep (Sec. VI): 128 to 4096 splines.
PAPER_SWEEP_SIZES = (128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class MiniQmcConfig:
    """Everything a miniQMC kernel driver needs.

    Attributes
    ----------
    n_splines:
        N, the spline count.
    grid_shape:
        Coefficient grid dimensions.
    n_samples:
        Random positions per walker per kernel per iteration (paper ns=512).
    n_iters:
        Outer Monte Carlo generations (paper Fig. 3 L21).
    n_walkers:
        Walkers; on this single-core host walkers are sequential
        repetitions, which measures the same per-eval cost.
    tile_size:
        Nb for tiled runs (None = untiled); also the spline-tile width
        of the batched engine.  This is the paper's *physical* blocking
        parameter (AoSoA layouts, the hwsim model, the roofline plots
        all consume it), so it is **not** deprecated — but for the
        batched drivers a ``config.tile_size`` serves the same role and
        an explicit ``tile_size`` wins.
    dtype:
        Table precision (paper: float32).
    seed:
        RNG seed for positions and coefficients.
    config:
        :class:`repro.config.RunConfig` for the batched drivers
        (chunk/tile/backend/tune mode).  ``None`` consults the
        environment at driver time.
    """

    n_splines: int
    grid_shape: tuple[int, int, int]
    n_samples: int = 512
    n_iters: int = 1
    n_walkers: int = 1
    tile_size: int | None = None
    dtype: type = np.float32
    seed: int = 2017
    config: "object | None" = None

    def run_config(self):
        """The effective :class:`~repro.config.RunConfig` for batched runs.

        The physical ``tile_size`` overrides ``config.tile_size`` — rung
        1 of the documented resolution order; with no ``config`` the
        environment is consulted (rung 2).
        """
        from repro.config import RunConfig

        cfg = self.config if self.config is not None else RunConfig.from_env()
        if self.tile_size is not None:
            return cfg.replace(tile_size=self.tile_size)
        return cfg

    @property
    def n_grid_points(self) -> int:
        nx, ny, nz = self.grid_shape
        return nx * ny * nz

    @property
    def table_bytes(self) -> int:
        """Size of the full coefficient table."""
        return self.n_grid_points * self.n_splines * np.dtype(self.dtype).itemsize


def paper_sweep_sizes() -> tuple[int, ...]:
    """The paper's N values, 128..4096."""
    return PAPER_SWEEP_SIZES


def paper_coral() -> MiniQmcConfig:
    """The CORAL 4x4x1 baseline problem (Sec. IV) at paper scale."""
    return MiniQmcConfig(
        n_splines=128, grid_shape=(48, 48, 60), n_samples=512, n_walkers=36
    )


def live_kernel_config(
    n_splines: int = 128,
    grid: tuple[int, int, int] = (24, 24, 24),
    n_samples: int = 16,
    tile_size: int | None = None,
) -> MiniQmcConfig:
    """Host-sized kernel-driver config (seconds, not hours)."""
    return MiniQmcConfig(
        n_splines=n_splines,
        grid_shape=grid,
        n_samples=n_samples,
        tile_size=tile_size,
    )


def live_app_config(n_orbitals: int = 16) -> MiniQmcConfig:
    """Host-sized full-app config: N orbitals => 2N electrons."""
    return MiniQmcConfig(
        n_splines=n_orbitals,
        grid_shape=(14, 14, 14),
        n_samples=0,  # the app drives moves, not random sample batches
    )


def random_coefficients(config: MiniQmcConfig) -> np.ndarray:
    """A random read-only coefficient table for kernel-only drivers.

    Kernel performance is independent of coefficient *values* (paper
    Sec. IV uses whatever the CORAL problem provides; miniQMC only needs
    the right array shape, dtype and alignment), so kernel benches skip
    the interpolation solve and fill the table with Gaussian noise.
    """
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = config.grid_shape
    return rng.standard_normal((nx, ny, nz, config.n_splines)).astype(config.dtype)
