"""The four standing workloads: set-up, timed window, correctness gate.

Each workload function takes a :class:`Ctx` and returns an
:class:`Outcome` holding raw samples; ``run.py`` turns those into the
named metrics.  The program is driven only through its public API
(``repro.qmc``, ``repro.parallel``, ``repro.core``, ``repro.serve``);
every input is generated from the run's seed.

Timing rules shared by all workloads:

* ``setup_s`` samples start after imports and end after the warm-up
  call (first DMC generation, first kernel call, first request), which
  therefore stays outside the timed window;
* the timed window runs for ``Ctx.seconds``; in a traced run its first
  half is untraced (the overhead baseline) and its second half traced;
* correctness gates run after the window closes.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
import types
from dataclasses import dataclass, field

import numpy as np

from repro.config import TUNE_OFF, RunConfig
from repro.core import BsplineBatched, Grid3D, Kind
from repro.core.batched_reference import ReferenceBatched
from repro.resilience.guards import GuardConfig, GuardViolation

from tracer import Tracer

TAU = 0.02
#: Population control for both DMC workloads.  At the drivers' default
#: feedback of 1 the trial-energy correction per generation is only
#: ``tau * log(N / target)``, so the population random-walks; at ``1 / tau``
#: the expected next population is the target.  Even so, a local-energy
#: outlier in the first generation sends some seeds to the 4x cap (64
#: walkers) for a generation, which raised peak RSS from 61 to 83 MiB on
#: those seeds only; a cap of 1x the target keeps every generation at
#: most 16 walkers, so each seed does the same work per generation.
FEEDBACK = 1.0 / TAU
MAX_POPULATION_FACTOR = 1
#: Minimum length of a throughput slice for kernel-vgh and serve-vgh:
#: about 120 calls or 70 requests, enough that one slice's rate is not
#: dominated by the spread of single operations.  Windows shorter than
#: 4 slices (smoke runs) use a quarter of the window instead.
SLICE_S = 1.0
#: Bytes written per position per spline, by kind (streams v, g, l, h).
_OUT_VALUES = {Kind.V: 1, Kind.VGL: 5, Kind.VGH: 11}


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark tier."""

    walkers: int
    n_orbitals: int
    dmc_grid: int
    kernel_grid: int
    kernel_splines: int
    kernel_positions: int
    serve_positions: int
    serve_orbitals: int
    serve_grid: int
    setups: int
    gate_calls: int
    stream_mb: int


#: The standing sizes.  137^3 x 128 f32 is 1.23 GiB (1.32 GB), at
#: least 4x the 300 MiB last-level cache the reference host reports.
FULL = Size(
    walkers=16, n_orbitals=32, dmc_grid=12,
    kernel_grid=137, kernel_splines=128, kernel_positions=256,
    serve_positions=16, serve_orbitals=32, serve_grid=24,
    setups=3, gate_calls=32, stream_mb=400,
)
#: A seconds-long tier for the benchmark's own tests.
SMOKE = Size(
    walkers=4, n_orbitals=4, dmc_grid=8,
    kernel_grid=12, kernel_splines=16, kernel_positions=32,
    serve_positions=4, serve_orbitals=4, serve_grid=8,
    setups=2, gate_calls=4, stream_mb=8,
)
SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    size: Size
    root: str  # checkout root; the serve subprocess imports from root/src
    tracer: Tracer = field(default_factory=Tracer)

    @property
    def windows(self) -> tuple[float, float]:
        """(untraced, traced) seconds of the timed window."""
        if self.trace:
            return self.seconds / 2, self.seconds / 2
        return self.seconds, 0.0


@dataclass
class Outcome:
    """Raw samples of one run (untraced window unless named traced_*)."""

    #: Work per second (walker-generations, positions or requests) in
    #: consecutive slices of the window; throughput is their median.
    rates: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced_rates: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def run_config() -> RunConfig:
    return RunConfig(backend="numpy", tune=TUNE_OFF)


def own_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mib(pid: int) -> float:
    """Sum of peak RSS (``VmHWM``) over a live process and its descendants."""
    total_kib, stack = 0, [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/status") as fh:
                total_kib += next(
                    int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
                )
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):  # exited meanwhile
            continue
    return total_kib / 1024.0


class _Stop(Exception):
    """Raised from a benchmark hook to end a driver run at its deadline."""


def slice_rates(t_start: float, events, window_s: float, min_s: float = SLICE_S) -> list[float]:
    """Work per second over consecutive slices of a window.

    ``events`` are ``(completion time, work)`` pairs; a slice closes at
    the first completion at least ``min(min_s, window_s / 4)`` after the
    previous slice closed, and its rate is the work completed in it over
    its length.  A trailing slice shorter than that is dropped.
    """
    min_s = min(min_s, window_s / 4)
    rates, t_a, work = [], t_start, 0.0
    for t, w in sorted(events):
        work += w
        if t - t_a >= min_s and t > t_a:
            rates.append(work / (t - t_a))
            t_a, work = t, 0.0
    return rates


# -- shared tracing installs --------------------------------------------------


class _EngineBytes:
    """Positions and computed bytes per engine call: the 64-point stencil
    read from the table plus the output streams written.  Computed from
    array sizes, so cache misses and gather temporaries are not counted."""

    def __init__(self):
        self.positions = 0
        self.bytes = 0

    def after(self, kind: Kind | None):
        def record(args, result):
            engine = args[0]
            if kind is None:  # evaluate_batch(kind, positions, out)
                k, positions = Kind.coerce(args[1]), args[2]
            else:  # v_batch / vgl_batch / vgh_batch(positions, out)
                k, positions = kind, args[1]
            n = len(positions)
            self.positions += n
            self.bytes += (
                n * engine.n_splines * engine.dtype.itemsize * (64 + _OUT_VALUES[k])
            )

        return record


def _install_core(tracer: Tracer) -> _EngineBytes:
    """Spans at the basis-weight and engine boundaries of ``repro.core``."""
    import repro.core.batched as batched_mod
    import repro.core.spline1d as spline1d_mod

    tracer.wrap(batched_mod, "bspline_weights_batch", "core.weights")
    tracer.wrap(spline1d_mod, "bspline_weights_batch", "core.weights")
    counter = _EngineBytes()
    for method, kind in (
        ("v_batch", Kind.V),
        ("vgl_batch", Kind.VGL),
        ("vgh_batch", Kind.VGH),
        ("evaluate_batch", None),
    ):
        tracer.wrap(BsplineBatched, method, "core.engine", after=counter.after(kind))
    return counter


def _core_layers(tracer: Tracer, counter: _EngineBytes, keep, units: float) -> dict:
    self_s = tracer.self_times(keep)
    counts, incl = tracer.totals(keep)
    calls = counts.get("core.engine", 0)
    engine_incl = incl.get("core.engine", 0.0)
    return {
        "core.weights_calls": counts.get("core.weights", 0) / units,
        "core.weights_s": self_s.get("core.weights", 0.0) / units,
        "core.engine_calls": calls / units,
        "core.engine_s": self_s.get("core.engine", 0.0) / units,
        "core.positions_per_call": counter.positions / calls if calls else 0.0,
        "core.bytes_per_call": counter.bytes / calls if calls else 0.0,
        "core.gbps": counter.bytes / engine_incl / 1e9 if engine_incl else 0.0,
    }


# -- DMC: generation clock shared by the sequential and sharded drivers -------


class _GenerationClock:
    """Turns generation boundaries into setup time and timed generations.

    ``boundary(population)`` is called at the end of every generation
    with the population the next generation propagates.  The first
    boundary ends set-up (the warm-up generation); later ones close timed
    generations until the window is spent, then raise :class:`_Stop`.
    """

    def __init__(self, ctx: Ctx, t0: float, timed: bool, on_traced=None):
        self.ctx = ctx
        self.t0 = t0
        self.timed = timed  # False: a set-up sample, stop after warm-up
        self.on_traced = on_traced
        self.setup_end: float | None = None
        # (start, end, population, traced) per timed generation
        self.generations: list[tuple[float, float, int, bool]] = []
        self._last: tuple[float, int, bool] | None = None

    @property
    def tracing(self) -> bool:
        """Whether the generation now running is in the traced window."""
        return self._last is not None and self._last[2]

    def boundary(self, population: int) -> None:
        t = time.perf_counter()
        if self.setup_end is None:
            self.setup_end = t
            if not self.timed:
                raise _Stop
        else:
            start, pop, traced = self._last
            self.generations.append((start, t, pop, traced))
        untraced_s, traced_s = self.ctx.windows
        elapsed = t - self.setup_end
        if elapsed >= untraced_s + traced_s:
            raise _Stop
        traced = elapsed >= untraced_s
        if traced and not self.tracing and self.on_traced:
            self.on_traced()
        if traced:
            self.ctx.tracer.ctx = f"gen-{len(self.generations) + 1}"
        self._last = (time.perf_counter(), population, traced)

    def fill(self, out: Outcome, root_span: str) -> list[tuple]:
        """Latency/throughput samples into ``out``; generation spans into the
        tracer.  Returns the traced generations."""
        traced = []
        target = self.ctx.size.walkers
        for i, (start, end, pop, is_traced) in enumerate(self.generations, 1):
            if is_traced:
                self.ctx.tracer.add(root_span, start, end, ctx=f"gen-{i}")
                traced.append((start, end, pop))
                out.traced_rates.append(pop / (end - start))
            else:
                # Branching moves the population around the target, and
                # differently for every seed; latency is scaled to the
                # target population so seeds compare.
                out.latencies_s.append((end - start) * target / pop)
                out.rates.append(pop / (end - start))
        return traced


def _generation_layers(tracer: Tracer, root_span: str, n_generations: int, counter=None):
    """Per-generation span totals, and the share of each generation that
    layer spans cover.  Generation spans are recorded after the fact, so
    their self time (branching and bookkeeping) is their length minus the
    top-level spans carrying the same generation id.

    Returns ``(layers, self_s, counts, incl, g)``: the shared metrics, the
    raw self times, counts and inclusive times, and the divisor ``g``.
    """
    on = lambda s: s[4] is not None and str(s[4]).startswith("gen-")  # noqa: E731
    self_s = tracer.self_times(on)
    counts, incl = tracer.totals(on)
    length: dict[str, float] = {}
    covered: dict[str, float] = {}
    for s in tracer.spans:
        if not on(s):
            continue
        if s[0] == root_span:
            length[s[4]] = s[2] - s[1]
        elif s[3] is None:
            covered[s[4]] = covered.get(s[4], 0.0) + (s[2] - s[1])
    self_s[root_span] = sum(length.values()) - sum(covered.values())
    coverage = [min(1.0, covered.get(gid, 0.0) / dur) for gid, dur in length.items()]
    g = float(max(n_generations, 1))
    layers = {"trace.coverage_min": min(coverage) if coverage else 0.0}
    if counter is not None:
        layers.update(_core_layers(tracer, counter, on, g))
    return layers, self_s, counts, incl, g


def _snapshot(pairs) -> list[tuple[float, np.ndarray]]:
    return [(float(e), np.array(p, copy=True)) for e, p in pairs]


def _same(a, b) -> bool:
    """Bitwise equality of two (energy, positions) walker snapshots."""
    return a is not None and b is not None and len(a) == len(b) and all(
        ea == eb and np.array_equal(pa, pb) for (ea, pa), (eb, pb) in zip(a, b)
    )


def dmc_seq(ctx: Ctx) -> Outcome:
    """``build_dmc_ensemble`` + ``run_dmc`` as ``python -m repro dmc`` runs
    them (batched step mode, 'raise' policy for non-finite energies)."""
    from repro.qmc.dmc import build_dmc_ensemble, run_dmc
    from repro.qmc.rng import WalkerRngPool

    size, cfg, out = ctx.size, run_config(), Outcome()
    counter: list[_EngineBytes] = []

    def on_traced():
        import repro.qmc.dmc as dmc_mod
        from repro.qmc.estimators import LocalEnergy

        ctx.tracer.wrap(dmc_mod, "batched_sweep", "qmc.sweep")
        ctx.tracer.wrap(LocalEnergy, "total", "qmc.measure")
        counter.append(_install_core(ctx.tracer))

    def one(step_mode: str, timed: bool):
        """Build and run one ensemble; returns (clock, generation-0 snapshot)."""
        t0 = time.perf_counter()
        clock = _GenerationClock(ctx, t0, timed, on_traced if ctx.trace else None)
        first: list = []

        def hook(gen, walkers):
            if not first:
                first.append(
                    _snapshot((w.e_local, w.wf.electrons.positions) for w in walkers)
                )
            clock.boundary(len(walkers))

        pool = WalkerRngPool(ctx.seed)
        walkers = build_dmc_ensemble(
            pool, size.walkers, n_orbitals=size.n_orbitals,
            grid_shape=(size.dmc_grid,) * 3, config=cfg,
        )
        try:
            run_dmc(
                walkers, pool, n_generations=1 << 30, tau=TAU, feedback=FEEDBACK,
                max_population_factor=MAX_POPULATION_FACTOR,
                guard=GuardConfig(on_nonfinite_energy="raise"),
                step_mode=step_mode, config=cfg, on_generation=hook,
            )
        except _Stop:
            pass
        except GuardViolation:  # a non-finite local energy ends the run
            out.check(False)
            clock.setup_end = clock.setup_end or time.perf_counter()
        return clock, first[0] if first else None

    snapshots = []
    for i in range(size.setups):
        clock, snap = one("batched", timed=i == size.setups - 1)
        out.setups_s.append(clock.setup_end - clock.t0)
        snapshots.append(snap)
    ctx.tracer.uninstall()
    traced = clock.fill(out, "qmc.generation")
    out.check(True, len(clock.generations))
    # Gates: every set-up sample reproduced generation 0 bit for bit, and
    # the per-walker sweep reproduces the batched one.
    _, walker_snap = one("walker", timed=False)
    for snap in snapshots[1:] + [walker_snap]:
        out.check(_same(snap, snapshots[0]))
    out.notes["generations_timed"] = len(clock.generations)
    out.peak_rss_mib = own_peak_rss_mib()
    if ctx.trace:
        layers, self_s, counts, _, g = _generation_layers(
            ctx.tracer, "qmc.generation", len(traced), counter[0] if counter else None
        )
        layers.update(
            {
                "qmc.measure_s": self_s.get("qmc.measure", 0.0) / g,
                "qmc.measure_calls": counts.get("qmc.measure", 0) / g,
                "qmc.sweep_s": self_s.get("qmc.sweep", 0.0) / g,
                "qmc.branch_s": self_s.get("qmc.generation", 0.0) / g,
            }
        )
        out.layers = layers
    return out


def dmc_sharded(ctx: Ctx) -> Outcome:
    """``run_dmc_sharded`` over 2 worker processes, ``split="walkers"``.

    Generation boundaries are the parent's ``ProcessCrowdPool.call``
    dispatches: call 0 measures the initial population, call ``k``
    propagates generation ``k - 1``.
    """
    from repro.parallel import CrowdSpec, ProcessCrowdPool, run_dmc_sharded

    size, cfg, out = ctx.size, run_config(), Outcome()
    spec = CrowdSpec(
        n_walkers=size.walkers, n_orbitals=size.n_orbitals,
        grid_shape=(size.dmc_grid,) * 3, seed=ctx.seed, config=cfg,
    )
    original_call = ProcessCrowdPool.call
    tap = types.SimpleNamespace(
        clock=None, propagates=0, first=None, task_bytes=0, workers_rss_mib=0.0
    )

    def call(pool, method, per_worker_args, **kwargs):
        clock = tap.clock
        if method == "propagate":
            tap.propagates += 1
            if tap.propagates > 1:
                try:
                    clock.boundary(sum(len(args[0]) for args in per_worker_args))
                except _Stop:
                    if clock.timed:
                        tap.workers_rss_mib = sum(tree_peak_rss_mib(p) for p in pool.pids)
                    raise
        traced = clock.tracing
        if traced:
            tap.task_bytes += len(pickle.dumps(per_worker_args, pickle.HIGHEST_PROTOCOL))
            index = ctx.tracer.begin("parallel.call")
        try:
            result = original_call(pool, method, per_worker_args, **kwargs)
        finally:
            if traced:
                ctx.tracer.end(index)
        if method == "propagate" and tap.propagates == 1:
            tap.first = _snapshot(
                (r["e_local"], r["positions"]) for shard in result for r in shard
            )
        return result

    def one(n_workers: int, timed: bool):
        clock = _GenerationClock(ctx, time.perf_counter(), timed)
        tap.clock, tap.propagates, tap.first = clock, 0, None
        try:
            run_dmc_sharded(
                spec, n_workers=n_workers, n_generations=1 << 30, tau=TAU, feedback=FEEDBACK,
                max_population_factor=MAX_POPULATION_FACTOR,
                guard=GuardConfig(on_nonfinite_energy="raise"),
                step_mode="batched", split="walkers",
            )
        except _Stop:
            pass
        except GuardViolation:  # a non-finite local energy ends the run
            out.check(False)
            clock.setup_end = clock.setup_end or time.perf_counter()
        return clock, tap.first

    ProcessCrowdPool.call = call
    try:
        snapshots = []
        for i in range(size.setups):
            clock, snap = one(2, timed=i == size.setups - 1)
            out.setups_s.append(clock.setup_end - clock.t0)
            snapshots.append(snap)
        traced = clock.fill(out, "parallel.generation")
        out.check(True, len(clock.generations))
        # Gates: set-up samples agree, and 1 worker reproduces 2 workers.
        _, single = one(1, timed=False)
        for snap in snapshots[1:] + [single]:
            out.check(_same(snap, snapshots[0]))
    finally:
        ProcessCrowdPool.call = original_call
    out.notes["generations_timed"] = len(clock.generations)
    out.peak_rss_mib = own_peak_rss_mib() + tap.workers_rss_mib
    if ctx.trace:
        layers, self_s, counts, incl, g = _generation_layers(
            ctx.tracer, "parallel.generation", len(traced)
        )
        layers.update(
            {
                "parallel.pool_calls": counts.get("parallel.call", 0) / g,
                "parallel.wait_s": incl.get("parallel.call", 0.0) / g,
                "parallel.parent_s": self_s.get("parallel.generation", 0.0) / g,
                "parallel.task_bytes": tap.task_bytes / g,
            }
        )
        out.layers = layers
    return out


# -- kernel-vgh ---------------------------------------------------------------


def padded_random_table(rng: np.random.Generator, n: int, n_splines: int) -> np.ndarray:
    """A ghost-padded ``(n+3)^3 x N`` f32 table of random coefficients.

    Filled in place, plane by plane, so peak memory stays one table: the
    interior ``[1, n]`` holds the coefficients and the halo repeats the
    periodic wrap exactly as :func:`repro.core.coeffs.pad_table_3d` lays
    it out (one layer before, two after, on every axis).
    """
    table = np.empty((n + 3, n + 3, n + 3, n_splines), dtype=np.float32)
    for i in range(n):
        table[i + 1, 1 : n + 1, 1 : n + 1] = rng.random((n, n, n_splines), dtype=np.float32)
    for axis in range(3):
        lead = [slice(None)] * axis
        table[(*lead, 0)] = table[(*lead, n)]
        table[(*lead, n + 1)] = table[(*lead, 1)]
        table[(*lead, n + 2)] = table[(*lead, 2)]
    return table


def kernel_vgh(ctx: Ctx) -> Outcome:
    """``BsplineBatched.evaluate_batch(Kind.VGH, ...)`` on a table larger
    than the last-level cache, random positions, no QMC or wire code."""
    size, cfg, out = ctx.size, run_config(), Outcome()
    n, ns = size.kernel_grid, size.kernel_positions
    grid = Grid3D(n, n, n)
    engine = table = None
    for _ in range(size.setups):
        engine = table = None
        gc.collect()  # one table resident at a time
        rng = np.random.default_rng([ctx.seed, 0])
        t0 = time.perf_counter()
        table = padded_random_table(rng, n, size.kernel_splines)
        engine = BsplineBatched(grid, table, config=cfg)
        buf = engine.new_output(Kind.VGH, n=ns)
        engine.evaluate_batch(Kind.VGH, rng.random((ns, 3)), buf)
        out.setups_s.append(time.perf_counter() - t0)
    out.notes["table_bytes"] = int(engine.P.size * engine.dtype.itemsize)
    out.notes["padded_table_bytes"] = int(table.nbytes)

    rng = np.random.default_rng([ctx.seed, 1])
    untraced_s, traced_s = ctx.windows
    samples: list[tuple[np.ndarray, dict]] = []
    counter = None

    def timed_loop(seconds: float, traced: bool) -> tuple[int, list[float], list[float]]:
        calls, done, lat = 0, [], []
        t_start = time.perf_counter()
        while time.perf_counter() < t_start + seconds:
            positions = rng.random((ns, 3))
            if traced:
                ctx.tracer.ctx = f"call-{calls}"
            t0 = time.perf_counter()
            engine.evaluate_batch(Kind.VGH, positions, buf)
            t1 = time.perf_counter()
            calls += 1
            lat.append(t1 - t0)
            done.append((t1, ns))
            if calls % every == 0 and len(samples) < size.gate_calls:
                samples.append((positions, {s: getattr(buf, s).copy() for s in Kind.VGH.streams}))
        return calls, slice_rates(t_start, done, seconds), lat

    # Spread the gate's samples over the window, pacing by the last
    # set-up call's speed.
    every = 1
    t0 = time.perf_counter()
    engine.evaluate_batch(Kind.VGH, rng.random((ns, 3)), buf)
    every = max(1, int(untraced_s / max(time.perf_counter() - t0, 1e-6) / size.gate_calls))
    calls, out.rates, out.latencies_s = timed_loop(untraced_s, traced=False)
    if traced_s:
        counter = _install_core(ctx.tracer)
        t_calls, out.traced_rates, _ = timed_loop(traced_s, traced=True)
        ctx.tracer.uninstall()
    # Gate: sampled calls against the modulo-wrap reference engine.
    reference = ReferenceBatched(grid, engine.P)
    ref_buf = reference.new_output(Kind.VGH, n=ns)
    out.attempted = calls
    for positions, streams in samples:
        reference.evaluate_batch(Kind.VGH, positions, ref_buf)
        if not all(np.array_equal(streams[s], getattr(ref_buf, s)) for s in streams):
            out.failed += 1
    out.notes["gate_calls"] = len(samples)
    out.peak_rss_mib = own_peak_rss_mib()
    if ctx.trace:
        keep = lambda s: s[4] is not None and str(s[4]).startswith("call-")  # noqa: E731
        out.layers = _core_layers(ctx.tracer, counter, keep, float(t_calls))
    return out


# -- serve-vgh ----------------------------------------------------------------


class _Server:
    """A ``python -m repro serve`` subprocess (1 worker, numpy, no tuning)."""

    def __init__(self, root: str, timeout: float = 60.0):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1", "--backend", "numpy", "--no-tune",
            ],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self._first_line(timeout)
            if not line.startswith("serving on "):
                raise RuntimeError(f"serve did not start: {line!r}")
            self.address = line.split("serving on ", 1)[1].strip()
        except BaseException:
            self.stop()
            raise

    def _first_line(self, timeout: float) -> str:
        result: list[str] = []
        reader = threading.Thread(target=lambda: result.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(timeout)
        if not result:
            raise TimeoutError("serve did not print its address in time")
        return result[0]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _metric(metrics: dict, name: str) -> dict:
    """One entry of the server's flattened ``stats`` metrics, by name."""
    for key, entry in metrics.items():
        if key == name or key.startswith(name + "{"):
            return entry
    return {}


def serve_vgh(ctx: Ctx) -> Outcome:
    """Closed loop: one load generator, 2 connections (one tenant each),
    each sending its next request only after the previous reply."""
    from repro.serve import protocol
    from repro.serve.cache import SystemKey, solve_system_table
    from repro.serve.client import ServeClient, ServeError
    import repro.serve.client as client_mod

    size, out = ctx.size, Outcome()
    box, g = 6.0, size.serve_grid
    system = {"n_orbitals": size.serve_orbitals, "box": box, "grid_shape": [g, g, g]}
    n_clients, ns = 2, size.serve_positions

    server = None
    clients: list = []
    try:
        for _ in range(size.setups):
            for c in clients:
                c.close()
            if server is not None:
                server.stop()
            clients, server = [], None
            warm = np.random.default_rng([ctx.seed, 3]).random((ns, 3))
            t0 = time.perf_counter()
            server = _Server(ctx.root)
            clients = [ServeClient(server.address, tenant=f"t{k}") for k in range(n_clients)]
            for c in clients:
                c.evaluate(warm, kind="vgh", system=system)
            out.setups_s.append(time.perf_counter() - t0)

        untraced_s, traced_s = ctx.windows
        t_start = time.perf_counter()
        t_switch = t_start + untraced_s
        t_end = t_switch + traced_s
        phase = {"traced_from": None}
        # (seq, start, end, positions, streams, traced) per request, per connection
        records: list[list] = [[] for _ in range(n_clients)]
        errors = [0] * n_clients

        def load(k: int) -> None:
            rng = np.random.default_rng([ctx.seed, 2, k])
            client, seq = clients[k], 0
            while True:
                start = time.perf_counter()
                if start >= t_end:
                    return
                positions = rng.random((ns, 3))
                traced_from = phase["traced_from"]
                traced = traced_from is not None and start >= traced_from
                if traced:
                    ctx.tracer.ctx = f"req-{k}-{seq}"
                    index = ctx.tracer.begin("serve.request")
                try:
                    streams, _ = client.evaluate(positions, kind="vgh", system=system)
                except (ServeError, OSError):
                    errors[k] += 1
                    streams = None
                finally:
                    if traced:
                        ctx.tracer.end(index)
                end = time.perf_counter()
                if streams is not None:
                    records[k].append((seq, start, end, positions, streams, traced))
                seq += 1

        threads = [
            threading.Thread(target=load, args=(k,), daemon=True) for k in range(n_clients)
        ]
        for t in threads:
            t.start()
        stats_before = None
        if traced_s:
            time.sleep(max(0.0, t_switch - time.perf_counter()))
            with ServeClient(server.address, tenant="stats") as sc:
                stats_before = sc.stats()["metrics"]
            sizes = {"request": 0, "response": 0}

            def count(key):
                def after(args, result):
                    if ctx.tracer.ctx is not None:  # a traced request's thread
                        sizes[key] += len(result) if key == "request" else len(args[0])
                return after

            json_ns = types.ModuleType("json")
            json_ns.__dict__.update(vars(json))
            ctx.tracer.wrap(protocol, "encode_line", "serve.encode", after=count("request"))
            ctx.tracer.wrap(json_ns, "loads", "serve.decode", after=count("response"))
            ctx.tracer.wrap(protocol, "decode_array", "serve.decode")
            client_mod.json = json_ns
            phase["traced_from"] = time.perf_counter()
        for t in threads:
            t.join(timeout=max(60.0, ctx.seconds * 4))
            if t.is_alive():
                raise RuntimeError("load generator thread did not finish")
        client_mod.json = json  # also restored in ``finally``
        ctx.tracer.uninstall()
        stats_after = None
        if traced_s:
            with ServeClient(server.address, tenant="stats") as sc:
                stats_after = sc.stats()["metrics"]
        # The system under test is the server and its worker; the load
        # generator (this process, holding every response for the gate)
        # is not counted.
        out.peak_rss_mib = tree_peak_rss_mib(server.proc.pid)

        flat = [r for rs in records for r in rs]
        window = [r for r in flat if not r[5] and r[2] <= t_switch]
        out.latencies_s = [r[2] - r[1] for r in window]
        out.rates = slice_rates(t_start, [(r[2], 1) for r in window], untraced_s)
        traced_records = [r for r in flat if r[5] and r[2] <= t_end]
        if traced_s:
            out.traced_rates = slice_rates(
                phase["traced_from"], [(r[2], 1) for r in traced_records], traced_s
            )

        # Gate: every response equals a direct engine call, bit for bit.
        key = SystemKey(size.serve_orbitals, box, (g, g, g), "float64")
        engine = BsplineBatched(Grid3D(g, g, g, (1.0, 1.0, 1.0)), solve_system_table(key), config=run_config())
        buf = engine.new_output(Kind.VGH, n=ns)
        mismatched = 0
        for _, _, _, positions, streams, _ in flat:
            engine.evaluate_batch(Kind.VGH, positions, buf)
            if not all(np.array_equal(streams[s], getattr(buf, s)) for s in Kind.VGH.streams):
                mismatched += 1
        out.attempted = len(flat) + sum(errors)
        out.failed = sum(errors) + mismatched
        out.notes["requests"] = len(flat)
        out.notes["errors"] = sum(errors)

        if traced_s:
            out.layers = _serve_layers(ctx, protocol, engine, traced_records, sizes, stats_before, stats_after)
    finally:
        client_mod.json = json
        ctx.tracer.uninstall()
        for c in clients:
            c.close()
        if server is not None:
            server.stop()
    return out


def _serve_layers(ctx, protocol, engine, traced_records, sizes, before, after) -> dict:
    keep = lambda s: s[4] is not None and str(s[4]).startswith("req-")  # noqa: E731
    self_s = ctx.tracer.self_times(keep)
    counts, _ = ctx.tracer.totals(keep)
    n_req = max(counts.get("serve.request", 0), 1)
    # Direct measurements on one representative batch, outside the window.
    positions, streams = traced_records[0][3], traced_records[0][4]
    buf = engine.new_output(Kind.VGH, n=len(positions))
    engine_s, encode_s = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        engine.evaluate_batch(Kind.VGH, positions, buf)
        engine_s.append(time.perf_counter() - t0)
    response = protocol.ok_response(
        1, {"streams": {s: protocol.encode_array(a) for s, a in streams.items()}}
    )
    for _ in range(10):
        t0 = time.perf_counter()
        protocol.encode_line(response)
        encode_s.append(time.perf_counter() - t0)
    b0, b1 = _metric(before, "serve_batches_total"), _metric(after, "serve_batches_total")
    h0, h1 = _metric(before, "serve_batch_size"), _metric(after, "serve_batch_size")
    batches = b1.get("value", 0) - b0.get("value", 0)
    d_count = h1.get("count", 0) - h0.get("count", 0)
    d_sum = h1.get("sum", 0.0) - h0.get("sum", 0.0)
    return {
        "serve.encode_s": self_s.get("serve.encode", 0.0) / n_req,
        "serve.decode_s": self_s.get("serve.decode", 0.0) / n_req,
        "serve.request_bytes": sizes["request"] / n_req,
        "serve.response_bytes": sizes["response"] / n_req,
        "serve.server_encode_s": float(np.median(encode_s)),
        "serve.engine_s": float(np.median(engine_s)),
        "serve.mean_batch_size": d_sum / d_count if d_count else 0.0,
        "serve.batches": float(batches),
    }


WORKLOADS = {
    "dmc-seq": dmc_seq,
    "dmc-sharded": dmc_sharded,
    "kernel-vgh": kernel_vgh,
    "serve-vgh": serve_vgh,
}
