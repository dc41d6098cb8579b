"""Standing benchmark of the repro package: four workloads, one schema.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dmc-seq --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A readable table goes to standard error.  ``--out PATH`` also writes
the full record (host, noise controls, raw samples, spans) to PATH,
which must not exist yet: the benchmark never overwrites a file.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread pools pinned to one thread in this process and every process
#: it starts (children inherit the environment).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Which noise controls were found to matter on the 2-vCPU reference host
#: (written into every ``--out`` record; details in README.md).
NOISE_FINDINGS = {
    "threads_pinned_to_1": "mattered: a 400x400 matmul at the BLAS default of "
    "2 threads had a median of 1.5 ms but a p90 of 24 ms; at 1 thread 2.0 ms "
    "and 2.5 ms",
    "warm_up_outside_clock": "mattered: the first DMC generation (with the "
    "initial measurement of every walker) took 2.7 s against 1.3-1.6 s after",
    "setup_after_imports": "small: imports take about 0.25 s of a 2.5-4 s set-up",
    "fresh_tune_db_and_explicit_config": "not seen to change a number: with "
    "tune='off' the DB is never read; kept so no on-disk state can differ",
    "host_speed_states": "dominant and not removable from inside the guest: "
    "the same loop runs up to about 1.7x slower for a few seconds to tens of "
    "seconds at a time (CPU speed, not steal), and which side is steady "
    "changes from hour to hour; the gated statistics are medians (slice "
    "rate, latency), the only ones within bound on every workload in both "
    "the slow-state and the fast-state hours measured",
    "population_control": "mattered: with the drivers' default feedback some "
    "seeds hit the 64-walker cap for a generation, peak RSS 61 vs 83 MiB "
    "(spread 0.21-0.35); feedback 1/tau and a 1x cap keep every generation "
    "at most 16 walkers",
    "busy_sibling_vcpu": "did not help: with a spinner pinned to the other "
    "vCPU, dmc-seq ran at 5.3 walker-generations/s in 4 of 6 runs and 12-13 "
    "in the other 2, so the benchmark leaves the other vCPU alone",
}

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "qmc.measure_s": "s",
    "qmc.measure_calls": "count",
    "qmc.sweep_s": "s",
    "qmc.branch_s": "s",
    "core.weights_calls": "count",
    "core.weights_s": "s",
    "core.engine_calls": "count",
    "core.engine_s": "s",
    "core.positions_per_call": "count",
    "core.bytes_per_call": "B",
    "core.gbps": "GB/s",
    "core.stream_gbps": "GB/s",
    "core.roofline_frac": "ratio",
    "parallel.pool_calls": "count",
    "parallel.wait_s": "s",
    "parallel.parent_s": "s",
    "parallel.task_bytes": "B",
    "serve.encode_s": "s",
    "serve.decode_s": "s",
    "serve.request_bytes": "B",
    "serve.response_bytes": "B",
    "serve.server_encode_s": "s",
    "serve.engine_s": "s",
    "serve.mean_batch_size": "count",
    "serve.batches": "count",
    "trace.coverage_min": "ratio",
    "trace.overhead_frac": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("dmc-seq", "dmc-sharded", "kernel-vgh", "serve-vgh"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="problem sizes; 'smoke' is the seconds-long tier the tests use",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full record here (refused if PATH exists)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_environment(scratch: Path) -> dict:
    """Noise controls applied before numpy or repro is imported."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    os.environ.update(THREAD_ENV)
    # A fresh, empty tuning DB per run, and temporaries kept in the checkout.
    os.environ["REPRO_TUNE_DB"] = str(scratch / "tunedb.json")
    os.environ["TMPDIR"] = str(scratch)
    return {
        "threads": THREAD_ENV,
        "dropped_env": dropped,
        "tune_db": "fresh per run",
        "findings": NOISE_FINDINGS,
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def throughput(rates) -> float:
    """Median work per second over the window's slices."""
    return statistics.median(rates)


# The reference host's speed drops by up to about 1.7x for seconds to tens
# of seconds at a time, so a run's samples mix fast and slow periods in
# varying proportions.  Which tail of a run's samples is steady across
# runs depends on the hour: in one hour the slow side was (10th percentile
# rate, 75th/95th percentile latency: spreads 0.06-0.15 over 10 seeds,
# median 0.24), in another the fast side was on the single-process
# workloads (10th percentile latency: 0.05-0.07) while dmc-sharded, whose
# two workers share the two vCPUs with the parent, spread 0.25 there and
# 0.39 at the slow side on dmc-seq.  Medians spread 0.04-0.21 on every
# workload in every set measured, so the gated statistics are the median
# slice rate and the median latency; the tails are reported
# (reported_latencies).


def end_to_end(outcome) -> dict:
    lat_ms = [1e3 * s for s in outcome.latencies_s]
    if not lat_ms or not outcome.rates:
        raise RuntimeError("the timed window completed no operation")
    return {
        "throughput_per_s": throughput(outcome.rates),
        "latency_p50_ms": _percentile(lat_ms, 50),
        "setup_s": statistics.median(outcome.setups_s),
        "peak_rss_mib": outcome.peak_rss_mib,
    }


def reported_latencies(outcome) -> dict:
    """Tail latencies (ms) with the sample count: printed and recorded,
    not gated (see the note above)."""
    lat_ms = [1e3 * s for s in outcome.latencies_s]
    return {
        "latency_p10_ms": _percentile(lat_ms, 10),
        "latency_p95_ms": _percentile(lat_ms, 95),
        "latency_p99_ms": _percentile(lat_ms, 99),
        "samples": len(lat_ms),
    }


def per_layer(outcome, stream_gbps: float) -> dict:
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({k: v for k, v in outcome.layers.items() if k in PER_LAYER})
    layers["core.stream_gbps"] = stream_gbps
    if stream_gbps > 0:
        layers["core.roofline_frac"] = layers["core.gbps"] / stream_gbps
    if outcome.rates and outcome.traced_rates:
        untraced = throughput(outcome.rates)
        layers["trace.overhead_frac"] = 1.0 - throughput(outcome.traced_rates) / untraced
    return layers


def host_record(size, stream_gbps: float | None) -> dict:
    from repro.tune.hostspec import current_host

    host = current_host()
    table_bytes = size.kernel_grid**3 * size.kernel_splines * 4
    return {
        "fingerprint": host.fingerprint,
        "spec": host.as_dict(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "llc_bytes": host.llc_bytes,
        "kernel_table_bytes": table_bytes,
        "kernel_table_over_llc": table_bytes / host.llc_bytes if host.llc_bytes else None,
        "stream_gbps": stream_gbps,
        "stream_array_mb": size.stream_mb,
    }


def _write_record(path: str, record: dict) -> None:
    # Exclusive create: an existing (possibly committed) file is never touched.
    with open(path, "x", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")


# -- process hygiene ------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process started by a child (the serve subprocess's workers or its
    multiprocessing resource tracker) that outlives that child is then
    re-parented here rather than to init, so :func:`_stop_descendants`
    can find it and wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _descendants() -> list[int]:
    """Pids of every live or unreaped descendant of this process."""
    children: dict[int, list[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def _gone(pid: int) -> bool:
    """Reap ``pid`` if it is an exited child; True once it no longer exists."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
        return done == pid
    except ChildProcessError:  # not ours to reap: gone when /proc drops it
        return not os.path.exists(f"/proc/{pid}")


def _wait_gone(pids, seconds: float) -> list[int]:
    deadline = time.monotonic() + seconds
    while True:
        pids = [pid for pid in pids if not _gone(pid)]
        if not pids or time.monotonic() >= deadline:
            return pids
        time.sleep(0.02)


def _stop_descendants() -> None:
    """Stop every process this run started and wait until each has ended.

    The workloads close their pools and servers themselves; what is left
    is multiprocessing's resource tracker (started with the first shared
    memory segment, it would exit only after this process does) and
    anything an error path left behind.  The tracker is stopped through
    its own pipe once every other descendant has ended; the rest get a
    moment to exit, then SIGTERM, then SIGKILL.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    left = _wait_gone([pid for pid in _descendants() if pid != tracker_pid], 2.0)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        left = _wait_gone(left, 5.0)
    if tracker_pid is not None and getattr(tracker, "_fd", None) is not None:
        try:
            tracker._stop()  # closes the tracker's pipe and waits for it
        except (OSError, ChildProcessError):
            pass


def main(argv=None) -> int:
    args = _parse(argv)
    if args.out is not None and os.path.lexists(args.out):
        print(f"perfbench: refusing to overwrite existing {args.out}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so servers and pools are stopped and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _adopt_orphans()
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=False)
    try:
        controls = _pin_environment(scratch)
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import workloads  # numpy and repro load only after the pinning above

        size = workloads.SIZES[args.size]
        ctx = workloads.Ctx(args.seed, args.seconds, bool(args.trace), size, str(ROOT))
        outcome = workloads.WORKLOADS[args.workload](ctx)
        stream_gbps = None
        if args.trace or args.out:
            from repro.hwsim.hostcal import measure_stream_bandwidth

            stream_gbps = measure_stream_bandwidth(size_mb=size.stream_mb, repeats=3) / 1e9
        if args.trace:
            metrics, units = per_layer(outcome, stream_gbps), PER_LAYER
        else:
            metrics, units = end_to_end(outcome), END_TO_END
        result = {
            "correct": outcome.failed == 0,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        for name, entry in result["metrics"].items():
            print(f"{args.workload:12s} {name:24s} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
        latencies = reported_latencies(outcome) if outcome.latencies_s else {}
        for name, value in latencies.items():
            print(f"{args.workload:12s} {name:24s} {value:.6g} (not gated)", file=sys.stderr)
        print(
            f"{args.workload:12s} error_rate {outcome.failed}/{outcome.attempted}",
            file=sys.stderr,
        )
        if args.out is not None:
            _write_record(
                args.out,
                {
                    "schema": "perfbench/1",
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "size": args.size,
                    "host": host_record(size, stream_gbps),
                    "noise_controls": controls,
                    **result,
                    "error_rate": outcome.failed / max(outcome.attempted, 1),
                    "latencies": latencies,
                    "samples": {
                        "latencies_s": outcome.latencies_s,
                        "setups_s": outcome.setups_s,
                        "rates": outcome.rates,
                        "traced_rates": outcome.traced_rates,
                    },
                    "notes": outcome.notes,
                    "spans": ctx.tracer.as_records(),
                },
            )
        print(json.dumps(result))
        return 0
    finally:
        _stop_descendants()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
