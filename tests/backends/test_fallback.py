"""Chaos: a missing compiled dependency degrades loudly, never silently.

The fallback contract (see ``repro.backends.registry``): with numba's
import poisoned,

* ``--backend auto`` / ``resolve_backend("auto")`` degrades toward the
  NumPy floor with a ``RuntimeWarning`` per skipped candidate and a
  ``backend_fallback_total`` counter sample;
* an explicit ``backend="numba"`` request **raises**
  :class:`BackendUnavailable` with the install hint (CLIs surface it as
  one clean actionable line, not a traceback);
* fleet-worker resolution (``fallback=True``, what
  :func:`build_walker_range` uses) degrades the explicit request to
  NumPy instead — warned and counted — and the run's numbers equal the
  NumPy run's bit for bit, because the fallback *is* the NumPy backend.

Poisoning ``sys.modules`` (not uninstalling) is what the live
``availability_error`` check is designed for: the same tests pass
whether or not numba is actually installed — both CI legs run them.
"""

import sys
import warnings

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailable,
    get_backend,
    resolve_backend,
)
from repro.backends.registry import _reset_for_tests
from repro.config import RunConfig
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, run_crowd_sequential


@pytest.fixture
def no_numba(monkeypatch):
    """Make ``import numba`` raise ImportError, even if it is installed."""
    monkeypatch.setitem(sys.modules, "numba", None)
    # Activation results are cached per process; a CI leg that already
    # activated numba must re-run the gate under the poisoned import.
    _reset_for_tests()
    yield
    _reset_for_tests()


@pytest.fixture
def no_compilers(no_numba, monkeypatch):
    """Additionally break the cc backend's toolchain discovery."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler")
    yield


def test_poisoned_numba_reports_unavailable(no_numba):
    backend = get_backend("numba")
    assert not backend.is_available()
    err = backend.availability_error()
    assert "numba" in err and "pip install numba" in err


def test_explicit_numba_raises_actionable_error(no_numba):
    with pytest.raises(BackendUnavailable, match="pip install numba"):
        resolve_backend("numba")


def test_auto_degrades_with_warning_and_metric(no_compilers):
    OBS.reset()
    OBS.enable()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = resolve_backend("auto")
        assert backend.name == "numpy"
        skipped = {
            str(w.message).split("'")[1]
            for w in caught
            if issubclass(w.category, RuntimeWarning)
        }
        assert {"numba", "cc"} <= skipped
        for name in ("numba", "cc"):
            counter = OBS.registry.counter(
                "backend_fallback_total", requested="auto", skipped=name
            )
            assert counter.value >= 1
    finally:
        OBS.disable()
        OBS.reset()


def test_auto_without_numba_still_resolves(no_numba):
    """auto lands on the best remaining backend, warning about the skip."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backend = resolve_backend("auto")
    assert backend.name in ("cc", "numpy")
    assert any("numba" in str(w.message) for w in caught)


def test_worker_fallback_matches_numpy_bitwise(no_compilers):
    """A worker that degrades serves the exact-tier path — same bits."""
    spec = CrowdSpec(n_walkers=2, n_orbitals=2, grid_shape=(8, 8, 8), seed=5)
    OBS.reset()
    OBS.enable()
    try:
        with pytest.warns(RuntimeWarning, match="numba"):
            degraded = run_crowd_sequential(
                CrowdSpec(
                    n_walkers=2,
                    n_orbitals=2,
                    grid_shape=(8, 8, 8),
                    seed=5,
                    config=RunConfig(backend="numba"),
                ),
                n_sweeps=2,
                tau=0.1,
            )
        counter = OBS.registry.counter(
            "backend_fallback_total", requested="numba", skipped="numba"
        )
        assert counter.value >= 1
    finally:
        OBS.disable()
        OBS.reset()
    reference = run_crowd_sequential(spec, n_sweeps=2, tau=0.1)
    np.testing.assert_array_equal(degraded.positions, reference.positions)
    np.testing.assert_array_equal(degraded.log_values, reference.log_values)


def test_dmc_cli_rejects_unavailable_backend_cleanly(no_numba, capsys):
    """`python -m repro dmc --backend numba` = one actionable line, exit 2."""
    from repro.__main__ import _dmc_main

    with pytest.raises(SystemExit) as excinfo:
        _dmc_main(["--walkers", "2", "--generations", "1", "--backend", "numba"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "pip install numba" in err
    assert "Traceback" not in err


def test_miniqmc_cli_rejects_unknown_backend_cleanly(capsys):
    from repro.miniqmc.app import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--sweeps", "1", "--backend", "no-such-backend"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-backend" in err and "known backends" in err
