"""The curated API reference cannot silently drift from the packages.

``docs/API.md`` is the map of the public surface; these tests pin it to
the actual ``__all__`` of the core packages in both directions a doc can
rot: a symbol exported but never documented, and an ``__all__`` entry
that does not actually resolve.
"""

import importlib
import re
from pathlib import Path

import pytest

DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"
PACKAGES = (
    "repro.core",
    "repro.qmc",
    "repro.parallel",
    "repro.fleet",
    "repro.backends",
    "repro.serve",
    "repro.config",
    "repro.tune",
)


@pytest.fixture(scope="module")
def api_doc() -> str:
    return DOC.read_text()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_symbol_is_documented(package, api_doc):
    mod = importlib.import_module(package)
    missing = [name for name in mod.__all__ if name not in api_doc]
    assert not missing, (
        f"{package} exports symbols absent from docs/API.md: {missing} — "
        f"document them (or drop them from __all__)"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve(package):
    mod = importlib.import_module(package)
    unresolved = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not unresolved, f"{package}.__all__ names missing attributes: {unresolved}"


def test_documented_backends_exist_in_registry(api_doc):
    """Every backend the docs name must actually be registered.

    The "Choose a kernel backend" section lists backends as table rows
    whose first cell is the registry name in backticks; a doc row for a
    backend that was renamed or removed is a lie readers will paste into
    ``--backend``.
    """
    from repro.backends import registered_backends

    parts = api_doc.split("## Choose a kernel backend", 1)
    assert len(parts) == 2, "docs/API.md lost its backend section"
    section = parts[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\|\s*`([a-z][\w-]*)`", section, re.MULTILINE)
    assert documented, "backend section documents no backends"
    registry = set(registered_backends())
    ghosts = [name for name in documented if name not in registry]
    assert not ghosts, (
        f"docs/API.md documents backends not in the registry: {ghosts}"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_all_entries(package):
    mod = importlib.import_module(package)
    seen, dupes = set(), []
    for name in mod.__all__:
        if name in seen:
            dupes.append(name)
        seen.add(name)
    assert not dupes, f"{package}.__all__ lists duplicates: {dupes}"


def test_removed_twins_stay_removed():
    """Each concept has one public name: the conformance harness is
    ``repro.backends.verify_backend``, the planner is ``repro.tune`` and
    the Opt C partition is ``repro.core.partition.partition``."""
    import repro.backends
    import repro.core

    assert "verify_backend" not in repro.core.__all__
    assert not hasattr(repro.core, "verify_backend")
    assert "verify_backend" in repro.backends.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.tune")
    # The Opt C partition lives only in repro.core.partition.
    import repro.core.nested

    assert "partition_tiles" not in repro.core.__all__
    assert not hasattr(repro.core, "partition_tiles")
    assert not hasattr(repro.core.nested, "partition_tiles")
