"""Tests for the CLI and the reproduce presentation layer."""

import pytest

from repro.__main__ import main
from repro.reproduce import ALL_TARGETS


class TestReproduceFunctions:
    @pytest.mark.parametrize("name", sorted(ALL_TARGETS))
    def test_every_target_renders(self, name):
        func, desc = ALL_TARGETS[name]
        text = func()
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3
        assert desc  # registry carries a description

    def test_table4_contains_all_cells(self):
        text = ALL_TARGETS["table4"][0]()
        for kern in ("V", "VGL", "VGH"):
            assert kern in text
        for machine in ("BDW", "KNC", "KNL", "BGQ"):
            assert machine in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_TARGETS:
            assert name in out

    def test_single_target(self, capsys):
        assert main(["fig9"]) == 0
        assert "nested-threading" in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown target" in capsys.readouterr().err


class TestDmcGenerations:
    """``--generations`` below 1 is a usage error in every mode, never a
    ``nan`` energy (sequential) or a traceback (sharded)."""

    @pytest.mark.parametrize(
        "extra", [[], ["--processes", "2"]], ids=["sequential", "sharded"]
    )
    @pytest.mark.parametrize("generations", ["0", "-3"])
    def test_rejects_fewer_than_one_generation(self, capsys, extra, generations):
        with pytest.raises(SystemExit) as exc:
            main(["dmc", "--walkers", "2", "--generations", generations, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--generations must be at least 1" in err
        assert "Traceback" not in err
