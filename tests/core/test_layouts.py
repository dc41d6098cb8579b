"""Engine correctness: every layout vs the reference oracle and each other.

This is the heart of the core test suite: the AoS baseline, the SoA
transform (Opt A), the AoSoA tiling (Opt B) and the fused schedule must
all compute the same mathematics — layout changes are not allowed to
change answers (paper Sec. V-A: the transformation is purely in memory).
"""

import numpy as np
import pytest

from repro.core import (
    BsplineAoS,
    BsplineAoSoA,
    BsplineFused,
    BsplineSoA,
    Grid3D,
    Kind,
)
from repro.core.refimpl import reference_v, reference_vgh, reference_vgl

ENGINES = {
    "aos": BsplineAoS,
    "soa": BsplineSoA,
    "fused": BsplineFused,
}

POSITIONS = [
    (1.234, 0.456, 2.111),  # generic interior point
    (0.01, 0.01, 0.01),  # near origin => stencil wraps low
    (1.99, 1.49, 2.49),  # near the far face => stencil wraps high
    (0.5, 0.75, 1.25),  # exactly on grid planes
    (-0.3, 3.2, -1.7),  # outside the box => periodic wrap of position
]


def make_engine(name, grid, table):
    if name == "aosoa":
        return BsplineAoSoA(grid, table, tile_size=8)
    return ENGINES[name](grid, table)


@pytest.mark.parametrize("engine_name", ["aos", "soa", "fused", "aosoa"])
class TestAgainstReference:
    @pytest.mark.parametrize("pos", POSITIONS)
    def test_v(self, engine_name, pos, small_grid, small_table):
        eng = make_engine(engine_name, small_grid, small_table)
        out = eng.new_output(Kind.V)
        eng.v(*pos, out)
        ref = reference_v(small_grid, small_table, *pos)
        np.testing.assert_allclose(out.as_canonical()["v"], ref, atol=1e-12)

    @pytest.mark.parametrize("pos", POSITIONS)
    def test_vgl(self, engine_name, pos, small_grid, small_table):
        eng = make_engine(engine_name, small_grid, small_table)
        out = eng.new_output(Kind.VGL)
        eng.vgl(*pos, out)
        rv, rg, rl = reference_vgl(small_grid, small_table, *pos)
        c = out.as_canonical()
        np.testing.assert_allclose(c["v"], rv, atol=1e-12)
        np.testing.assert_allclose(c["g"], rg, atol=1e-11)
        np.testing.assert_allclose(c["l"], rl, atol=1e-10)

    @pytest.mark.parametrize("pos", POSITIONS)
    def test_vgh(self, engine_name, pos, small_grid, small_table):
        eng = make_engine(engine_name, small_grid, small_table)
        out = eng.new_output(Kind.VGH)
        eng.vgh(*pos, out)
        rv, rg, rh = reference_vgh(small_grid, small_table, *pos)
        c = out.as_canonical()
        np.testing.assert_allclose(c["v"], rv, atol=1e-12)
        np.testing.assert_allclose(c["g"], rg, atol=1e-11)
        np.testing.assert_allclose(c["h"], rh, atol=1e-10)

    def test_outputs_overwritten_not_accumulated(
        self, engine_name, small_grid, small_table
    ):
        # Two evaluations in a row must give the second position's values.
        eng = make_engine(engine_name, small_grid, small_table)
        out = eng.new_output(Kind.VGH)
        eng.vgh(*POSITIONS[0], out)
        eng.vgh(*POSITIONS[1], out)
        ref = reference_vgh(small_grid, small_table, *POSITIONS[1])[0]
        np.testing.assert_allclose(out.as_canonical()["v"], ref, atol=1e-12)


class TestDerivativeConsistency:
    """Cross-kernel invariants that hold regardless of the oracle."""

    def test_vgl_lap_equals_vgh_trace(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        o1, o2 = eng.new_output(Kind.VGL), eng.new_output(Kind.VGH)
        eng.vgl(1.0, 0.7, 2.0, o1)
        eng.vgh(1.0, 0.7, 2.0, o2)
        trace = o2.hess("xx") + o2.hess("yy") + o2.hess("zz")
        np.testing.assert_allclose(o1.l, trace, atol=1e-10)

    def test_gradient_matches_finite_difference_of_v(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        out = eng.new_output(Kind.VGH)
        x, y, z = 0.9, 0.6, 1.3
        eng.vgh(x, y, z, out)
        eps = 1e-6
        vp, vm = eng.new_output(Kind.V), eng.new_output(Kind.V)
        eng.v(x + eps, y, z, vp)
        eng.v(x - eps, y, z, vm)
        fd = (vp.v - vm.v) / (2 * eps)
        np.testing.assert_allclose(out.gx, fd, atol=1e-6)

    def test_hessian_matches_finite_difference_of_gradient(
        self, small_grid, small_table
    ):
        eng = BsplineSoA(small_grid, small_table)
        out = eng.new_output(Kind.VGH)
        x, y, z = 1.1, 0.4, 0.9
        eng.vgh(x, y, z, out)
        eps = 1e-5
        gp, gm = eng.new_output(Kind.VGH), eng.new_output(Kind.VGH)
        eng.vgh(x, y + eps, z, gp)
        eng.vgh(x, y - eps, z, gm)
        fd_hxy = (gp.gx - gm.gx) / (2 * eps)
        np.testing.assert_allclose(out.hess("xy"), fd_hxy, atol=1e-4)

    def test_periodicity_of_all_outputs(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        o1, o2 = eng.new_output(Kind.VGH), eng.new_output(Kind.VGH)
        lx, ly, lz = small_grid.lengths
        eng.vgh(0.7, 0.3, 1.1, o1)
        eng.vgh(0.7 + 2 * lx, 0.3 - ly, 1.1 + lz, o2)
        for field in ("v", "g", "l", "h"):
            np.testing.assert_allclose(
                o1.as_canonical()[field], o2.as_canonical()[field], atol=1e-10
            )


class TestCrossLayoutIdentity:
    def test_all_layouts_agree_on_random_positions(self, small_grid, small_table, rng):
        engines = [make_engine(n, small_grid, small_table) for n in
                   ("aos", "soa", "fused", "aosoa")]
        outs = [e.new_output(Kind.VGH) for e in engines]
        for pos in small_grid.random_positions(10, rng):
            canon = []
            for e, o in zip(engines, outs):
                e.vgh(*pos, o)
                canon.append(o.as_canonical())
            for c in canon[1:]:
                for field in ("v", "g", "l", "h"):
                    np.testing.assert_allclose(
                        c[field], canon[0][field], atol=1e-10
                    )

    def test_tiled_any_tile_size_agrees(self, small_grid, small_table):
        base = BsplineSoA(small_grid, small_table)
        out_base = base.new_output(Kind.VGH)
        base.vgh(*POSITIONS[0], out_base)
        ref = out_base.as_canonical()
        for nb in (1, 2, 3, 4, 6, 8, 12, 24):
            tiled = BsplineAoSoA(small_grid, small_table, nb)
            out = tiled.new_output(Kind.VGH)
            tiled.vgh(*POSITIONS[0], out)
            c = out.as_canonical()
            for field in ("v", "g", "l", "h"):
                np.testing.assert_allclose(c[field], ref[field], atol=1e-12)


class TestFloat32Precision:
    """Single precision (the paper's choice) must stay within SP accuracy."""

    @pytest.mark.parametrize("engine_name", ["aos", "soa", "fused"])
    def test_f32_close_to_f64_reference(
        self, engine_name, small_grid, small_table_f32
    ):
        eng = ENGINES[engine_name](small_grid, small_table_f32)
        out = eng.new_output(Kind.VGH)
        eng.vgh(*POSITIONS[0], out)
        ref = reference_vgh(
            small_grid, small_table_f32.astype(np.float64), *POSITIONS[0]
        )
        c = out.as_canonical()
        np.testing.assert_allclose(c["v"], ref[0], rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(c["g"], ref[1], rtol=1e-3, atol=1e-2)

    def test_f32_outputs_have_f32_dtype(self, small_grid, small_table_f32):
        eng = BsplineSoA(small_grid, small_table_f32)
        out = eng.new_output(Kind.VGH)
        eng.vgh(*POSITIONS[0], out)
        assert out.v.dtype == np.float32
        assert out.g.dtype == np.float32


class TestValidation:
    def test_engine_rejects_mismatched_grid(self, small_grid):
        bad = np.zeros((4, 4, 4, 8), dtype=np.float32)
        for cls in ENGINES.values():
            with pytest.raises(ValueError, match="does not match"):
                cls(small_grid, bad)

    def test_engine_rejects_3d_table(self, small_grid):
        with pytest.raises(ValueError, match="nx, ny, nz"):
            BsplineSoA(small_grid, np.zeros(small_grid.shape, dtype=np.float32))

    def test_new_output_rejects_unknown_kind(self, small_grid, small_table):
        eng = BsplineSoA(small_grid, small_table)
        with pytest.raises(ValueError, match="unknown kernel"):
            eng.new_output("vvv")

    def test_aosoa_rejects_nondivisor_tile(self, small_grid, small_table):
        with pytest.raises(ValueError, match="divide"):
            BsplineAoSoA(small_grid, small_table, 7)

    def test_aosoa_rejects_foreign_output(self, small_grid, small_table):
        eng8 = BsplineAoSoA(small_grid, small_table, 8)
        eng12 = BsplineAoSoA(small_grid, small_table, 12)
        out12 = eng12.new_output(Kind.V)
        with pytest.raises(ValueError, match="blocking"):
            eng8.v(0.1, 0.1, 0.1, out12)
