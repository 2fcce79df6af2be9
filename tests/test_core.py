import ast
import importlib
import math
import pathlib
import pkgutil

import numpy as np
import pytest

import ncwigner
from ncwigner import (
    ComplexField2D,
    CoadjointPoint,
    DimensionalConstants,
    Grid1D,
    Grid2D,
    InvalidLabel,
    NCCoords,
    RankOneOperator,
    Sector,
    duflo_moore_constant,
    make_orbit_label,
    nc_params_from_label,
    nc_to_orbit,
    orbit_to_nc,
    plancherel_density,
)
from ncwigner.core import NC_COORDS, Domain4D, ORBIT_COORDS, OrbitLabel, WignerField, orbit_domain
from ncwigner.numerics import conjugate_grid
from ncwigner.starprod import MarginalField


class TestOrbitLabel:
    def test_sector_classification(self):
        assert make_orbit_label(1, 0, 0).sector is Sector.SIGMA_TAU_ZERO
        assert make_orbit_label(1, 1, 0).sector is Sector.TAU_ZERO
        lab = make_orbit_label(1, -1, 1)
        assert lab.sector is Sector.GENERIC
        assert lab.discriminant == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidLabel, match="degenerate"):
            make_orbit_label(1, 1, 1)

    def test_k1_zero_rejected(self):
        with pytest.raises(InvalidLabel):
            make_orbit_label(0.0, 1, 1)

    def test_uncovered_zero_pattern_rejected(self):
        with pytest.raises(InvalidLabel):
            make_orbit_label(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("k1, k2, k3, alpha", [
        (1e300, -1.0, 1.0, 1.0),    # (k1 alpha)^2 overflows
        (1e300, 0.0, 0.0, 1.0),
        (1e-300, -1.0, 1.0, 1.0),   # (k1 alpha)^2 underflows to 0
        (1.0, -1.0, 1.0, 1e-300),
        (1e160, 1.0, 0.0, 1e-160),  # k1^2 overflows although k1 alpha = 1
        (1.0, 1e300, -1e300, 1.0),  # the discriminant overflows
    ])
    def test_out_of_float_range_rejected(self, k1, k2, k3, alpha):
        with pytest.raises(InvalidLabel):
            make_orbit_label(k1, k2, k3, DimensionalConstants(alpha=alpha))

    def test_constants_validated(self):
        with pytest.raises(InvalidLabel):
            DimensionalConstants(alpha=0.0)

    def test_classification_total_and_exclusive(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            k1 = rng.uniform(0.5, 2.0)
            k2 = rng.choice([0.0, rng.uniform(-2, 2) or 0.3])
            k3 = 0.0 if k2 == 0.0 else rng.uniform(-2, 2)
            try:
                lab = make_orbit_label(k1, k2, k3)
            except InvalidLabel:
                continue
            seen.add(lab.sector)
            # exclusivity: the sector determines the zero pattern
            if lab.sector is Sector.GENERIC:
                assert lab.k2 != 0 and lab.k3 != 0
            elif lab.sector is Sector.TAU_ZERO:
                assert lab.k2 != 0 and lab.k3 == 0
            else:
                assert lab.k2 == 0 and lab.k3 == 0
        assert seen  # at least one sector reached


class TestNCParams:
    def test_examples(self):
        p = nc_params_from_label(make_orbit_label(1, 0, 0))
        assert (p.hbar, p.vartheta, p.bfield) == (1.0, 0.0, 0.0)
        # (1, -1, -1) sits on the degenerate surface and is not constructible;
        # the nearest valid labels exercise the same sign pattern
        p = nc_params_from_label(make_orbit_label(1, -1, -2))
        assert (p.hbar, p.vartheta, p.bfield) == (1.0, 1.0, 2.0)
        p = nc_params_from_label(
            make_orbit_label(2, 1, 0, DimensionalConstants(1.0, 2.0, 1.0)))
        assert (p.hbar, p.vartheta, p.bfield) == (0.5, -0.5, 0.0)

    def test_determinant_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k1 = rng.uniform(0.5, 3)
            k2 = rng.uniform(-2, 2) or 0.7
            k3 = rng.uniform(-2, 2) or -0.4
            consts = DimensionalConstants(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                                          rng.uniform(0.5, 2))
            try:
                lab = make_orbit_label(k1, k2, k3, consts)
            except InvalidLabel:
                continue
            p = nc_params_from_label(lab)
            lhs = p.hbar ** 2 - p.bfield * p.vartheta
            rhs = lab.discriminant / (lab.k1 * consts.alpha) ** 4
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestCoordinateMaps:
    def test_identity_when_commutative(self):
        lab = make_orbit_label(1, 0, 0)
        pt = CoadjointPoint(0.3, -1.2, 0.7, 2.0)
        nc = orbit_to_nc(pt, lab)
        assert nc.as_array() == pytest.approx(pt.as_array(), abs=0)

    def test_zero_point(self, generic_label):
        nc = orbit_to_nc(CoadjointPoint(0, 0, 0, 0), generic_label)
        assert nc.as_array() == pytest.approx([0, 0, 0, 0], abs=0)

    def test_hand_evaluated_point(self):
        # k = (1, 1, -1), alpha = beta = gamma = 1, discriminant 1 - (1)(-1) = 2
        # q1 = (1*1 - 1*1*1*1)/2 = 0, q2 = 0, p1 = 0,
        # p2 = (1*1 - 1*1*(-1)*1)/2 = (1 + 1)/2 = 1
        lab = make_orbit_label(1, 1, -1)
        assert lab.discriminant == 2.0
        nc = orbit_to_nc(CoadjointPoint(1, 0, 0, 1), lab)
        assert nc.as_array() == pytest.approx([0, 0, 0, 1], abs=1e-15)
        back = nc_to_orbit(NCCoords((0, 0), (0, 1)), lab)
        assert back.as_array() == pytest.approx([1, 0, 0, 1], abs=1e-15)

    def test_round_trip(self, generic_label):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pt = CoadjointPoint(*rng.uniform(-5, 5, 4))
            back = nc_to_orbit(orbit_to_nc(pt, generic_label), generic_label)
            assert back.as_array() == pytest.approx(pt.as_array(), rel=1e-12, abs=1e-12)

    def test_linearity(self, generic_label):
        rng = np.random.default_rng(3)
        a = CoadjointPoint(*rng.uniform(-2, 2, 4))
        b = CoadjointPoint(*rng.uniform(-2, 2, 4))
        s = CoadjointPoint(*(a.as_array() + 2.0 * b.as_array()))
        lhs = orbit_to_nc(s, generic_label).as_array()
        rhs = orbit_to_nc(a, generic_label).as_array() \
            + 2.0 * orbit_to_nc(b, generic_label).as_array()
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestConstants:
    def test_plancherel_examples(self):
        assert plancherel_density(make_orbit_label(2, 1, 1)) == pytest.approx(3.0)
        assert plancherel_density(make_orbit_label(3, 1, 0)) == pytest.approx(9.0)
        assert plancherel_density(make_orbit_label(1, 0, 0)) == pytest.approx(1.0)

    def test_plancherel_reciprocal_identity(self, generic_label):
        d = plancherel_density(generic_label)
        assert d * (generic_label.consts.alpha ** 2 / generic_label.abs_discriminant) == 1.0

    def test_duflo_moore_values(self):
        two_pi = 2.0 * math.pi
        assert duflo_moore_constant(make_orbit_label(1, -1, 1)) == pytest.approx(two_pi ** 2.5)
        assert duflo_moore_constant(make_orbit_label(1, 1, 0)) == pytest.approx(two_pi ** 2)
        assert duflo_moore_constant(make_orbit_label(1, 0, 0)) == pytest.approx(two_pi ** 1.5)
        # numeric spot checks
        assert duflo_moore_constant(make_orbit_label(1, -1, 1)) == pytest.approx(98.9576, abs=1e-3)
        assert duflo_moore_constant(make_orbit_label(1, 1, 0)) == pytest.approx(39.4784, abs=1e-3)
        assert duflo_moore_constant(make_orbit_label(1, 0, 0)) == pytest.approx(15.7496, abs=1e-3)


class TestFieldTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1, 0.0, 0.1)
        with pytest.raises(ValueError):
            Grid1D(8, 0.0, 0.0)

    def test_grid_needs_whole_n(self):
        with pytest.raises(ValueError, match=r"^grid needs a whole n >= 2, got 4\.5$"):
            Grid1D(4.5, -1.0, 0.5)
        g = Grid1D(np.int64(4), -1.0, 0.5)
        assert g.coords().shape == (4,) and conjugate_grid(g).n == 4

    def test_package_names_match_all(self):
        # every name the package imports from a module is in its __all__,
        # and every __all__ name resolves
        for node in ast.parse(pathlib.Path(ncwigner.__file__).read_text()).body:
            if isinstance(node, ast.ImportFrom):
                mod = importlib.import_module(f"ncwigner.{node.module}")
                assert {a.name for a in node.names} <= set(mod.__all__), node.module
        for info in pkgutil.iter_modules(ncwigner.__path__):
            mod = importlib.import_module(f"ncwigner.{info.name}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"{info.name}.{name}"

    def test_field_shape_checked(self):
        g = Grid2D.square(8, 2.0)
        with pytest.raises(ValueError):
            ComplexField2D(g, np.zeros((8, 4)))

    def test_field_finite_checked(self):
        g = Grid2D.square(8, 2.0)
        vals = np.zeros((8, 8), dtype=complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            ComplexField2D(g, vals)

    def test_rank_one_grid_mismatch(self):
        a = ComplexField2D(Grid2D.square(8, 2.0), np.zeros((8, 8)))
        b = ComplexField2D(Grid2D.square(8, 3.0), np.zeros((8, 8)))
        with pytest.raises(ValueError):
            RankOneOperator(ket=a, bra=b)

    def test_field_values_immutable(self):
        f = ComplexField2D(Grid2D.square(8, 2.0), np.zeros((8, 8)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_wigner_field_copies_caller_array(self):
        g = Grid1D.symmetric(4, 1.0)
        vals = np.arange(256, dtype=complex).reshape(4, 4, 4, 4)
        w = WignerField(orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g), vals)
        vals[0, 0, 0, 0] = -1.0
        assert w.values[0, 0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            w.values[0, 0, 0, 0] = 1.0


class TestDomain:
    def test_build_and_points(self):
        g = Grid1D.symmetric(4, 2.0)
        dom = orbit_domain(k1s=g, k2s=0.5, k3s=g, k4s=-1.0)
        assert dom.varying == ("k1s", "k3s")
        pts = dom.points()
        assert pts.shape == (16, 4)
        assert np.all(pts[:, 1] == 0.5)
        assert np.all(pts[:, 3] == -1.0)

    def test_rejects_unknown_names(self):
        g = Grid1D.symmetric(4, 2.0)
        with pytest.raises(ValueError):
            Domain4D.build(ORBIT_COORDS, k1s=g, k2s=g, k3s=g, bogus=0.0)

    def test_rejects_wrong_count(self):
        g = Grid1D.symmetric(4, 2.0)
        with pytest.raises(ValueError):
            orbit_domain(k1s=g, k2s=g, k3s=g, k4s=0.0)


# Each public value type validates and freezes in its own constructor; every
# case below reaches the constructor directly, past any factory.
def mistagged_label():
    consts = DimensionalConstants()
    assert OrbitLabel(1.0, 0.0, 0.0, consts).sector is Sector.SIGMA_TAU_ZERO
    with pytest.raises(TypeError):
        OrbitLabel(1.0, 0.0, 0.0, consts, Sector.GENERIC)


def label_with_k1_zero():
    with pytest.raises(InvalidLabel, match="k1 must be nonzero"):
        OrbitLabel(0.0, 1.0, 1.0, DimensionalConstants())


def domain_missing_its_fixed_coordinates():
    g = Grid1D.symmetric(4, 1.0)
    with pytest.raises(ValueError, match=r"missing coordinates \['p1nc', 'p2nc'\]"):
        Domain4D(NC_COORDS, ("q1nc", "q2nc"), (g, g), ())


def marginal_copied_and_frozen():
    vals = np.ones((4, 4))
    m = MarginalField(Grid2D.square(4, 1.0), vals, "pnc", 0.0)
    assert not np.shares_memory(m.values, vals)
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def _pair(kind):
    """Two distinct holders of kind with equal values."""
    g = Grid1D.symmetric(4, 1.0)
    if kind == "ComplexField2D":
        f = ComplexField2D(Grid2D(g, g), np.ones((4, 4)))
        return f, f.with_values(f.values)
    if kind == "WignerField":
        dom = orbit_domain(k1s=g, k2s=g, k3s=0.0, k4s=0.0)
        return WignerField(dom, np.ones((4, 4))), WignerField(dom, np.ones((4, 4)))
    return tuple(MarginalField(Grid2D(g, g), np.ones((4, 4)), "pnc", 0.0) for _ in range(2))


def _identity_equality(kind):
    def case():
        a, b = _pair(kind)
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        if kind == "ComplexField2D":
            assert RankOneOperator(a, b) == RankOneOperator(a, b)
            assert RankOneOperator(a, b) != RankOneOperator(b, a)
    case.__name__ = f"{kind}_compares_by_identity"
    return case


@pytest.mark.parametrize("case", [
    mistagged_label, label_with_k1_zero, domain_missing_its_fixed_coordinates,
    marginal_copied_and_frozen,
    *map(_identity_equality, ("ComplexField2D", "WignerField", "MarginalField")),
], ids=lambda case: case.__name__)
def test_raw_constructor_validates_and_freezes(case):
    case()


def test_adopt_takes_the_array_without_a_copy():
    g = Grid1D.symmetric(4, 1.0)
    vals = np.ones((4, 4), dtype=complex)
    w = WignerField._adopt(orbit_domain(k1s=g, k2s=g, k3s=0.0, k4s=0.0), vals)
    assert np.shares_memory(w.values, vals) and not w.values.flags.writeable


@pytest.mark.parametrize("varying, grids, fixed, match", [
    pytest.param(("k2s", "k1s"), None, (("k3s", 0.0), ("k4s", 0.0)), "in that order",
                 id="out_of_order"),
    pytest.param(("k1s", "k2s"), None, (("k2s", 0.0), ("k3s", 0.0), ("k4s", 0.0)), "once",
                 id="twice"),
    pytest.param(("k1s", "k2s"), (1.0, 2.0), (("k3s", 0.0), ("k4s", 0.0)), "Grid1D",
                 id="not_a_grid"),
    pytest.param(("k1s", "k2s"), None, (("k3s", 0.0), ("k4s", math.inf)),
                 "k4s must be finite", id="not_finite"),
    pytest.param(("k1s",), None, (("k2s", 0.0), ("k3s", 0.0), ("k4s", 0.0)),
                 "exactly two or four", id="one_varying"),
])
def test_raw_domain_refuses_partitions_build_cannot_make(varying, grids, fixed, match):
    grids = grids or (Grid1D.symmetric(4, 1.0),) * len(varying)
    with pytest.raises(ValueError, match=match):
        Domain4D(ORBIT_COORDS, varying, grids, fixed)
