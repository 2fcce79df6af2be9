import dataclasses
import math

import numpy as np
import pytest

from ncwigner import (
    ComplexField2D,
    DimensionalConstants,
    Grid2D,
    GroupElement,
    default_state_grid,
    group_inverse,
    group_multiply,
    identity_element,
    make_orbit_label,
    uir_apply,
    uir_apply_ft,
)
from ncwigner.numerics import cont_ft_axis
from ncwigner.core import Grid1D
from ncwigner.oracles import random_hermite_gaussian


def elem_dist(g, h):
    return max(abs(g.theta - h.theta), abs(g.phi - h.phi), abs(g.psi - h.psi),
               abs(g.q[0] - h.q[0]), abs(g.q[1] - h.q[1]),
               abs(g.p[0] - h.p[0]), abs(g.p[1] - h.p[1]))


def random_element(rng, scale=2.0):
    v = scale * rng.standard_normal(7)
    return GroupElement(v[0], v[1], v[2], (v[3], v[4]), (v[5], v[6]))


class TestGroupLaw:
    def test_identity(self):
        g = GroupElement(1, 2, 3, (4, 5), (6, 7))
        assert group_multiply(identity_element(), g) == g
        assert group_multiply(g, identity_element()) == g

    def test_hand_evaluated_product(self):
        # theta picks up (alpha/2) q.p' = 1/2; the wedges vanish
        g = GroupElement(0, 0, 0, (1, 0), (0, 0))
        h = GroupElement(0, 0, 0, (0, 0), (1, 0))
        out = group_multiply(g, h)
        assert out == GroupElement(0.5, 0.0, 0.0, (1.0, 0.0), (1.0, 0.0))

    def test_orderings_differ_only_centrally(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g, h = random_element(rng), random_element(rng)
            gh = group_multiply(g, h)
            hg = group_multiply(h, g)
            assert gh.q == hg.q and gh.p == hg.p

    def test_associativity(self):
        rng = np.random.default_rng(1)
        consts = DimensionalConstants(1.0, 0.7, -1.3)
        worst = 0.0
        for _ in range(1000):
            g, h, k = (random_element(rng) for _ in range(3))
            left = group_multiply(g, group_multiply(h, k, consts), consts)
            right = group_multiply(group_multiply(g, h, consts), k, consts)
            worst = max(worst, elem_dist(left, right))
        assert worst <= 1e-12

    def test_center_commutes_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = GroupElement(*rng.standard_normal(3), (0.0, 0.0), (0.0, 0.0))
            g = random_element(rng)
            assert elem_dist(group_multiply(z, g), group_multiply(g, z)) == 0.0

    def test_inverse(self):
        g = GroupElement(0.3, -1.2, 0.8, (1.5, -0.4), (0.2, 2.2))
        assert group_inverse(identity_element()) == identity_element()
        assert elem_dist(group_multiply(g, group_inverse(g)), identity_element()) == 0.0
        assert elem_dist(group_multiply(group_inverse(g), g), identity_element()) == 0.0
        assert group_inverse(group_inverse(g)) == g


@pytest.fixture(scope="module")
def label():
    return make_orbit_label(1.0, -1.0, 1.0)


@pytest.fixture(scope="module")
def landau_field():
    rng = np.random.default_rng(3)
    return random_hermite_gaussian(rng, default_state_grid(128, 10.0),
                                   max_order=1, rep="landau")


@pytest.fixture(scope="module")
def momentum_field(landau_field):
    return landau_field.with_values(landau_field.values, "momentum")


def grid_element(rng, h):
    ints = rng.integers(-6, 7, size=4)
    cont = rng.standard_normal(3)
    return GroupElement(cont[0], cont[1], cont[2],
                        (ints[0] * h, ints[1] * h), (ints[2] * h, ints[3] * h))


class TestRepresentationActions:
    def test_identity_element_fixes_field(self, label, landau_field, momentum_field):
        out = uir_apply(identity_element(), landau_field, label)
        assert np.array_equal(out.values, landau_field.values)
        out = uir_apply_ft(identity_element(), momentum_field, label)
        assert np.array_equal(out.values, momentum_field.values)

    def test_central_element_is_phase(self, label, landau_field):
        g = GroupElement(theta=0.7)
        out = uir_apply(g, landau_field, label)
        expect = np.exp(1j * label.k1 * 0.7) * landau_field.values
        assert np.max(np.abs(out.values - expect)) == 0.0
        fmax = float(np.max(np.abs(landau_field.values)))
        assert np.max(np.abs(np.abs(out.values) - np.abs(landau_field.values))) <= 1e-15 * fmax

    def test_unitarity(self, label, landau_field):
        rng = np.random.default_rng(4)
        h = landau_field.grid.axis0.step
        for _ in range(10):
            g = grid_element(rng, h)
            out = uir_apply(g, landau_field, label)
            assert abs(out.norm() / landau_field.norm() - 1.0) <= 1e-12

    def test_homomorphism_both_actions(self, label, landau_field, momentum_field):
        rng = np.random.default_rng(5)
        h = landau_field.grid.axis0.step
        for apply_, field in ((uir_apply, landau_field), (uir_apply_ft, momentum_field)):
            fmax = float(np.max(np.abs(field.values)))
            for _ in range(10):
                g1, g2 = grid_element(rng, h), grid_element(rng, h)
                lhs = apply_(g1, apply_(g2, field, label), label)
                rhs = apply_(group_multiply(g1, g2, label.consts), field, label)
                assert float(np.max(np.abs(lhs.values - rhs.values))) / fmax <= 1e-10

    def test_inverse_action(self, label, landau_field):
        rng = np.random.default_rng(6)
        h = landau_field.grid.axis0.step
        fmax = float(np.max(np.abs(landau_field.values)))
        for _ in range(10):
            g = grid_element(rng, h)
            back = uir_apply(group_inverse(g), uir_apply(g, landau_field, label), label)
            assert float(np.max(np.abs(back.values - landau_field.values))) / fmax <= 1e-12

    def test_off_grid_shift_is_unitary(self, label, landau_field):
        g = GroupElement(q=(0.1234567, 0.0), p=(0.0, 0.0))
        out = uir_apply(g, landau_field, label)
        assert abs(out.norm() / landau_field.norm() - 1.0) <= 1e-10

    def test_mixed_shift_off_the_lattice(self):
        # constants (1, 0.7, -1.3) make the axis-0 offset p1 + (k3 g/(k1 a)) q2
        # of a lattice element with q2 != 0 fall between samples, while the
        # axis-1 offset p2 stays on the lattice: each axis picks its own shift
        label = make_orbit_label(1.0, -1.0, 1.0, DimensionalConstants(1.0, 0.7, -1.3))
        rng = np.random.default_rng(9)
        field = random_hermite_gaussian(rng, default_state_grid(128, 10.0),
                                        max_order=1, rep="momentum")
        h = field.grid.axis0.step
        fmax = float(np.max(np.abs(field.values)))
        for _ in range(10):
            g1, g2 = (dataclasses.replace(g, q=(g.q[0], g.q[1] or h))
                      for g in (grid_element(rng, h), grid_element(rng, h)))
            a1 = uir_apply_ft(g1, field, label)
            assert abs(a1.norm() / field.norm() - 1.0) <= 1e-12
            lhs = uir_apply_ft(g1, uir_apply_ft(g2, field, label), label)
            rhs = uir_apply_ft(group_multiply(g1, g2, label.consts), field, label)
            assert float(np.max(np.abs(lhs.values - rhs.values))) / fmax <= 1e-10
            back = uir_apply_ft(group_inverse(g1), a1, label)
            assert float(np.max(np.abs(back.values - field.values))) / fmax <= 1e-12

    @pytest.mark.parametrize("component", ["theta", "phi", "psi", "q1", "q2", "p1", "p2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_component_refused(self, label, landau_field, component, value):
        args = dict.fromkeys(("theta", "phi", "psi", "q1", "q2", "p1", "p2"), 0.0)
        args[component] = value
        with pytest.raises(ValueError, match=f"^group element component {component} must "
                           "be finite") as exc:
            GroupElement(args["theta"], args["phi"], args["psi"], (args["q1"], args["q2"]),
                         (args["p1"], args["p2"]))
        assert "\n" not in str(exc.value)
        # the UIR action used to end in int(inf) inside the lattice test
        with pytest.raises(ValueError, match="^group element component q1"):
            uir_apply(GroupElement(q=(value, 0.0)), landau_field, label)

    def test_rep_tags_enforced(self, label, landau_field, momentum_field):
        with pytest.raises(ValueError):
            uir_apply(identity_element(), momentum_field, label)
        with pytest.raises(ValueError):
            uir_apply_ft(identity_element(), landau_field, label)


class TestFourierIntertwining:
    """The two actions are exchanged by the scaled partial Fourier transform
    in the first coordinate combined with complex conjugation.

    With F the (k1 alpha)-scaled transform of coordinate 0 and C pointwise
    conjugation:  F [U(g) f] = C Uhat(g) C [F f].  A plain (conjugation-free)
    intertwining is impossible: the central characters of the two actions
    are complex conjugates of each other, which the last assertion pins.
    """

    @staticmethod
    def _scaled_ft_axis0(field, a):
        F = cont_ft_axis(field, 0, -1)
        g0 = F.grid.axis0
        s0 = Grid1D(g0.n, g0.origin / a, g0.step / a)
        return ComplexField2D(Grid2D(s0, F.grid.axis1),
                              math.sqrt(a) * F.values, rep="momentum")

    def test_intertwining_with_conjugation(self, label, landau_field):
        rng = np.random.default_rng(7)
        a = label.k1 * label.consts.alpha
        Ff = self._scaled_ft_axis0(landau_field, a)
        fmax = float(np.max(np.abs(Ff.values)))
        for _ in range(5):
            g = grid_element(rng, landau_field.grid.axis0.step)
            lhs = self._scaled_ft_axis0(uir_apply(g, landau_field, label), a)
            conj_in = Ff.with_values(np.conj(Ff.values))
            rhs = np.conj(uir_apply_ft(g, conj_in, label).values)
            assert float(np.max(np.abs(lhs.values - rhs))) / fmax <= 1e-8

    def test_plain_intertwining_fails(self, label, landau_field):
        rng = np.random.default_rng(8)
        a = label.k1 * label.consts.alpha
        Ff = self._scaled_ft_axis0(landau_field, a)
        g = grid_element(rng, landau_field.grid.axis0.step)
        lhs = self._scaled_ft_axis0(uir_apply(g, landau_field, label), a)
        rhs = uir_apply_ft(g, Ff, label)
        rel = float(np.max(np.abs(lhs.values - rhs.values))
                    / np.max(np.abs(Ff.values)))
        assert rel > 1e-2  # conjugate central characters: not the same action
