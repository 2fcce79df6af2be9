import math

import numpy as np
import pytest

from ncwigner import (
    CoadjointPoint,
    Grid1D,
    RankOneOperator,
    VerifyConfig,
    default_state_grid,
    direct_wigner_oracle,
    expected_isometry_constant,
    gaussian_state,
    integrate_2d,
    isometry_ratio,
    make_orbit_label,
    momentum_representation,
    random_hermite_gaussian,
    run_verification_suite,
    wigner_generic,
)
from ncwigner.core import Grid2D, orbit_domain
from ncwigner.oracles import gaussian_state_momentum

from conftest import sup_rel


class TestGaussianStates:
    def test_ground_state_samples(self, state_grid):
        psi = gaussian_state(state_grid)
        x0, x1 = state_grid.meshgrid()
        expect = math.pi ** -0.5 * np.exp(-(x0 ** 2 + x1 ** 2) / 2)
        assert np.max(np.abs(psi.values - expect)) <= 1e-14

    def test_quadrature_norm(self, state_grid):
        for hermite in ((0, 0), (2, 1), (3, 3)):
            psi = gaussian_state(state_grid, hermite=hermite,
                                 center=(0.5, -0.3, 1.0, 0.7))
            dens = psi.with_values(np.abs(psi.values) ** 2)
            assert integrate_2d(dens).real == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self, state_grid):
        a = gaussian_state(state_grid, hermite=(1, 0))
        b = gaussian_state(state_grid, hermite=(0, 0))
        h = state_grid.axis0.step * state_grid.axis1.step
        overlap = h * np.sum(np.conj(a.values) * b.values)
        assert abs(overlap) <= 1e-10

    def test_momentum_form_matches_transform(self, state_grid):
        for scale in (1.0, 2.0, -1.5):
            psi = gaussian_state(state_grid, hermite=(1, 2),
                                 center=(0.4, -0.2, 0.6, -1.0))
            num = momentum_representation(psi, scale)
            ana = gaussian_state_momentum(num.grid, scale, hermite=(1, 2),
                                          center=(0.4, -0.2, 0.6, -1.0))
            assert np.max(np.abs(num.values - ana.values)) <= 1e-12

    def test_random_state_normalised(self, state_grid):
        rng = np.random.default_rng(0)
        f = random_hermite_gaussian(rng, state_grid)
        assert f.norm() == pytest.approx(1.0, abs=1e-12)


class TestDirectOracle:
    def test_zero_state(self, generic_label, state_grid):
        z = gaussian_state(state_grid, rep="momentum")
        z = z.with_values(np.zeros(state_grid.shape))
        op = RankOneOperator(ket=z, bra=z)
        assert direct_wigner_oracle(op, CoadjointPoint(0.3, -0.2, 0.1, 0.4),
                                    generic_label) == 0

    def test_agreement_with_fast_path(self, generic_label, gauss_op):
        pt = CoadjointPoint(0, 0, 0, 0)
        slow = direct_wigner_oracle(gauss_op, pt, generic_label)
        fast = wigner_generic(gauss_op, [pt], generic_label)[0]
        assert abs(fast - slow) <= 1e-8 * abs(slow)

    def test_convergence_under_state_refinement(self, generic_label):
        vals = []
        for n in (128, 256):
            psi = gaussian_state(default_state_grid(n, 10.0))
            phat = momentum_representation(psi, 1.0)
            op = RankOneOperator(ket=phat, bra=phat)
            vals.append(direct_wigner_oracle(op, CoadjointPoint(0.5, -0.25, 0.25, 0.5),
                                             generic_label))
        assert abs(vals[1] - vals[0]) <= 1e-9 * abs(vals[1])

    def test_interpolating_quadrature_close(self, generic_label, gauss_op):
        # substep 2 forces genuine bilinear interpolation at cell midpoints;
        # its O(step^2) bias bounds the achievable accuracy here
        pt = CoadjointPoint(0.4, 0.3, -0.2, 0.1)
        exact = direct_wigner_oracle(gauss_op, pt, generic_label)
        interp = direct_wigner_oracle(gauss_op, pt, generic_label, substep=2)
        assert abs(interp - exact) <= 1e-2 * abs(exact)

    def test_sector_dispatch(self, gauss_op):
        # prefactor ratio between sectors at the same point
        pt = CoadjointPoint(0, 0, 0, 0)
        v_tau = direct_wigner_oracle(gauss_op, pt, make_orbit_label(1, 1e-12, 0))
        v_qm = direct_wigner_oracle(gauss_op, pt, make_orbit_label(1, 0, 0))
        assert v_tau / v_qm == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)


class TestIsometryRatio:
    def _ops(self, n=3, seed=1):
        rng = np.random.default_rng(seed)
        grid = default_state_grid(96, 10.0)
        return [RankOneOperator(random_hermite_gaussian(rng, grid, rep="momentum"),
                                random_hermite_gaussian(rng, grid, rep="momentum"))
                for _ in range(n)]

    def test_identical_operators_zero_spread(self, generic_label):
        op = self._ops(1)[0]
        rep = isometry_ratio([op, op], generic_label)
        assert rep.metric == 0.0
        assert rep.passed

    def test_scaling_invariance(self, generic_label):
        op = self._ops(1)[0]
        scaled = RankOneOperator(op.ket.with_values(2.0 * op.ket.values), op.bra)
        rep = isometry_ratio([op, scaled], generic_label)
        assert rep.metric <= 1e-12

    def test_constant_matches_documented_value(self):
        ops = self._ops(5, seed=2)
        for label in (make_orbit_label(1, -1, 1), make_orbit_label(1, 1, 0),
                      make_orbit_label(1, 0, 0)):
            rep = isometry_ratio(ops, label)
            assert rep.passed, rep
            mean = float(dict(rep.details)["mean_ratio"])
            assert mean == pytest.approx(expected_isometry_constant(label), rel=1e-3)

    def test_alpha_dependence(self):
        # the constant scales as 1/alpha^2
        from ncwigner.core import DimensionalConstants

        ops = self._ops(2, seed=3)
        label = make_orbit_label(1, -1, 1, DimensionalConstants(2.0, 1.0, 1.0))
        rep = isometry_ratio(ops, label)
        mean = float(dict(rep.details)["mean_ratio"])
        assert mean == pytest.approx(0.25, rel=1e-3)

    def test_reduction_validated_against_raw_4d(self, generic_label):
        # one-off validation of the Parseval reduction at 16^4 on a nearly
        # tail-free Gaussian pair
        grid = default_state_grid(96, 10.0)
        psi = gaussian_state(grid)
        phat = momentum_representation(psi, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        rep = isometry_ratio([op, op], generic_label, stride=2)
        mean = float(dict(rep.details)["mean_ratio"])
        g = Grid1D.symmetric(16, 4.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        w = wigner_generic(op, dom, generic_label)
        total = np.abs(w.values) ** 2
        for gax in reversed(dom.grids):
            wt = np.full(gax.n, gax.step)
            wt[0] *= 0.5
            wt[-1] *= 0.5
            total = np.tensordot(total, wt, axes=([total.ndim - 1], [0]))
        raw = float(total) / (phat.norm() ** 2 * phat.norm() ** 2)
        # a 16^4 trapezoid carries its own ~1e-5 discretisation error; this
        # check pins the reduction's measure factors, not ultimate precision
        assert raw == pytest.approx(mean, rel=1e-4)

    def test_needs_two_operators(self, generic_label):
        with pytest.raises(ValueError):
            isometry_ratio(self._ops(1), generic_label)


class TestVerificationSuite:
    def test_empty_selection(self):
        assert run_verification_suite(VerifyConfig(suites=())) == []

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_verification_suite(VerifyConfig(suites=("bogus",)))

    def test_seeded_rerun_bitwise_identical(self):
        cfg = VerifyConfig(suites=("group_associativity", "qm_limit"), seed=7)
        a = run_verification_suite(cfg)
        b = run_verification_suite(cfg)
        assert [r.metric for r in a] == [r.metric for r in b]
        assert [(r.name, r.passed, r.details) for r in a] \
            == [(r.name, r.passed, r.details) for r in b]

    def test_reports_pass(self):
        reports = run_verification_suite(VerifyConfig(suites=("wigner_symmetries",)))
        assert reports and all(r.passed for r in reports)
        for r in reports:
            assert r.passed == (r.metric <= r.tolerance)
