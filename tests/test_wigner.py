import copy
import dataclasses
import inspect
import math
import os
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ncwigner import (
    CoadjointPoint,
    GridTooCoarse,
    GridTooLarge,
    NCCoords,
    RankOneOperator,
    SectorMismatch,
    TAU0_TO_QM_PREFACTOR_RATIO,
    cross_wigner_standard,
    default_state_grid,
    gaussian_state,
    make_orbit_label,
    momentum_representation,
    nc_params_from_label,
    nc_to_orbit,
    qm_limit_check,
    wigner_generic,
    wigner_nc,
    wigner_nc_params,
    wigner_nc_position,
    wigner_qm_orbit,
    wigner_tau0,
)
from ncwigner.core import (NC_COORDS, ORBIT_COORDS, PHASE_COORDS, ComplexField2D, Domain4D,
                           Grid1D, Grid2D, NCParams, nc_domain, orbit_domain, orbit_to_nc,
                           phase_space_domain)
from ncwigner import core, numerics, wigner
from ncwigner.numerics import _axis_shift, _axis_shifter
from ncwigner.oracles import direct_wigner_oracle, random_hermite_gaussian
from ncwigner.wigner import (
    aligned_center_grid,
    aligned_frequency_grid,
    orbit_from_wave_coords,
)

from conftest import sup_rel


def count_fft_calls(monkeypatch):
    """List that gains one entry per lattice FFT the engine takes."""
    calls = []
    lattice_fft = wigner._lattice_fft

    def counted(*args, **kwargs):
        calls.append(1)
        return lattice_fft(*args, **kwargs)
    monkeypatch.setattr(wigner, "_lattice_fft", counted)
    return calls


def engine_paths(monkeypatch, evaluate):
    """evaluate() with every centre group on the contraction
    (_FFT_MIN_POINTS = inf), then with every aligned group on the FFT
    (_FFT_MIN_POINTS = 0); checks that the FFT ran in the second pass only."""
    calls = count_fft_calls(monkeypatch)
    values = []
    for least in (math.inf, 0):
        monkeypatch.setattr(wigner, "_FFT_MIN_POINTS", least)
        calls.clear()
        values.append(evaluate())
        assert bool(calls) == (least == 0)
    return values


def not_allocated(*args, **kwargs):
    raise AssertionError("an array was allocated before the byte budget check")


def zero_op(grid):
    z = gaussian_state(grid, rep="momentum").with_values(np.zeros(grid.shape))
    return RankOneOperator(ket=z, bra=z)


def aligned_points(rng, label, field, count):
    g0 = field.grid.axis0
    a = label.k1 * label.consts.alpha
    dk = 2.0 * math.pi / (g0.n * g0.step)
    rows = []
    for _ in range(count):
        m0, m1 = rng.integers(-20, 21, size=2)
        j0, j1 = rng.integers(-10, 11, size=2)
        rows.append(orbit_from_wave_coords(
            label, m0 * dk / (2 * a), m1 * dk / (2 * a),
            j0 * g0.step, j1 * g0.step).as_array())
    return np.asarray(rows)


class TestWignerGeneric:
    def test_zero_operator(self, generic_label, state_grid):
        pts = [CoadjointPoint(0, 0, 0, 0), CoadjointPoint(1, -1, 0.5, 0.2)]
        vals = wigner_generic(zero_op(state_grid), pts, generic_label)
        assert np.all(vals == 0)

    def test_diagonal_reality(self, generic_label, gauss_op):
        g = Grid1D.symmetric(16, 2.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=0.0, k4s=0.0)
        w = wigner_generic(gauss_op, dom, generic_label)
        assert np.max(np.abs(w.values.imag)) <= 1e-10 * np.max(np.abs(w.values))

    def test_origin_value_against_oracle_and_closed_form(self, generic_label, gauss_op):
        # for the unit Gaussian the integral at the orbit origin is 4, so
        # W(0) = 4 / (2 pi sqrt(2)) = sqrt(2)/pi
        pt = CoadjointPoint(0, 0, 0, 0)
        fast = wigner_generic(gauss_op, [pt], generic_label)[0]
        slow = direct_wigner_oracle(gauss_op, pt, generic_label)
        assert abs(fast - slow) <= 1e-8 * abs(slow)
        assert fast.real == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-12)

    def test_sector_checked(self, gauss_op):
        with pytest.raises(SectorMismatch):
            wigner_generic(gauss_op, [CoadjointPoint(0, 0, 0, 0)],
                           make_orbit_label(1, 0, 0))

    def test_rep_tag_checked(self, generic_label, gauss_position):
        op = RankOneOperator(ket=gauss_position, bra=gauss_position)
        with pytest.raises(ValueError):
            wigner_generic(op, [CoadjointPoint(0, 0, 0, 0)], generic_label)

    def test_methods_agree(self, generic_label, gauss_op, monkeypatch):
        rng = np.random.default_rng(10)
        pts = aligned_points(rng, generic_label, gauss_op.ket, 64)
        d, f = engine_paths(monkeypatch, lambda: wigner_generic(gauss_op, pts, generic_label))
        assert sup_rel(d, f) <= 1e-10

    def test_nyquist_guard(self, generic_label, gauss_op):
        hs = gauss_op.ket.grid.axis0.step
        big = 1.2 * math.pi / hs
        # (K, 0, 0, K) keeps the integrand centre at the origin (mass present)
        # while the phase frequency exceeds the conjugate band
        with pytest.raises(GridTooCoarse):
            wigner_generic(gauss_op, [CoadjointPoint(big, 0, 0, big)],
                           generic_label)

    def test_tail_groups_return_zero_without_guard(self, generic_label, gauss_op):
        # same overlarge frequency, but the centre pushes the integrand off
        # its support: the group carries no mass and integrates to zero
        hs = gauss_op.ket.grid.axis0.step
        big = 1.2 * math.pi / hs
        vals = wigner_generic(gauss_op, [CoadjointPoint(2 * big, 0, 0, 0)],
                              generic_label)
        assert np.all(vals == 0)

    def test_full4d_cap(self, generic_label, gauss_op, monkeypatch):
        # no axis cap: a full 4D result is bounded by the byte budget alone,
        # checked before the result array exists
        g = Grid1D.symmetric(64, 2.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        need = 16 * 64 ** 4
        monkeypatch.setattr(core, "_MAX_BYTES", need - 1)
        monkeypatch.setattr(np, "empty", not_allocated)
        with pytest.raises(GridTooLarge, match=rf"^transform results this large need about "
                           rf"{need} bytes, above the limit of {need - 1} bytes$"):
            wigner_generic(gauss_op, dom, generic_label)

    def test_point_results_within_the_byte_budget(self, generic_label, gauss_op, monkeypatch):
        pts = np.zeros((1000, 4))
        monkeypatch.setattr(core, "_MAX_BYTES", 16 * 1000)
        assert wigner_generic(gauss_op, pts, generic_label).shape == (1000,)
        monkeypatch.setattr(core, "_MAX_BYTES", 16 * 1000 - 1)
        monkeypatch.setattr(np, "empty", not_allocated)
        with pytest.raises(GridTooLarge, match="need about 16000 bytes"):
            wigner_generic(gauss_op, pts, generic_label)


class TestWignerNC:
    def test_consistency_with_generic_route(self, generic_label, gauss_op):
        # native evaluation vs the coordinate-map route:
        # Wnc(q, p) = (|k1|^3 a^2 / 2 pi) * W(orbit point of (-k1 q, k1 p))
        qs = np.linspace(-1.5, 1.5, 4)
        ps = np.linspace(-1.2, 1.2, 4)
        pts = [NCCoords((q1, q2), (p1, p2))
               for q1 in qs for q2 in qs for p1 in ps for p2 in ps]
        native = wigner_nc(gauss_op, pts, generic_label)
        k1 = generic_label.k1
        pref = abs(k1) ** 3 * generic_label.consts.alpha ** 2 / (2 * math.pi)
        routed = []
        for m in pts:
            mm = NCCoords((-k1 * m.qnc[0], -k1 * m.qnc[1]),
                          (k1 * m.pnc[0], k1 * m.pnc[1]))
            routed.append(pref * wigner_generic(
                gauss_op, [nc_to_orbit(mm, generic_label)], generic_label)[0])
        assert sup_rel(native, np.asarray(routed)) <= 1e-8

    def test_diagonal_reality(self, generic_label, gauss_op):
        g = Grid1D.symmetric(12, 1.5)
        dom = nc_domain(q1nc=g, q2nc=g, p1nc=0.3, p2nc=-0.4)
        w = wigner_nc(gauss_op, dom, generic_label)
        assert np.max(np.abs(w.values.imag)) <= 1e-10 * np.max(np.abs(w.values))

    def test_total_integral(self, generic_label, gauss_op):
        # int Wnc d^2q d^2p = |k1 a| / sqrt|D| * ||psihat||^2
        phat = gauss_op.ket
        qg = aligned_frequency_grid(phat.grid.axis0, 1.0, 32, stride=4)
        pg = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        dom = nc_domain(q1nc=qg, q2nc=qg, p1nc=pg, p2nc=pg)
        w = wigner_nc(gauss_op, dom, generic_label)
        total = w.values
        for g in reversed(w.domain.grids):
            wt = np.full(g.n, g.step)
            wt[0] *= 0.5
            wt[-1] *= 0.5
            total = np.tensordot(total, wt, axes=([total.ndim - 1], [0]))
        expect = (abs(generic_label.k1 * generic_label.consts.alpha)
                  / math.sqrt(generic_label.abs_discriminant)) * phat.norm() ** 2
        assert abs(total.real - expect) <= 1e-6 * expect
        assert abs(total.imag) <= 1e-9


class TestWignerNCPosition:
    def test_zero_field(self, generic_label, state_grid):
        z = gaussian_state(state_grid).with_values(np.zeros(state_grid.shape))
        vals = wigner_nc_position(z, z, [NCCoords((0, 0), (0, 0))], generic_label)
        assert np.all(vals == 0)

    def test_matches_momentum_route(self, generic_label, gauss_position, gauss_op):
        g = aligned_frequency_grid(gauss_op.ket.grid.axis0, 1.0, 16, stride=2)
        dom = nc_domain(q1nc=g, q2nc=g, p1nc=0.25, p2nc=-0.5)
        via_mom = wigner_nc(gauss_op, dom, generic_label)
        via_pos = wigner_nc_position(gauss_position, gauss_position, dom, generic_label)
        assert sup_rel(via_pos.values, via_mom.values) <= 1e-8

    def test_momentum_marginal_identity(self, generic_label, gauss_position):
        # int Wnc d^2p = factor * |psi(q)|^2, both sides independent
        gpos = gauss_position.grid
        qout = aligned_center_grid(gpos.axis0, 16, stride=2)
        pint = Grid1D.symmetric(32, 5.0)
        dom = nc_domain(q1nc=qout, q2nc=qout, p1nc=pint, p2nc=pint)
        w = wigner_nc_position(gauss_position, gauss_position, dom, generic_label)
        wt = np.full(pint.n, pint.step)
        wt[0] *= 0.5
        wt[-1] *= 0.5
        marg = np.tensordot(np.tensordot(w.values, wt, axes=([3], [0])), wt,
                            axes=([2], [0])).real
        idx = np.round((qout.coords() - gpos.axis0.origin) / gpos.axis0.step).astype(int)
        factor = (abs(generic_label.k1 * generic_label.consts.alpha)
                  / math.sqrt(generic_label.abs_discriminant))
        rhs = factor * np.abs(gauss_position.values[np.ix_(idx, idx)]) ** 2
        assert np.max(np.abs(marg - rhs)) <= 1e-6 * np.max(rhs)


class TestWignerNCParams:
    def test_matches_position_route(self, generic_label, gauss_position):
        params = nc_params_from_label(generic_label)
        g = aligned_center_grid(gauss_position.grid.axis0, 12, stride=4)
        dom = orbit_domain(k1s=g, k2s=0.25, k3s=g, k4s=-0.5)
        via_params = wigner_nc_params(gauss_position, dom, params)
        pts = dom.points()
        mapped = np.array([orbit_to_nc(CoadjointPoint(*p), generic_label).as_array()
                           for p in pts])
        via_pos = wigner_nc_position(gauss_position, gauss_position, mapped,
                                     generic_label)
        assert sup_rel(via_params.values.ravel(), via_pos) <= 1e-8

    def test_commutative_point_is_standard_transform(self, gauss_position):
        # vartheta = bfield = 0, hbar = 1: the standard transform over
        # (k1*, k2*; k3*, k4*)
        from ncwigner.core import NCParams

        params = NCParams(hbar=1.0)
        g = Grid1D.symmetric(12, 1.5)
        dom = orbit_domain(k1s=g, k2s=g, k3s=0.4, k4s=-0.3)
        w = wigner_nc_params(gauss_position, dom, params)
        pts = dom.points()
        ref = cross_wigner_standard(gauss_position, gauss_position, pts,
                                    h=2 * math.pi)
        assert sup_rel(w.values.ravel(), ref) <= 1e-10

    def test_diagonal_reality(self, generic_label, gauss_position):
        params = nc_params_from_label(generic_label)
        g = Grid1D.symmetric(8, 1.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=0.0, k4s=0.0)
        w = wigner_nc_params(gauss_position, dom, params)
        assert np.max(np.abs(w.values.imag)) <= 1e-10 * np.max(np.abs(w.values))

    def test_degenerate_params_rejected(self, gauss_position):
        from ncwigner.core import DegenerateParams, NCParams

        params = NCParams(hbar=1.0, vartheta=2.0, bfield=0.5)
        with pytest.raises(DegenerateParams):
            wigner_nc_params(gauss_position, [CoadjointPoint(0, 0, 0, 0)], params)

    def test_methods_agree(self, generic_label, gauss_position, monkeypatch):
        # orbit points solved so that both phase frequencies sit on the
        # conjugate lattice and both centres on the state lattice
        params = nc_params_from_label(generic_label)
        e = params.det
        hb, th, bf = params.hbar, params.vartheta, params.bfield
        g0 = gauss_position.grid.axis0
        dk = 2.0 * math.pi / (g0.n * g0.step)
        rng = np.random.default_rng(11)
        sys = np.array([[hb ** 2, hb * th], [bf, hb]])
        rows = []
        for _ in range(40):
            m0, m1 = rng.integers(-12, 13, size=2)
            j0, j1 = rng.integers(-8, 9, size=2)
            c0 = j0 * g0.step
            w1 = m1 * dk / 2.0
            k1s, k4s = np.linalg.solve(sys, [e * c0, e * w1])
            rows.append([k1s, j1 * g0.step, m0 * dk / 2.0 * hb, k4s])
        pts = np.asarray(rows)
        d, f = engine_paths(monkeypatch, lambda: wigner_nc_params(gauss_position, pts, params))
        assert sup_rel(d, f) <= 1e-10


class TestSectorTransforms:
    def test_tau0_continuation_ratio(self, gauss_op):
        # the k2 -> 0 limit of the k3 = 0 transform exceeds the k2 = k3 = 0
        # transform by the ratio of the sector normalisations, sqrt(2 pi)
        lab_t = make_orbit_label(1.0, 1e-6, 0.0)
        lab_q = make_orbit_label(1.0, 0.0, 0.0)
        phat = gauss_op.ket
        k1sg = aligned_frequency_grid(phat.grid.axis0, 1.0, 16, stride=2)
        k3sg = aligned_center_grid(phat.grid.axis0, 16, stride=1)
        dom = orbit_domain(k1s=k1sg, k2s=0.3, k3s=k3sg, k4s=0.2)
        wt = wigner_tau0(gauss_op, dom, lab_t)
        wq = wigner_qm_orbit(gauss_op, dom, lab_q)
        assert sup_rel(wt.values, TAU0_TO_QM_PREFACTOR_RATIO * wq.values) <= 1e-5

    def test_tau0_zero_and_reality(self, gauss_op, state_grid):
        lab = make_orbit_label(1.0, 1.0, 0.0)
        assert np.all(wigner_tau0(zero_op(gauss_op.ket.grid), [CoadjointPoint(0, 0, 0, 0)], lab) == 0)
        g = Grid1D.symmetric(8, 1.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=0.0, k4s=0.0)
        w = wigner_tau0(gauss_op, dom, lab)
        assert np.max(np.abs(w.values.imag)) <= 1e-10 * np.max(np.abs(w.values))

    def test_tau0_sector_checked(self, gauss_op, generic_label):
        with pytest.raises(SectorMismatch):
            wigner_tau0(gauss_op, [CoadjointPoint(0, 0, 0, 0)], generic_label)

    def test_qm_matches_standard_transform(self, gauss_position):
        # Gaussian and first-excited states, mapped point by point
        lab = make_orbit_label(1.0, 0.0, 0.0)
        hbar = 1.0
        for hermite in ((0, 0), (1, 0)):
            psi = gaussian_state(gauss_position.grid, hermite=hermite)
            phat = momentum_representation(psi, 1.0)
            op = RankOneOperator(ket=phat, bra=phat)
            k1sg = aligned_frequency_grid(phat.grid.axis0, 1.0, 16, stride=2)
            k3sg = aligned_center_grid(phat.grid.axis0, 16, stride=1)
            dom = orbit_domain(k1s=k1sg, k2s=0.0, k3s=k3sg, k4s=0.0)
            w = wigner_qm_orbit(op, dom, lab)
            pts = dom.points()
            qp = np.stack([-pts[:, 0], -pts[:, 1], pts[:, 2], pts[:, 3]], axis=1)
            ref = cross_wigner_standard(psi, psi, qp, h=2 * math.pi * hbar)
            assert sup_rel(w.values.ravel(), (hbar ** 2 / 1.0) * ref) <= 1e-8

    def test_excited_state_negativity(self, state_grid):
        lab = make_orbit_label(1.0, 0.0, 0.0)
        psi = gaussian_state(state_grid, hermite=(1, 0))
        phat = momentum_representation(psi, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        g = aligned_frequency_grid(phat.grid.axis0, 1.0, 24, stride=2)
        c = aligned_center_grid(phat.grid.axis0, 24, stride=1)
        dom = orbit_domain(k1s=g, k2s=0.0, k3s=c, k4s=0.0)
        w = wigner_qm_orbit(op, dom, lab).values.real
        assert w.min() < -1e-3 * w.max()


class TestCrossWignerStandard:
    @pytest.mark.parametrize("h", [0.0, math.inf, math.nan, 1e-320, 1e-160, 1e200])
    def test_h_squared_must_be_a_normal_float(self, state_grid, h):
        # h^2 underflows to 0 or a subnormal (1/h^2 overflows), or overflows
        psi = gaussian_state(state_grid)
        with pytest.raises(ValueError, match="h must be finite and nonzero"):
            cross_wigner_standard(psi, psi, np.zeros((1, 4)), h=h)

    def test_marginal_and_orthogonality(self, state_grid):
        psi = gaussian_state(state_grid)
        # sum over an aligned p grid recovers |psi(q)|^2
        qg = aligned_center_grid(state_grid.axis0, 12, stride=4)
        pg = Grid1D.symmetric(48, 6.0)
        from ncwigner.core import phase_space_domain

        dom = phase_space_domain(q1=qg, q2=qg, p1=pg, p2=pg)
        w = cross_wigner_standard(psi, psi, dom, h=2 * math.pi)
        wt = np.full(pg.n, pg.step)
        wt[0] *= 0.5
        wt[-1] *= 0.5
        marg = np.tensordot(np.tensordot(w.values, wt, axes=([3], [0])), wt,
                            axes=([2], [0])).real
        idx = np.round((qg.coords() - state_grid.axis0.origin)
                       / state_grid.axis0.step).astype(int)
        rhs = np.abs(psi.values[np.ix_(idx, idx)]) ** 2
        assert np.max(np.abs(marg - rhs)) <= 1e-8 * np.max(rhs)

    def test_orthogonal_states_integrate_to_zero(self, state_grid):
        psi = gaussian_state(state_grid)
        phi = gaussian_state(state_grid, hermite=(1, 0))
        qg = Grid1D.symmetric(32, 5.0)
        pg = Grid1D.symmetric(32, 5.0)
        from ncwigner.core import phase_space_domain

        dom = phase_space_domain(q1=qg, q2=qg, p1=pg, p2=pg)
        w = cross_wigner_standard(phi, psi, dom, h=2 * math.pi)
        total = w.values
        for g in reversed(dom.grids):
            wt = np.full(g.n, g.step)
            wt[0] *= 0.5
            wt[-1] *= 0.5
            total = np.tensordot(total, wt, axes=([total.ndim - 1], [0]))
        assert abs(total) <= 1e-8

    def test_zero_field(self, state_grid):
        z = gaussian_state(state_grid).with_values(np.zeros(state_grid.shape))
        assert np.all(cross_wigner_standard(z, z, [(0, 0, 0, 0)], 2 * math.pi) == 0)


class TestQMLimit:
    def _probe(self):
        qv = np.linspace(-1.5, 1.5, 4)
        pv = np.linspace(-1.0, 1.0, 3)
        return np.array([[q1, q2, p1, p2] for q1 in qv for q2 in qv
                         for p1 in pv for p2 in pv])

    def test_decreasing_sequence(self, state_grid):
        psi = gaussian_state(state_grid)
        labels = [make_orbit_label(1.0, 0.25 * 2.0 ** -m, 0.25 * 2.0 ** -m)
                  for m in range(5)]
        d = qm_limit_check(psi, labels, self._probe())
        assert np.all(np.diff(d) < 0)
        assert d[-1] < 1e-3

    def test_commutative_labels_give_zero_distance(self, state_grid):
        # the reference itself is the k2 = k3 = 0 transform: tiny k2 k3
        # leaves only quadrature noise
        psi = gaussian_state(state_grid)
        labels = [make_orbit_label(1.0, 1e-9, 1e-9)]
        d = qm_limit_check(psi, labels, self._probe())
        assert d[0] < 1e-8

    def test_zero_state(self, state_grid):
        z = gaussian_state(state_grid).with_values(np.zeros(state_grid.shape))
        labels = [make_orbit_label(1.0, 0.25, 0.25)]
        assert np.all(qm_limit_check(z, labels, self._probe()) == 0)


class TestInvariants:
    def test_sesquilinearity(self, generic_label, state_grid):
        rng = np.random.default_rng(12)
        chi = random_hermite_gaussian(rng, state_grid, rep="momentum")
        lam = random_hermite_gaussian(rng, state_grid, rep="momentum")
        pts = aligned_points(rng, generic_label, chi, 20)
        w = wigner_generic(RankOneOperator(chi, lam), pts, generic_label)
        a, b = 0.8 + 1.1j, -1.4 + 0.3j
        w2 = wigner_generic(
            RankOneOperator(chi.with_values(a * chi.values),
                            lam.with_values(b * lam.values)),
            pts, generic_label)
        assert sup_rel(w2, a * np.conj(b) * w) <= 1e-12

    def test_hermiticity(self, generic_label, state_grid):
        rng = np.random.default_rng(13)
        chi = random_hermite_gaussian(rng, state_grid, rep="momentum")
        lam = random_hermite_gaussian(rng, state_grid, rep="momentum")
        pts = aligned_points(rng, generic_label, chi, 20)
        w = wigner_generic(RankOneOperator(chi, lam), pts, generic_label)
        w_sw = wigner_generic(RankOneOperator(lam, chi), pts, generic_label)
        assert sup_rel(w, np.conj(w_sw)) <= 1e-12

    def test_fft_equals_direct_all_transforms(self, gauss_position, monkeypatch):
        # aligned 32^2 probe grids; FFT vs contraction, each forced
        for trip, fn in (((1.0, -1.0, 1.0), wigner_generic),
                         ((1.0, 1.0, 0.0), wigner_tau0),
                         ((1.0, 0.0, 0.0), wigner_qm_orbit)):
            label = make_orbit_label(*trip)
            phat = momentum_representation(gauss_position, 1.0)
            op = RankOneOperator(ket=phat, bra=phat)
            rng = np.random.default_rng(14)
            pts = aligned_points(rng, label, phat, 32 * 32)
            d, f = engine_paths(monkeypatch, lambda: fn(op, pts, label))
            assert sup_rel(d, f) <= 1e-10
        # nc transform on an aligned slice grid
        label = make_orbit_label(1.0, -1.0, 1.0)
        phat = momentum_representation(gauss_position, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        qg = aligned_frequency_grid(phat.grid.axis0, 1.0, 32, stride=2)
        pg = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        dom = nc_domain(q1nc=qg, q2nc=qg, p1nc=0.0, p2nc=0.0)
        d, f = engine_paths(monkeypatch, lambda: wigner_nc(op, dom, label))
        assert sup_rel(d.values, f.values) <= 1e-10
        # position form: frequencies must sit on the position grid's lattice
        pg_pos = aligned_frequency_grid(gauss_position.grid.axis0, 1.0, 32, stride=1)
        dom2 = nc_domain(q1nc=0.0, q2nc=0.0, p1nc=pg_pos, p2nc=pg_pos)
        d, f = engine_paths(monkeypatch, lambda: wigner_nc_position(
            gauss_position, gauss_position, dom2, label))
        assert sup_rel(d.values, f.values) <= 1e-10


def centre_cloud(rng, field, n_centres, scattered):
    """wigner_nc points over n_centres random centres p^nc, each with one
    kind of q^nc group in turn: 16-24 FFT-lattice points (FFT path), a 3x3
    product of off-lattice values (separable contraction), a single point
    and, with ``scattered``, 6 unrelated off-lattice points (per-point
    contraction).  Assumes |k1 a| = 1."""
    g = field.grid.axis0
    half_dk = math.pi / (g.n * g.step)
    kinds = 4 if scattered else 3
    groups = []
    for i, (p1, p2) in enumerate(rng.uniform(-2.0, 2.0, size=(n_centres, 2))):
        kind = i % kinds
        if kind == 0:
            q = rng.integers(-6, 7, size=(int(rng.integers(16, 25)), 2)) * half_dk
        elif kind == 1:
            a, b = rng.uniform(-2.0, 2.0, size=(2, 3))
            q = np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
        elif kind == 2:
            q = rng.uniform(-2.0, 2.0, size=(1, 2))
        else:
            q = rng.uniform(-2.0, 2.0, size=(6, 2))
        groups.append(np.column_stack([q, np.broadcast_to((p1, p2), q.shape)]))
    return np.concatenate(groups)


@pytest.fixture(scope="module")
def cloud_op():
    rng = np.random.default_rng(21)
    grid = default_state_grid(32, 6.0)
    chi = random_hermite_gaussian(rng, grid, rep="momentum")
    lam = random_hermite_gaussian(rng, grid, rep="momentum")
    return RankOneOperator(chi, lam)


def permuted_values(op, pts, label, rng):
    """wigner_nc over pts in a random order, put back in the input order."""
    perm = rng.permutation(len(pts))
    out = np.empty(len(pts), dtype=np.complex128)
    out[perm] = wigner_nc(op, pts[perm], label)
    return out


def spy_centres(monkeypatch):
    """List that gains (evaluator, thread ident, c1) for each centre whose
    integrand the engine builds."""
    seen = []
    integrand = wigner._GroupEvaluator.integrand

    def spy(self, row, c1, h):
        seen.append((self, threading.get_ident(), c1))
        return integrand(self, row, c1, h)
    monkeypatch.setattr(wigner._GroupEvaluator, "integrand", spy)
    return seen


class TestCentreGrouping:
    def test_empty_point_array(self, generic_label, gauss_op):
        vals = wigner_generic(gauss_op, np.empty((0, 4)), generic_label)
        assert vals.shape == (0,)
        assert wigner_nc(gauss_op, np.empty((0, 4)), generic_label).shape == (0,)

    def test_single_point(self, generic_label, gauss_op):
        # centre on the state lattice, so the oracle needs no interpolation
        step = gauss_op.ket.grid.axis0.step
        pt = orbit_from_wave_coords(generic_label, 0.37, -0.21, 3 * step, -2 * step)
        fast = wigner_generic(gauss_op, [pt], generic_label)
        slow = direct_wigner_oracle(gauss_op, pt, generic_label)
        assert fast.shape == (1,)
        assert abs(fast[0] - slow) <= 1e-8 * abs(slow)

    @pytest.mark.parametrize("transform", [wigner_nc, wigner_generic])
    def test_one_point_array_matches_a_one_point_group(self, generic_label, gauss_op,
                                                       transform):
        # a one-point array spans no centre axis; its frequencies must still
        # reach the step as (1,) arrays, like a one-point group's, since
        # NumPy's exp rounds a 0-d complex differently
        rng = np.random.default_rng(25)
        for pair in rng.uniform(-1.0, 1.0, size=(8, 2, 4)):
            one = transform(gauss_op, pair[:1], generic_label)
            two = transform(gauss_op, pair, generic_label)
            assert one.tobytes() == two[:1].tobytes()

    def test_signed_zero_centres_share_a_group(self, generic_label, gauss_op,
                                               monkeypatch):
        centres = spy_centres(monkeypatch)
        pts = np.array([[0.3, -0.2, 0.0, 0.0],
                        [0.3, -0.2, -0.0, -0.0],
                        [0.3, -0.2, -0.0, 0.0]])
        vals = wigner_nc(gauss_op, pts, generic_label)
        assert len(centres) == 1
        assert vals[0] == vals[1] == vals[2]

    @pytest.mark.parametrize("scattered", [False, True])
    def test_permutation_invariance(self, generic_label, cloud_op, scattered):
        rng = np.random.default_rng(22)
        pts = centre_cloud(rng, cloud_op.ket, 96, scattered)
        assert len(np.unique(pts[:, 2:], axis=0)) >= 64  # threaded branch
        ref = wigner_nc(cloud_op, pts, generic_label)
        for _ in range(2):
            assert permuted_values(cloud_op, pts, generic_label, rng).tobytes() \
                == ref.tobytes()

    def test_thread_count_invariance(self, generic_label, cloud_op, monkeypatch):
        pts = centre_cloud(np.random.default_rng(24), cloud_op.ket, 96,
                           scattered=True)
        assert len(np.unique(pts[:, 2:], axis=0)) >= 64  # threaded branch
        monkeypatch.setenv("NCWIG_THREADS", "1")
        one = wigner_nc(cloud_op, pts, generic_label)
        monkeypatch.setenv("NCWIG_THREADS", "2")
        two = wigner_nc(cloud_op, pts, generic_label)
        assert one.tobytes() == two.tobytes()

    def test_equal_size_groups_with_other_frequencies_get_own_step(
            self, generic_label, gauss_op, monkeypatch):
        pts = np.array([[0.1, 0.2, 0.3, -0.2],
                        [0.4, 0.1, 0.3, -0.2],
                        [0.5, 0.6, 0.3, 0.2],
                        [0.7, -0.8, 0.3, 0.2]])
        calls = []
        step = wigner._GroupEvaluator.frequency_step

        def counted(self, w0, w1):
            calls.append(1)
            return step(self, w0, w1)

        monkeypatch.setattr(wigner._GroupEvaluator, "frequency_step", counted)
        vals = wigner_nc(gauss_op, pts, generic_label)
        assert len(calls) == 2
        apart = np.concatenate([wigner_nc(gauss_op, pts[:2], generic_label),
                                wigner_nc(gauss_op, pts[2:], generic_label)])
        assert vals.tobytes() == apart.tobytes()

    def test_guard_fires_at_first_centre_above_tail(self, generic_label, gauss_op):
        # two groups with the same out-of-band frequencies: the first (in
        # sorted order) lies in the tail and builds no step, the second
        # carries mass and must still hit the Nyquist guard
        hs = gauss_op.ket.grid.axis0.step
        big = 1.2 * math.pi / hs
        tail = [big, 0.0, -60 * hs, 0.0]
        assert wigner_nc(gauss_op, np.array([tail]), generic_label)[0] == 0
        with pytest.raises(GridTooCoarse):
            wigner_nc(gauss_op, np.array([tail, [big, 0.0, 0.0, 0.0]]), generic_label)

    def test_worker_count_clamped_to_cpus(self, monkeypatch):
        # reads the clamped value only; no transform runs at this setting
        monkeypatch.setenv("NCWIG_THREADS", "1000000")
        assert wigner._worker_count() == (os.cpu_count() or 1)


@pytest.fixture(scope="module")
def gemm_cloud():
    """64 centres on a 96^2 state grid, each with a 32 x 4 product of
    off-lattice frequencies: every group takes the separable contraction,
    whose first product (32x96)(96x96) is large enough for a threaded BLAS
    to split it."""
    rng = np.random.default_rng(25)
    grid = default_state_grid(96, 10.0)
    op = RankOneOperator(random_hermite_gaussian(rng, grid, rep="momentum"),
                         random_hermite_gaussian(rng, grid, rep="momentum"))
    half_dk = math.pi / (grid.axis0.n * grid.axis0.step)
    q1 = (np.arange(32) - 16 + 0.37) * half_dk
    q2 = (np.arange(4) - 2 + 0.61) * half_dk
    freqs = np.stack(np.meshgrid(q1, q2, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.concatenate([np.column_stack([freqs, np.broadcast_to(c, freqs.shape)])
                          for c in rng.uniform(-2.0, 2.0, size=(64, 2))])
    return op, pts


class TestBlasThreads:
    """Engine pool workers run BLAS on one thread; the caller keeps its own."""

    def test_setter_runs_once_in_each_pool_worker(self, generic_label, cloud_op,
                                                  monkeypatch):
        calls = []
        centres = spy_centres(monkeypatch)
        monkeypatch.setattr(wigner, "_blas_local_threads_setter",
                            lambda: lambda n: calls.append((threading.get_ident(), n)))
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        pts = centre_cloud(np.random.default_rng(24), cloud_op.ket, 96, scattered=False)
        wigner_nc(cloud_op, pts, generic_label)
        workers = {ident for _, ident, _ in centres}
        idents = [ident for ident, _ in calls]
        assert [n for _, n in calls] == [1] * len(calls)
        assert len(set(idents)) == len(idents) == len(workers)
        assert set(idents) == workers
        assert threading.get_ident() not in idents
        # the single-chunk path stays on the calling thread and sets nothing
        calls.clear()
        monkeypatch.setattr(wigner, "_worker_count", lambda: 1)
        wigner_nc(cloud_op, pts, generic_label)
        assert calls == []

    def test_missing_symbol_leaves_the_engine_as_it_is(self, generic_label, cloud_op,
                                                       monkeypatch):
        pts = centre_cloud(np.random.default_rng(24), cloud_op.ket, 96, scattered=False)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        ref = wigner_nc(cloud_op, pts, generic_label)
        monkeypatch.setattr(wigner, "_blas_local_threads_setter", lambda: None)
        assert wigner_nc(cloud_op, pts, generic_label).tobytes() == ref.tobytes()

    def test_pool_shares_one_reflected_ket(self, generic_label, cloud_op, monkeypatch):
        # the first call on a fresh operator reflects its ket once, one pass
        # per axis, and later calls read the reflection from the ket's memo;
        # every chunk runs on the call's one evaluator, which holds the
        # memo's reflection and the bra's values themselves
        op = RankOneOperator(cloud_op.ket.with_values(cloud_op.ket.values),
                             cloud_op.bra.with_values(cloud_op.bra.values))
        reflected = []
        reflect = wigner._axis_reflect

        def counted(values, g, axis):
            reflected.append(axis)
            return reflect(values, g, axis)

        monkeypatch.setattr(wigner, "_axis_reflect", counted)
        centres = spy_centres(monkeypatch)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        pts = centre_cloud(np.random.default_rng(24), op.ket, 96, scattered=False)
        wigner_nc(op, pts, generic_label)
        assert reflected == [0, 1]
        (ev,) = {ev for ev, _, _ in centres}
        assert ev.ket_refl is op.ket.__dict__["_memo"]["reflected"]
        assert ev.bra is op.bra.values
        reflected.clear()
        wigner_nc(op, pts, generic_label)
        assert reflected == []

    def test_lookup_finds_a_setter_or_none(self):
        setter = wigner._blas_local_threads_setter()
        assert setter is None or callable(setter)
        assert wigner._blas_local_threads_setter() is setter

    def test_thread_count_invariance_on_separable_contraction(self, generic_label,
                                                              gemm_cloud, monkeypatch):
        op, pts = gemm_cloud
        assert len(np.unique(pts[:, 2:], axis=0)) >= 64  # threaded branch
        monkeypatch.setenv("NCWIG_THREADS", "1")
        one = wigner_nc(op, pts, generic_label)
        monkeypatch.setenv("NCWIG_THREADS", "2")
        two = wigner_nc(op, pts, generic_label)
        assert one.tobytes() == two.tobytes()


def theta_cloud(params, out, kint, cint):
    """Prop-4.2 theta-side orbit points: (k1*, k2*) on out x out, k3* on
    kint and k4* solved so that the centre c0 runs over cint."""
    hb, th, e = params.hbar, params.vartheta, params.det
    k1, k2, k3, c0 = np.meshgrid(out.coords(), out.coords(), kint.coords(),
                                 cint.coords(), indexing="ij")
    k4 = (e * c0 - hb ** 2 * k1) / (hb * th)
    return np.stack([k1.ravel(), k2.ravel(), k3.ravel(), k4.ravel()], axis=1)


class TestFrequencyStepReuse:
    def test_one_step_per_run_of_equal_frequency_sets(self, generic_label,
                                                      gauss_position, monkeypatch):
        params = nc_params_from_label(generic_label)
        out = Grid1D(4, -0.6 + 0.37 * 0.3, 0.3)   # off-lattice, as in a star check
        pts = theta_cloud(params, out, Grid1D.symmetric(4, 1.0), Grid1D(3, -0.5, 0.5))
        monkeypatch.setattr(wigner, "_worker_count", lambda: 1)
        groups, steps = [], []
        centre_groups = wigner._centre_groups
        step = wigner._GroupEvaluator.frequency_step

        def spy_plan(*args):  # points: one group per run, so one group() per group
            plan = centre_groups(*args)

            def group(k):
                w0, w1, idx = plan.group(k)
                groups.append((w0.copy(), w1.copy()))
                return w0, w1, idx
            return plan._replace(group=group)

        def spy_step(self, w0, w1):
            steps.append(1)
            return step(self, w0, w1)

        monkeypatch.setattr(wigner, "_centre_groups", spy_plan)
        monkeypatch.setattr(wigner._GroupEvaluator, "frequency_step", spy_step)
        vals = wigner_nc_params(gauss_position, pts, params)
        runs = 1 + sum(not (np.array_equal(a0, b0) and np.array_equal(a1, b1))
                       for (a0, a1), (b0, b1) in zip(groups, groups[1:]))
        assert 1 < len(steps) == runs < len(groups)

        # a step per group gives the same bits: each centre's points alone
        hb, th, e = params.hbar, params.vartheta, params.det
        centres = np.column_stack([(hb ** 2 * pts[:, 0] + hb * th * pts[:, 3]) / e, pts[:, 1]])
        _, which = np.unique(centres, axis=0, return_inverse=True)
        assert which.max() + 1 == len(groups)
        for g in range(len(groups)):
            alone = wigner_nc_params(gauss_position, pts[which == g], params)
            assert alone.tobytes() == vals[which == g].tobytes()


def theta_case(seed, n=48, extra=np.empty((0, 4))):
    """A seeded theta-side Prop-4.2 case on a state grid of step 0.25:
    every c0 a whole number of state steps, every k2* = c1 off them; the
    ``extra`` points follow the cloud."""
    grid = default_state_grid(n, n / 8.0)
    psi = random_hermite_gaussian(np.random.default_rng(seed), grid)
    params = nc_params_from_label(make_orbit_label(1.0, -1.0, 1.0))
    pts = theta_cloud(params, Grid1D(16, -1.9, 0.23), Grid1D.symmetric(8, 3.0),
                      Grid1D(12, -3.0, 0.5))
    pts = np.concatenate([pts, extra])
    return lambda: wigner_nc_params(psi, pts, params), pts[:, 1], grid.axis1.step


def k3_slice_case(seed):
    """A seeded wigner_generic (k3*, k4*) slice: k3* on the state lattice,
    so every c0 = k3*/k1 is too, and every node is its own centre, with
    16 distinct off-lattice c1 = (k4* - k1*)/2."""
    grid = default_state_grid(48, 6.0)
    rng = np.random.default_rng(seed)
    op = RankOneOperator(*(random_hermite_gaussian(rng, grid, rep="momentum")
                           for _ in range(2)))
    label = make_orbit_label(1.0, -1.0, 1.0)
    k4 = Grid1D.symmetric(16, 2.0)
    dom = orbit_domain(k1s=0.1, k2s=0.2, k3s=aligned_center_grid(grid.axis0, 16), k4s=k4)
    return (lambda: wigner_generic(op, dom, label).values, (k4.coords() - 0.1) / 2.0,
            grid.axis1.step)


def off_lattice(c, step):
    """The distinct values of c that are not whole numbers of step."""
    u = np.unique(c)
    return u[np.abs(u / step - np.round(u / step)) > 1e-9]


def spy_tables(monkeypatch):
    """List that gains the evaluator of each engine call once its c1-shift
    table is built (or skipped)."""
    built = []
    share = wigner._GroupEvaluator.share_c1_shifts

    def spy(self, *args):
        share(self, *args)
        built.append(self)
    monkeypatch.setattr(wigner._GroupEvaluator, "share_c1_shifts", spy)
    return built


def count_axis1_shifts(monkeypatch):
    """List that gains one entry per Fourier shift the engine takes along axis 1."""
    calls = []
    shift = numerics._shift_spectrum

    def counted(spec, delta, axis):
        assert axis == 1
        calls.append(delta)
        return shift(spec, delta, axis)
    monkeypatch.setattr(numerics, "_shift_spectrum", counted)
    return calls


class TestC1ShiftTable:
    """With every c0 on the state lattice, one table per call holds both
    fields shifted along axis 1 by each distinct off-lattice c1, and the
    groups read their window rows of it: the bits of shifting per group."""

    CASES = {"theta_cloud": lambda: theta_case(3), "k3_slice": lambda: k3_slice_case(4)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cached_matches_uncached_bitwise(self, case, monkeypatch):
        evaluate, c1, step = self.CASES[case]()
        built = spy_tables(monkeypatch)
        shifts = count_axis1_shifts(monkeypatch)
        cached = evaluate()
        n_off = off_lattice(c1, step).size
        assert n_off >= 12 and len(built[0].c1_shifts) == n_off
        assert len(shifts) == 2 * n_off
        # a budget just above the result leaves no room for the table
        built.clear()
        shifts.clear()
        monkeypatch.setattr(core, "_MAX_BYTES", cached.nbytes + 1)
        uncached = evaluate()
        assert not built[0].c1_shifts and len(shifts) > 2 * n_off
        assert cached.tobytes() == uncached.tobytes()

    def test_thread_count_invariance_on_the_cached_path(self, monkeypatch):
        evaluate, _, _ = theta_case(5)
        built = spy_tables(monkeypatch)
        monkeypatch.setenv("NCWIG_THREADS", "1")
        one = evaluate()
        monkeypatch.setenv("NCWIG_THREADS", "2")
        two = evaluate()
        # more workers than cores and a short switch interval: every worker
        # reads the one table and writes the bits of a single thread
        monkeypatch.setattr(wigner, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = evaluate()
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 3 and all(ev.c1_shifts for ev in built)
        assert one.tobytes() == two.tobytes() == many.tobytes()

    def test_pool_shares_one_table_built_once(self, monkeypatch):
        evaluate, c1, step = theta_case(6)
        built = spy_tables(monkeypatch)
        shifts = count_axis1_shifts(monkeypatch)
        centres = spy_centres(monkeypatch)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        evaluate()
        assert len(built) == 1 and len(shifts) == 2 * off_lattice(c1, step).size
        assert {ev for ev, _, _ in centres} == {built[0]} and built[0].c1_shifts

    def test_pooled_call_leaves_its_one_evaluator_as_built(self, monkeypatch):
        # every worker reads the evaluator; none sets, rebinds or adds an
        # attribute, nor changes the table
        evaluate, _, _ = theta_case(6)
        seen = []
        share = wigner._GroupEvaluator.share_c1_shifts

        def spy(self, *args):
            share(self, *args)
            seen.append((self, dict(vars(self)), dict(self.c1_shifts)))
        monkeypatch.setattr(wigner._GroupEvaluator, "share_c1_shifts", spy)
        centres = spy_centres(monkeypatch)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        evaluate()
        (ev, attrs, table), = seen
        assert {e for e, _, _ in centres} == {ev} and table
        assert vars(ev).keys() == attrs.keys()
        assert all(getattr(ev, k) is v for k, v in attrs.items())
        assert ev.c1_shifts.keys() == table.keys()
        assert all(ev.c1_shifts[c] is t for c, t in table.items())

    def test_any_off_lattice_c0_builds_no_table(self, monkeypatch):
        params = nc_params_from_label(make_orbit_label(1.0, -1.0, 1.0))
        # the same (k1*, k2*, k3*) points at c0 = 0.1 and 0.6: 0.4 and 2.4 state steps
        off = theta_cloud(params, Grid1D(16, -1.9, 0.23), Grid1D.symmetric(8, 3.0),
                          Grid1D(2, 0.1, 0.5))
        alone, c1, _ = theta_case(7)
        mixed, _, _ = theta_case(7, extra=off)
        built = spy_tables(monkeypatch)
        with_off = mixed()
        assert not built[0].c1_shifts
        # the lattice centres read the table alone and give the same bits
        assert with_off[:c1.size].tobytes() == alone().tobytes()
        assert built[1].c1_shifts

    def test_a_c1_of_one_group_is_left_out(self, monkeypatch):
        evaluate, c1, step = theta_case(9)
        # one more point with a lattice c0 = 0.5 and a c1 no other group has
        lone, _, _ = theta_case(9, extra=np.array([[0.3, 0.1234, 0.5, 0.7]]))
        built = spy_tables(monkeypatch)
        shifts = count_axis1_shifts(monkeypatch)
        evaluate()
        shifts.clear()
        lone()
        ref, table = (ev.c1_shifts for ev in built)
        assert 0.1234 not in table and table.keys() == ref.keys()
        assert len(shifts) == 2 * off_lattice(c1, step).size + 2  # its group shifts its rows

    def test_theta_cloud_peak_holds_one_table(self, monkeypatch):
        # 96^2 state: 15 off-lattice c1 make a 4.4 MB table against a 0.39 MB
        # result; the slack covers the cloud's mapped columns and sort index
        # (three results) and the engine's per-worker rows (2 MiB)
        evaluate, c1, step = theta_case(8, n=96)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        table = 32 * 96 ** 2 * off_lattice(c1, step).size
        tracemalloc.start()
        try:
            vals = evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vals.nbytes + table + 3 * vals.nbytes + (2 << 20)


class TestLatticeWindows:
    """Lattice centres build the integrand on its overlap window, and the
    lattice FFT runs its axis-0 pass over the requested columns only; both
    must give the bits of the zero-filled shifted copies and of the full
    ifft2.  The grid is 12 x 10, with different steps per axis."""

    N0, N1 = 12, 10

    def evaluator(self):
        grid = Grid2D(Grid1D.symmetric(self.N0, 3.0), Grid1D.symmetric(self.N1, 3.5))
        rng = np.random.default_rng(5)
        ket, bra = (ComplexField2D(grid, rng.standard_normal(grid.shape)
                                   + 1j * rng.standard_normal(grid.shape), rep="momentum")
                    for _ in range(2))
        return wigner._GroupEvaluator(ket, bra, 1.0, 1.0)

    @staticmethod
    def zero_filled_integrand(ev, c0, c1):
        s0, s1 = ev.g0.step, ev.g1.step
        bra = _axis_shifter(_axis_shift(ev.bra, c0, s0, axis=0), s1, axis=1)(c1)
        ket = _axis_shifter(_axis_shift(ev.ket_refl, -c0, s0, axis=0), s1, axis=1)(-c1)
        return np.conj(bra) * ket

    def test_integrand_matches_zero_filled_shifts(self):
        # whole steps of both signs, up to and past half the axis (empty
        # windows), and off-lattice offsets, crossed over both axes
        steps0 = (0, 1, -2, 5, -6, 6, 7, -13, 0.37, -1.6)
        steps1 = (0, -1, 3, -4, 5, -5, 11, 0.5, -2.25)
        ev = self.evaluator()
        cases = [(r0 * ev.g0.step, r1 * ev.g1.step) for r0 in steps0 for r1 in steps1]
        every_c1 = [r1 * ev.g1.step for r1 in steps1]
        empty, h = 0, None
        # one buffer in both orders, each c0's rows built for the centre
        # alone and for the whole row (with the conjugated bra rows): nothing
        # may leak between centres
        for c0, c1 in cases + cases[::-1]:
            ref = self.zero_filled_integrand(ev, c0, c1)
            for c1s in ([c1], every_c1):
                row = ev.row(c0, c1s)
                assert row is None or (row[5] is None) == (len(c1s) == 1)
                h, core = ev.integrand(row, c1, h)
                if core is None:
                    empty += 1
                    assert not ref.any()
                    continue
                # signed zeros outside the window are the only freedom
                assert (h + 0.0).tobytes() == (ref + 0.0).tobytes()
                assert np.shares_memory(core, h)
                assert np.max(np.abs(core)) == np.max(np.abs(ref))
        assert 0 < empty < 4 * len(cases)

    @pytest.mark.parametrize("columns", [list(range(10)), list(range(0, 10, 2)),
                                         [7, 1, 7, 4, 9, 1], [3]])
    def test_lattice_fft_gathers_the_full_ifft2(self, monkeypatch, columns):
        ev = self.evaluator()
        n0, n1 = self.N0, self.N1
        m0 = np.arange(-n0 // 2, n0 // 2)[:, None]      # every row, Nyquist included
        m1 = np.array([c - n1 if c >= n1 // 2 else c for c in columns])[None, :]
        w0, w1 = m0 * ev.dk0 / 2.0, m1 * ev.dk1 / 2.0   # 2 omega w = m dk, omega = 1
        seen = []
        lattice_fft = wigner._lattice_fft

        def spy(h, i0, cols, i1):
            seen.append((cols, lattice_fft(h, i0, cols, i1)))
            return seen[-1][1]

        monkeypatch.setattr(wigner, "_lattice_fft", spy)
        monkeypatch.setattr(wigner, "_FFT_MIN_POINTS", 0)
        h = self.zero_filled_integrand(ev, 2 * ev.g0.step, -0.3)
        ev.frequency_step(w0, w1)(h)
        (cols, got), = seen
        assert (cols is None) == (len(set(columns)) == n1)
        ref = (np.fft.ifft2(h) * (n0 * n1))[m0 % n0, m1 % n1]
        assert got.tobytes() == ref.tobytes()


def grid_transforms(label, gauss_op, gauss_position):
    """name -> (evaluate(pts), domain coordinates, frequency names, omega,
    state axis, whether the map keeps the FFT lattices) for every transform
    that takes a Domain4D."""
    a = label.k1 * label.consts.alpha
    h = 1.0
    orbit = {"wigner_generic": (wigner_generic, label),
             "wigner_tau0": (wigner_tau0, make_orbit_label(1.0, 1.0, 0.0)),
             "wigner_qm_orbit": (wigner_qm_orbit, make_orbit_label(1.0, 0.0, 0.0))}
    params = NCParams(hbar=1.0, vartheta=1.0, bfield=-1.0)
    return {
        "wigner_nc": (
            lambda pts: wigner_nc(gauss_op, pts, label),
            NC_COORDS, ("q1nc", "q2nc"), -a, gauss_op.ket.grid.axis0, True),
        "wigner_nc_position": (
            lambda pts: wigner_nc_position(gauss_position, gauss_position, pts, label),
            NC_COORDS, ("p1nc", "p2nc"), a, gauss_position.grid.axis0, True),
        "cross_wigner_standard": (
            lambda pts: cross_wigner_standard(gauss_position, gauss_position, pts, h=h),
            PHASE_COORDS, ("p1", "p2"), 2.0 * math.pi / h,
            gauss_position.grid.axis0, True),
        # orbit coordinates: the map mixes (k1*, k4*) except at k2 = k3 = 0
        # with unit constants; the k3 = 0 (k1*, k2*) slice has one centre
        **{name: (lambda pts, f=f, lab=lab: f(gauss_op, pts, lab),
                  ORBIT_COORDS, ("k1s", "k2s"), lab.consts.alpha, gauss_op.ket.grid.axis0,
                  name == "wigner_qm_orbit")
           for name, (f, lab) in orbit.items()},
        "wigner_nc_params": (
            lambda pts: wigner_nc_params(gauss_position, pts, params),
            ORBIT_COORDS, ("k3s", "k4s"), 1.0, gauss_position.grid.axis0, False),
    }


def grid_path_domains(names, freq, state_axis, omega, aligned):
    """A full domain (4 points per axis), a slice of the first two
    coordinates and one of the first and third (8 points per axis), on the
    FFT/state lattices or off them; the ``freq`` coordinates get the
    frequency lattice, the other two the centre lattice."""
    if aligned:
        f4, f8 = (aligned_frequency_grid(state_axis, omega, n) for n in (4, 8))
        c4, c8 = (aligned_center_grid(state_axis, n) for n in (4, 8))
    else:
        f4, f8 = Grid1D(4, -0.61, 0.37), Grid1D(8, -0.83, 0.23)
        c4, c8 = Grid1D(4, -0.53, 0.31), Grid1D(8, -0.77, 0.19)
    axes = {name: (f4, f8) if name in freq else (c4, c8) for name in names}
    x1, x2, x3, x4 = names
    fixed = {name: float(g8.coords()[5]) for name, (_, g8) in axes.items()}
    return [
        Domain4D.build(names, **{name: g4 for name, (g4, _) in axes.items()}),
        Domain4D.build(names, **{x1: axes[x1][1], x2: axes[x2][1], x3: fixed[x3],
                                 x4: fixed[x4]}),
        Domain4D.build(names, **{x1: axes[x1][1], x2: fixed[x2], x3: axes[x3][1],
                                 x4: fixed[x4]}),
    ]


class TestDomainGridPath:
    """Domain4D inputs are evaluated on their open mesh; per point they
    must give the bits of the same transform on domain.points(), with the
    default FFT threshold, with the FFT for every aligned group and with
    the contraction for every group."""

    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize("name", ["wigner_nc", "wigner_nc_position",
                                      "cross_wigner_standard", "wigner_generic",
                                      "wigner_tau0", "wigner_qm_orbit",
                                      "wigner_nc_params"])
    def test_bitwise_equal_to_points(self, generic_label, gauss_op, gauss_position,
                                     name, aligned, monkeypatch):
        evaluate, names, freq, omega, axis, keeps_lattice = grid_transforms(
            generic_label, gauss_op, gauss_position)[name]
        calls = count_fft_calls(monkeypatch)
        default = wigner._FFT_MIN_POINTS
        for dom in grid_path_domains(names, freq, axis, omega, aligned):
            for least in (default, 0, math.inf):
                monkeypatch.setattr(wigner, "_FFT_MIN_POINTS", least)
                calls.clear()
                grid_vals = evaluate(dom)
                point_vals = evaluate(dom.points())
                assert grid_vals.values.shape == dom.shape
                assert grid_vals.values.tobytes() == point_vals.tobytes()
                # the FFT runs only when forced on, and then on lattice inputs
                if least == math.inf or (least == 0 and aligned and keeps_lattice):
                    assert bool(calls) == (least == 0)

    def test_all_centres_tail_skipped(self, generic_label, gauss_op):
        # centres far off the state's support, frequencies beyond Nyquist:
        # no centre reaches the frequency step, so nothing is checked
        hs = gauss_op.ket.grid.axis0.step
        far = Grid1D(4, 400 * hs, hs)
        big = Grid1D(4, 1.2 * math.pi / hs, 1.0)
        w = wigner_nc(gauss_op, nc_domain(q1nc=big, q2nc=big, p1nc=far, p2nc=far),
                      generic_label)
        assert np.all(w.values == 0)

    def test_guards_match_point_path(self, generic_label, gauss_op, monkeypatch):
        hs = gauss_op.ket.grid.axis0.step
        big = Grid1D(4, 1.2 * math.pi / hs, 1.0)   # beyond the Nyquist band
        c = aligned_center_grid(gauss_op.ket.grid.axis0, 4)
        dom = nc_domain(q1nc=big, q2nc=big, p1nc=c, p2nc=c)
        for least in (wigner._FFT_MIN_POINTS, 0):
            monkeypatch.setattr(wigner, "_FFT_MIN_POINTS", least)
            for pts in (dom, dom.points()):
                with pytest.raises(GridTooCoarse):
                    wigner_nc(gauss_op, pts, generic_label)
        # the result budget refuses the domain and its points alike
        monkeypatch.setattr(core, "_MAX_BYTES", 16 * 4 ** 4 - 1)
        inputs = (dom, dom.points())
        monkeypatch.setattr(np, "empty", not_allocated)
        for pts in inputs:
            with pytest.raises(GridTooLarge, match="need about 4096 bytes"):
                wigner_nc(gauss_op, pts, generic_label)

    def test_thread_count_invariance(self, generic_label, gauss_op, monkeypatch):
        axis = gauss_op.ket.grid.axis0
        f = aligned_frequency_grid(axis, -generic_label.k1 * generic_label.consts.alpha, 4)
        # 64 centres each: the threaded branch.  The second grid alternates
        # whole and half state steps on both centre axes, so each chunk
        # meets every window/Fourier pairing of (c0, c1)
        for c in (Grid1D(8, -0.77, 0.19), Grid1D(8, -6 * axis.step, 1.5 * axis.step)):
            dom = nc_domain(q1nc=f, q2nc=f, p1nc=c, p2nc=c)
            monkeypatch.setenv("NCWIG_THREADS", "1")
            one = wigner_nc(gauss_op, dom, generic_label)
            monkeypatch.setenv("NCWIG_THREADS", "2")
            two = wigner_nc(gauss_op, dom, generic_label)
            assert one.values.tobytes() == two.values.tobytes()
            assert two.values.tobytes() == wigner_nc(gauss_op, dom.points(),
                                                     generic_label).tobytes()

    def test_frequency_step_runs_once_under_thread_stress(self, generic_label,
                                                         gauss_op, monkeypatch):
        # more workers than cores and a short switch interval: each chunk
        # builds the frequency step at most once, and every worker must
        # write the same bits as a single thread
        axis = gauss_op.ket.grid.axis0
        f = aligned_frequency_grid(axis, -generic_label.k1 * generic_label.consts.alpha, 4)
        c = aligned_center_grid(axis, 8)
        dom = nc_domain(q1nc=f, q2nc=f, p1nc=c, p2nc=c)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 1)
        one = wigner_nc(gauss_op, dom, generic_label)
        calls = []
        step = wigner._GroupEvaluator.frequency_step

        def counted(self, w0, w1):
            time.sleep(0.02)  # widen the window in which other workers arrive
            contract, buffers = step(self, w0, w1), []
            calls.append(buffers)

            def spy(h):
                buffers.append(h)  # holds each chunk's buffer, so no id is reused
                return contract(h)
            return spy

        monkeypatch.setattr(wigner._GroupEvaluator, "frequency_step", counted)
        monkeypatch.setattr(wigner, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = wigner_nc(gauss_op, dom, generic_label)
        finally:
            sys.setswitchinterval(interval)
        # 64 centres, 8 chunks: each step serves one chunk's buffer alone
        chunks = [{id(h) for h in buffers} for buffers in calls]
        assert 1 <= len(calls) == len(set().union(*chunks)) <= 8
        assert all(len(c) == 1 for c in chunks)
        assert many.values.tobytes() == one.values.tobytes()

    def test_result_is_not_copied(self, generic_label, gauss_op):
        # 64^2 x 32^2 values: the transform's one result array is the
        # field's, so the peak stays near the result size
        axis = gauss_op.ket.grid.axis0
        q = aligned_frequency_grid(axis, generic_label.k1 * generic_label.consts.alpha,
                                   64, stride=2)
        p = aligned_center_grid(axis, 32)
        dom = nc_domain(q1nc=q, q2nc=q, p1nc=p, p2nc=p)
        tracemalloc.start()
        try:
            w = wigner_nc(gauss_op, dom, generic_label, max_axis_points=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.values.nbytes == 64 ** 2 * 32 ** 2 * 16
        assert peak < 1.25 * w.values.nbytes

    def test_orbit_domain_holds_no_point_cloud(self, gauss_position):
        # a 32^4 orbit domain: the map's arrays span only their own axes
        # and only the (k1*, k2*, k4*) centre nodes are sorted, so the peak
        # stays near the 16 MiB result (a flattened (M, 4) cloud and its
        # mapped columns peak at 92 MiB)
        g = Grid1D.symmetric(32, 3.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        tracemalloc.start()
        try:
            w = wigner_nc_params(gauss_position, dom, NCParams(1.0, 1.0, -1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.values.nbytes == 32 ** 4 * 16
        assert peak <= 1.5 * w.values.nbytes

    def test_points_never_materialised(self, generic_label, gauss_op, gauss_position,
                                       monkeypatch):
        def no_points(self):
            raise AssertionError("Domain4D.points() called by a transform")

        monkeypatch.setattr(Domain4D, "points", no_points)
        g = Grid1D.symmetric(4, 1.0)
        w = wigner_nc(gauss_op, nc_domain(q1nc=g, q2nc=g, p1nc=g, p2nc=g), generic_label)
        assert w.values.shape == (4, 4, 4, 4)
        w = wigner_nc_position(gauss_position, gauss_position,
                               nc_domain(q1nc=g, q2nc=0.0, p1nc=g, p2nc=0.0),
                               generic_label)
        assert w.values.shape == (4, 4)
        w = cross_wigner_standard(gauss_position, gauss_position,
                                  phase_space_domain(q1=0.0, q2=0.0, p1=g, p2=g), h=1.0)
        assert w.values.shape == (4, 4)
        w = wigner_generic(gauss_op, orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g),
                           generic_label)
        assert w.values.shape == (4, 4, 4, 4)
        w = wigner_nc_params(gauss_position, orbit_domain(k1s=g, k2s=0.0, k3s=g, k4s=0.5),
                             NCParams(1.0, 1.0, -1.0))
        assert w.values.shape == (4, 4)


class TestTransformContract:
    """Checks every transform shares through its one runner: the sector,
    the field representation, and the sector prefactor off unit constants."""

    @pytest.mark.parametrize("case", ["nan_frequency", "nan_centre", "inf_centre",
                                      "nan_point_object", "stacked_array",
                                      "nan_grid_origin", "inf_grid_step",
                                      "nan_fixed_coordinate"])
    def test_malformed_inputs_raise_one_line(self, generic_label, gauss_op, case):
        g = Grid1D.symmetric(4, 1.0)
        bad = {
            "nan_frequency": lambda: wigner_nc(gauss_op, np.array([[np.nan, 0, 0, 0]]),
                                               generic_label),
            "nan_centre": lambda: wigner_nc(gauss_op, np.array([[0, 0, np.nan, 0]]),
                                            generic_label),
            "inf_centre": lambda: wigner_nc(gauss_op, np.array([[0, 0, 0, np.inf]]),
                                            generic_label),
            "nan_point_object": lambda: wigner_generic(
                gauss_op, [CoadjointPoint(0.0, math.nan, 0.0, 0.0)], generic_label),
            "stacked_array": lambda: wigner_nc(gauss_op, np.zeros((2, 4, 4)), generic_label),
            "nan_grid_origin": lambda: Grid1D(4, math.nan, 0.1),
            "inf_grid_step": lambda: Grid1D(4, 0.0, math.inf),
            "nan_fixed_coordinate": lambda: orbit_domain(k1s=g, k2s=g, k3s=math.nan,
                                                         k4s=0.0),
        }[case]
        with pytest.raises(ValueError, match=r"\(M, 4\)" if case == "stacked_array"
                           else "finite") as exc:
            bad()
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("centre", [(1.7e308, 0.0), (0.0, -1.7e308)])
    def test_overflowing_centre_offsets_refused_before_any_group(self, generic_label,
                                                                 gauss_op, monkeypatch,
                                                                 centre):
        def not_reached(*args, **kwargs):
            raise AssertionError("a centre group ran")

        monkeypatch.setattr(wigner, "_phase_integral", not_reached)
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, *centre]])
        with pytest.raises(GridTooCoarse, match="^centre offsets reach inf state steps"):
            wigner_nc(gauss_op, pts, generic_label)

    def test_non_finite_nc_prefactor_refused_before_any_group(self, gauss_op,
                                                               gauss_position, monkeypatch):
        # (k1 alpha)^2 = 1e300 passes the label check; |k1 alpha|^3 overflows
        label = make_orbit_label(1e150, -1.0, 1.0)

        def not_reached(*args):
            raise AssertionError("a transform ran with a non-finite prefactor")

        monkeypatch.setattr(wigner, "_transform", not_reached)
        pts = np.zeros((1, 4))
        with pytest.raises(core.InvalidLabel, match="nc prefactor .* is not finite"):
            wigner_nc(gauss_op, pts, label)
        with pytest.raises(core.InvalidLabel, match="nc prefactor .* is not finite"):
            wigner_nc_position(gauss_position, gauss_position, pts, label)

    @pytest.mark.parametrize("trip", [(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_nc_forms_need_a_generic_label(self, gauss_op, gauss_position, trip):
        label = make_orbit_label(*trip)
        pts = [NCCoords((0, 0), (0, 0))]
        with pytest.raises(SectorMismatch):
            wigner_nc(gauss_op, pts, label)
        with pytest.raises(SectorMismatch):
            wigner_nc_position(gauss_position, gauss_position, pts, label)

    def test_position_forms_reject_momentum_fields(self, generic_label, gauss_position,
                                                   gauss_momentum):
        params = nc_params_from_label(generic_label)
        pts = [(0.0, 0.0, 0.0, 0.0)]
        for f, g in ((gauss_momentum, gauss_position), (gauss_position, gauss_momentum)):
            with pytest.raises(ValueError):
                wigner_nc_position(f, g, pts, generic_label)
            with pytest.raises(ValueError):
                cross_wigner_standard(f, g, pts, h=2 * math.pi)
        with pytest.raises(ValueError):
            wigner_nc_params(gauss_momentum, pts, params)

    def test_only_wigner_nc_keeps_the_ignored_keyword(self):
        # wigner_nc keeps max_axis_points for a caller that still passes it
        takes = {f.__name__ for f in (wigner_generic, wigner_tau0, wigner_qm_orbit, wigner_nc,
                                      wigner_nc_position, wigner_nc_params,
                                      cross_wigner_standard)
                 if "max_axis_points" in inspect.signature(f).parameters}
        assert takes == {"wigner_nc"}

    @pytest.mark.parametrize("trip, transform", [
        ((1.0, 1.0, 1.0), wigner_generic),
        ((1.0, 1.0, 0.0), wigner_tau0),
        ((1.0, 0.0, 0.0), wigner_qm_orbit),
    ])
    def test_orbit_transforms_match_oracle_off_unit_constants(self, state_grid, trip,
                                                              transform):
        from ncwigner.core import DimensionalConstants

        label = make_orbit_label(*trip, DimensionalConstants(0.7, 1.3, -0.4))
        rng = np.random.default_rng(21)
        chi = random_hermite_gaussian(rng, state_grid, rep="momentum")
        lam = random_hermite_gaussian(rng, state_grid, rep="momentum")
        op = RankOneOperator(ket=chi, bra=lam)
        pts = aligned_points(rng, label, chi, 24)
        fast = transform(op, pts, label)
        slow = np.array([direct_wigner_oracle(op, CoadjointPoint(*p), label) for p in pts])
        assert sup_rel(fast, slow) <= 1e-8


def memo_transforms(label):
    """name -> (call(ket, bra, pts), field rep, domain coordinates) for every
    transform; wigner_nc_params reads the ket alone."""
    params = NCParams(hbar=1.0, vartheta=0.3, bfield=-0.2)
    orbit = {"wigner_generic": (wigner_generic, label),
             "wigner_tau0": (wigner_tau0, make_orbit_label(1.0, -1.0, 0.0)),
             "wigner_qm_orbit": (wigner_qm_orbit, make_orbit_label(1.0, 0.0, 0.0))}
    return {
        **{name: (lambda k, b, pts, f=f, lab=lab: f(RankOneOperator(k, b), pts, lab),
                  "momentum", ORBIT_COORDS)
           for name, (f, lab) in orbit.items()},
        "wigner_nc": (lambda k, b, pts: wigner_nc(RankOneOperator(k, b), pts, label),
                      "momentum", NC_COORDS),
        "wigner_nc_position": (lambda k, b, pts: wigner_nc_position(b, k, pts, label),
                               "position", NC_COORDS),
        "wigner_nc_params": (lambda k, b, pts: wigner_nc_params(k, pts, params),
                             "position", ORBIT_COORDS),
        "cross_wigner_standard": (
            lambda k, b, pts: cross_wigner_standard(k, b, pts, h=2.0 * math.pi),
            "position", PHASE_COORDS),
    }


def fresh(f):
    """A copy of field f with an empty memo."""
    return f.with_values(f.values)


class TestPreparedFields:
    """The ket's reflection and each field's peak |f| are built once per
    field, kept in its memo, and give the bits a fresh field gives."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", list(memo_transforms(make_orbit_label(1.0, -1.0, 1.0))))
    def test_memoised_fields_give_the_fresh_bits(self, generic_label, monkeypatch, name,
                                                 threads):
        monkeypatch.setenv("NCWIG_THREADS", threads)
        call, rep, names = memo_transforms(generic_label)[name]
        rng = np.random.default_rng(31)
        grid = default_state_grid(32, 6.0)
        ket, bra = (random_hermite_gaussian(rng, grid, rep=rep) for _ in range(2))
        g = Grid1D.symmetric(8, 1.0)
        dom = Domain4D.build(names, **dict(zip(names, (0.1, -0.2, g, g))))
        pts = rng.uniform(-1.0, 1.0, size=(80, 4))  # 80 centres: pooled at 2 threads
        for where in (pts, dom):
            call(ket, bra, where)
            assert "reflected" in ket.__dict__["_memo"]
            memo = call(ket, bra, where)
            new = call(fresh(ket), fresh(bra), where)
            assert getattr(memo, "values", memo).tobytes() == \
                getattr(new, "values", new).tobytes()

    def test_memo_arrays_are_read_only(self, generic_label, gauss_op):
        ket = fresh(gauss_op.ket)
        before = repr(ket)
        wigner_generic(RankOneOperator(ket, ket), np.zeros((1, 4)), generic_label)
        refl = wigner._reflected(ket)
        assert not refl.flags.writeable
        with pytest.raises(ValueError):
            refl[0, 0] = 0.0
        # the memo is no dataclass field: repr and equality ignore it
        assert repr(ket) == before
        assert "_memo" not in {f.name for f in dataclasses.fields(ket)}
        built = []
        first = ket._derived("probe", lambda: built.append(1) or np.zeros(3))
        assert ket._derived("probe", lambda: built.append(1) or np.ones(3)) is first
        assert built == [1] and not first.flags.writeable

    def test_non_symmetric_grid_raises_on_every_call(self, generic_label):
        g = Grid1D(32, -5.0, 0.375)
        f = ComplexField2D(Grid2D(g, g), np.ones((32, 32)), rep="momentum")
        for _ in range(2):
            with pytest.raises(ValueError, match="symmetric grid"):
                wigner_generic(RankOneOperator(f, f), np.zeros((1, 4)), generic_label)
        assert "reflected" not in f.__dict__["_memo"]

    def test_reflection_charged_before_its_first_build(self, generic_label, gauss_op,
                                                       monkeypatch):
        ket = fresh(gauss_op.ket)
        n0, n1 = ket.grid.shape
        op = RankOneOperator(ket, ket)
        monkeypatch.setattr(core, "_MAX_BYTES", 16 * n0 * n1 - 1)
        with pytest.raises(GridTooLarge, match="^reflected kets on 128x128 points need"):
            wigner_generic(op, np.zeros((1, 4)), generic_label)
        assert "reflected" not in ket.__dict__["_memo"]
        monkeypatch.undo()
        assert wigner_generic(op, np.zeros((1, 4)), generic_label).shape == (1,)

    @pytest.mark.parametrize("transform", [wigner_nc, wigner_generic])
    def test_one_point_call_skips_unique(self, generic_label, gauss_op, monkeypatch,
                                         transform):
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        for p in np.random.default_rng(26).uniform(-1.0, 1.0, size=(8, 4)):
            calls.clear()
            one = transform(gauss_op, p[None], generic_label)
            assert calls == []
            two = transform(gauss_op, np.stack([p, p]), generic_label)
            assert calls  # the pair's group takes np.unique
            assert one.tobytes() == two[:1].tobytes()

    def test_repeated_call_builds_nothing(self, generic_label, monkeypatch):
        rng = np.random.default_rng(27)
        grid = default_state_grid(32, 6.0)
        op = RankOneOperator(*(random_hermite_gaussian(rng, grid, rep="momentum")
                               for _ in range(2)))
        builds, reflected = [], []
        derived = ComplexField2D._derived
        reflect = wigner._axis_reflect

        def spy(self, key, build):
            return derived(self, key, lambda: builds.append(key) or build())

        def counted(values, g, axis):
            reflected.append(axis)
            return reflect(values, g, axis)

        monkeypatch.setattr(ComplexField2D, "_derived", spy)
        monkeypatch.setattr(wigner, "_axis_reflect", counted)
        pt = np.array([[0.3, -0.2, 0.1, 0.4]])
        first = wigner_generic(op, pt, generic_label)
        assert sorted(builds) == ["peak", "peak", "reflected"] and reflected == [0, 1]
        builds.clear()
        reflected.clear()
        assert wigner_generic(op, pt, generic_label).tobytes() == first.tobytes()
        assert builds == [] and reflected == []


class TestFieldCopies:
    """A copy or an unpickled field carries the fields alone: its values stay
    read-only and its memo starts empty, so a transform on it gives the bits
    of a fresh field."""

    COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda f: pickle.loads(pickle.dumps(f))}

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copy_drops_the_memo_and_stays_read_only(self, generic_label, how):
        rng = np.random.default_rng(41)
        grid = default_state_grid(16, 4.0)
        k, h = (random_hermite_gaussian(rng, grid, rep="momentum") for _ in range(2))
        pts = rng.uniform(-1.0, 1.0, size=(6, 4))
        size = len(pickle.dumps(k))
        wigner_generic(RankOneOperator(k, h), pts, generic_label)
        assert "reflected" in k.__dict__["_memo"]
        assert len(pickle.dumps(k)) == size
        dup = self.COPIES[how](k)
        assert "_memo" not in dup.__dict__
        assert not dup.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dup.values[:] = h.values
        assert (dup.grid, dup.rep) == (k.grid, k.rep)
        assert dup.values.tobytes() == k.values.tobytes()
        got = wigner_generic(RankOneOperator(dup, h), pts, generic_label)
        ref = wigner_generic(RankOneOperator(fresh(k), h), pts, generic_label)
        assert got.tobytes() == ref.tobytes()


class RecordedView:
    """The engine's output view, recording (run length, value shape) for
    each write into it: a row run's block, or one group's values."""

    def __init__(self, view, writes):
        self.view, self.writes = view, writes

    def __getattr__(self, name):
        return getattr(self.view, name)

    def __setitem__(self, idx, value):
        run = idx[-1].stop - idx[-1].start if idx and isinstance(idx[-1], slice) else 1
        self.writes.append((run, np.shape(value)))
        self.view[idx] = value


def spy_writes(monkeypatch):
    """List that gains (run length, value shape) for each write the engine
    makes into its output."""
    writes = []
    centre_groups = wigner._centre_groups

    def spy(*args):
        plan = centre_groups(*args)
        return plan._replace(out=RecordedView(plan.out, writes))
    monkeypatch.setattr(wigner, "_centre_groups", spy)
    return writes


class TestRowRuns:
    """Groups of a product grid that share c0 and the frequency arrays run
    along the view's last centre axis as one block: the bits of evaluating
    each centre alone."""

    @pytest.fixture(scope="class")
    def op(self):
        rng = np.random.default_rng(43)
        grid = default_state_grid(32, 6.0)
        return RankOneOperator(*(random_hermite_gaussian(rng, grid, rep="momentum")
                                 for _ in range(2)))

    @pytest.mark.parametrize("aligned", [True, False])
    def test_runs_keep_the_bits_across_chunks_and_inputs(self, generic_label, op,
                                                         monkeypatch, aligned):
        axis = op.ket.grid.axis0
        s = axis.step
        q = (aligned_frequency_grid(axis, -1.0, 8) if aligned
             else Grid1D(5, -0.7, 0.31))
        # 33 x 31 centres: with two workers the chunk boundary (group 512)
        # falls inside row 16 and cuts its run.  Each row runs from 17 steps
        # below the origin, whose windows are empty, through tail-cut
        # centres near the edge
        p1, p2 = Grid1D(33, -16 * s, s), Grid1D(31, -17 * s, s)
        dom = nc_domain(q1nc=q, q2nc=q, p1nc=p1, p2nc=p2)
        writes = spy_writes(monkeypatch)
        monkeypatch.setenv("NCWIG_THREADS", "1")
        one = wigner_nc(op, dom, generic_label).values
        assert [n for n, _ in writes] == [31] * 33
        writes.clear()
        monkeypatch.setattr(wigner, "_worker_count", lambda: 2)
        two = wigner_nc(op, dom, generic_label).values
        assert sorted(n for n, _ in writes) == [15, 16] + [31] * 32
        pts = wigner_nc(op, dom.points(), generic_label)
        assert one.tobytes() == two.tobytes() == pts.tobytes()
        # the row at c0 = 14 steps holds both kinds of zero: cells of empty
        # windows and of centres under the tail cut
        ev = wigner._GroupEvaluator(op.ket, op.bra, -1.0, -1.0)
        row = ev.row(p1.coords()[30], p2.coords().tolist())
        empty, cut, h = [], [], None
        for j, c1 in enumerate(p2.coords()):
            h, core = ev.integrand(row, c1, h)
            if core is None:
                empty.append(j)
            elif np.max(np.abs(core)) <= ev.tail_cut:
                cut.append(j)
        assert empty and cut
        for j in empty + cut:
            assert not one[:, :, 30, j].any()

    def test_a_row_of_centres_writes_one_block(self, generic_label, op, monkeypatch):
        axis = op.ket.grid.axis0
        q = aligned_frequency_grid(axis, -1.0, 8)
        p = aligned_center_grid(axis, 32)
        dom = nc_domain(q1nc=q, q2nc=q, p1nc=p, p2nc=p)
        monkeypatch.setenv("NCWIG_THREADS", "1")
        writes = spy_writes(monkeypatch)
        w = wigner_nc(op, dom, generic_label)
        assert writes == [(32, (32, 8, 8))] * 32
        # the points of the same grid are groups of 64 nodes: runs of one
        writes.clear()
        assert wigner_nc(op, dom.points(), generic_label).tobytes() == w.values.tobytes()
        assert [n for n, _ in writes] == [1] * 1024

    @pytest.mark.parametrize("case", ["table", "no_table", "off_lattice_c0"])
    def test_conjugated_rows_serve_lattice_c1_alone(self, generic_label, op, monkeypatch,
                                                    case):
        # along each row: a lattice c1 (window), an off-lattice c1 (Fourier
        # shift: from the c1 table, or from the rows when it is skipped),
        # and a lattice c1 again; both lattice c1 read the conjugated rows
        # while the shifters keep reading the rows themselves
        s = op.ket.grid.axis0.step
        q = aligned_frequency_grid(op.ket.grid.axis0, -1.0, 8)
        p1 = Grid1D(3, -s, 1.5 * s) if case == "off_lattice_c0" else Grid1D(3, -s, s)
        p2 = Grid1D(3, -2 * s, 1.5 * s)
        dom = nc_domain(q1nc=q, q2nc=q, p1nc=p1, p2nc=p2)
        built = spy_tables(monkeypatch)
        writes = spy_writes(monkeypatch)
        conjugated = []
        row = wigner._GroupEvaluator.row

        def spy_row(self, c0, c1s):
            rows = row(self, c0, c1s)
            conjugated.append(rows[5] is not None)
            return rows
        monkeypatch.setattr(wigner._GroupEvaluator, "row", spy_row)
        if case == "no_table":
            # room for the ket's reflection (16 * 32**2 bytes, built here
            # when no earlier call on op did) and the 8**2 * 3**2 result,
            # not for the result with one 32 * 32**2-byte c1 table entry
            monkeypatch.setattr(core, "_MAX_BYTES", 32 * 32 ** 2)
        w = wigner_nc(op, dom, generic_label).values
        assert [n for n, _ in writes] == [3] * 3 and conjugated == [True] * 3
        assert bool(built[0].c1_shifts) == (case == "table")
        for i, c0 in enumerate(p1.coords()):
            for j, c1 in enumerate(p2.coords()):
                alone = wigner_nc(op, nc_domain(q1nc=q, q2nc=q, p1nc=c0, p2nc=c1),
                                  generic_label).values
                assert alone.tobytes() == w[:, :, i, j].tobytes()


class TestTailProbe:
    """The tail cut first reads the integrand's row at t0 = 0; a group
    whose row stays under the cut is decided by the full pass."""

    def test_centre_vanishing_on_the_t0_row_keeps_its_value(self, generic_label):
        # bra at +4 and ket at -4 along axis 0 (widths 0.5): at c0 = 0 the
        # integrand conj(B)(t) A(-t) sits near t0 = 4 and vanishes at t0 = 0
        grid = default_state_grid(64, 8.0)
        bra = gaussian_state(grid, widths=(0.5, 0.5), center=(4.0, 0.0, 0.0, 0.0),
                             rep="momentum")
        ket = gaussian_state(grid, widths=(0.5, 0.5), center=(-4.0, 0.0, 0.0, 0.0),
                             rep="momentum")
        op = RankOneOperator(ket=ket, bra=bra)
        step = grid.axis0.step
        pt = orbit_from_wave_coords(generic_label, 0.37, -0.21, 0.0, 2 * step)
        ev = wigner._GroupEvaluator(ket, bra, 1.0, 1.0)
        h, core_ = ev.integrand(ev.row(0.0, [2 * step]), 2 * step, None)
        assert np.max(np.abs(h[grid.axis0.n // 2])) <= ev.tail_cut < np.max(np.abs(core_))
        fast = wigner_generic(op, [pt], generic_label)[0]
        slow = direct_wigner_oracle(op, pt, generic_label)
        assert abs(slow) > 1e3 * ev.tail_cut
        assert abs(fast - slow) <= 1e-8 * abs(slow)


# the labels of memo_transforms' orbit transforms
_ONE_POINT_LABELS = {"wigner_generic": (1.0, -1.0, 1.0), "wigner_tau0": (1.0, -1.0, 0.0),
                     "wigner_qm_orbit": (1.0, 0.0, 0.0)}


def points_at(name, w, c):
    """Points of memo_transforms' ``name`` whose frequencies are the rows of w
    and whose centres are the rows of c, through each transform's inverse map
    (the centres land within the engine's lattice tolerance)."""
    (w0, w1), (c0, c1) = w.T, c.T
    if name in _ONE_POINT_LABELS:
        label = make_orbit_label(*_ONE_POINT_LABELS[name])
        return np.array([orbit_from_wave_coords(label, *x).as_array()
                         for x in zip(w0, w1, c0, c1)])
    if name == "wigner_nc":
        return np.column_stack([w0, w1, c0, c1])
    if name == "wigner_nc_params":  # hbar 1, vartheta 0.3, bfield -0.2; k4* = w1
        e = 1.0 - (-0.2) * 0.3
        return np.column_stack([e * c0 - 0.3 * w1, c1, w0, w1])
    return np.column_stack([c0, c1, w0, w1])  # position forms: centres q, frequencies p


class TestOnePointCalls:
    """A call on one point takes the one-node plan, no c1 table and the
    tail probe: the bits of the same point inside a call on many."""

    @pytest.mark.parametrize("name", list(memo_transforms(make_orbit_label(1.0, -1.0, 1.0))))
    def test_one_point_matches_its_place_in_a_cloud(self, generic_label, monkeypatch, name):
        call, rep, _ = memo_transforms(generic_label)[name]
        rng = np.random.default_rng(26)
        grid = default_state_grid(32, 4.0)
        ket, bra = (random_hermite_gaussian(rng, grid, rep=rep) for _ in range(2))
        step = grid.axis0.step
        # 64 distinct centres within 6 steps, 16 of each kind: both on the
        # lattice, either off it by a fraction of a step, or both off it
        j = rng.choice(13 * 13, size=64, replace=False)
        off = np.array([(k % 2, k // 2 % 2) for k in range(64)]) * (0.37, 0.61)
        c = (np.column_stack([j // 13, j % 13]) - 6 + off) * step
        pts = points_at(name, rng.uniform(-1.5, 1.5, size=(64, 2)), c)
        plans = []
        centre_groups = wigner._centre_groups

        def spy(*args):
            plans.append(centre_groups(*args))
            return plans[-1]
        monkeypatch.setattr(wigner, "_centre_groups", spy)
        many = call(ket, bra, pts)
        (plan,) = plans
        kinds = {(numerics._lattice_steps(c0, step) is None,
                  numerics._lattice_steps(c1, step) is None)
                 for c0, c1 in zip(plan.c0, plan.c1)}
        assert plan.c0.size == 64 and len(kinds) == 4
        for i in range(64):
            assert call(ket, bra, pts[i:i + 1]).tobytes() == many[i:i + 1].tobytes()

    def test_one_group_builds_no_c1_table(self, generic_label, gauss_op, monkeypatch):
        built = spy_tables(monkeypatch)
        step = gauss_op.ket.grid.axis0.step
        pts = np.array([[0.3, -0.2, 0.0, 0.37 * step], [0.1, 0.4, 0.0, 0.37 * step]])
        wigner_nc(gauss_op, pts[:1], generic_label)
        wigner_nc(gauss_op, pts, generic_label)   # two points, one group
        assert [e.c1_shifts for e in built] == [{}, {}]
        # two groups at one off-lattice c1 share its shifts
        wigner_nc(gauss_op, pts + [0.0, 0.0, step, 0.0] * np.array([[0], [1]]), generic_label)
        assert len(built) == 3 and list(built[2].c1_shifts) == [0.37 * step]

    @pytest.mark.parametrize("domain", [False, True])
    def test_one_node_plan_matches_the_general_plan_of_one_group(self, domain):
        # one node takes the short path, two nodes at one centre the sort
        w0, w1, c0, c1 = (np.array([x]) for x in (0.3, -0.2, 0.25, -0.5))
        if domain:  # a 4 x 3 slice of frequencies at one centre
            w0, w1, c0, c1 = np.ix_(Grid1D(4, -0.6, 0.3).coords(),
                                    Grid1D(3, -0.5, 0.5).coords(), c0, c1)
        out = np.empty(np.broadcast(w0, w1, c0, c1).shape, dtype=np.complex128)
        one = wigner._centre_groups(w0, w1, c0, c1, out)
        pair = wigner._centre_groups(w0, w1, *(np.concatenate([a, a], axis=-1)
                                               for a in (c0, c1, out)))
        assert one.c0.tolist() == pair.c0.tolist() == [0.25]
        assert one.c1.tolist() == pair.c1.tolist() == [-0.5]
        assert one.rows.tolist() == pair.rows.tolist() == []
        assert list(wigner._cuts(one.runs, 0, 1)) == list(wigner._cuts(pair.runs, 0, 1)) \
            == [0, 1]
        assert one.out.shape == one.shape == out.shape
        f0, f1, idx = one.group(0)
        assert idx == () and f0.tolist() == w0.tolist() and f1.tolist() == w1.tolist()
