import math
import tracemalloc

import numpy as np
import pytest

from ncwigner import (
    DegenerateParams,
    Grid1D,
    Grid2D,
    GridTooCoarse,
    GridTooLarge,
    NCParams,
    RankOneOperator,
    WignerField,
    default_state_grid,
    gaussian_state,
    make_orbit_label,
    marginal_momentum,
    marginal_position,
    momentum_representation,
    nc_params_from_label,
    star_B,
    star_general,
    star_general_phase_matrix,
    star_hbar,
    star_hbar_phase_matrix,
    star_vartheta,
    wigner_nc,
)
import ncwigner.core as core
import ncwigner.starprod as starprod
from ncwigner.core import nc_domain, orbit_domain
from ncwigner.numerics import _axis_reflect, _axis_shift
from ncwigner.oracles import direct_star_oracle
from ncwigner.wigner import aligned_center_grid, aligned_frequency_grid

from conftest import sup_rel


@pytest.fixture(scope="module")
def fine_gaussian():
    return gaussian_state(default_state_grid(512, 12.0))


@pytest.fixture(scope="module")
def params_11():
    return nc_params_from_label(make_orbit_label(1.0, -1.0, 1.0))


class TestStar2D:
    def test_zero_factor(self, fine_gaussian, params_11):
        z = fine_gaussian.with_values(np.zeros(fine_gaussian.grid.shape))
        out = Grid2D.square(8, 2.0)
        assert np.all(star_vartheta(z, fine_gaussian, params_11, out=out).values == 0)
        fm = fine_gaussian.with_values(fine_gaussian.values, "momentum")
        assert np.all(star_B(z, fm, params_11, out=out).values == 0)

    def test_byte_budget_runs_before_any_2d_array(self, params_11, monkeypatch):
        # each kernel charges its result and its (n_out x N) k1-eta2 matrix,
        # 16 * n_out0 * (n_out1 + N) bytes, before numpy builds anything
        class NoArrays:
            ascontiguousarray = staticmethod(np.ascontiguousarray)  # star_B's transposes

            def __getattr__(self, name):
                raise AssertionError(f"np.{name} called before the byte budget check")

        f = gaussian_state(default_state_grid(32, 6.0))
        out = Grid2D(Grid1D.symmetric(8, 2.0), Grid1D.symmetric(12, 2.0))
        fm = f.with_values(f.values, "momentum")
        need_v, need_b = 16 * 8 * (12 + 32), 16 * 12 * (8 + 32)
        monkeypatch.setattr(core, "_MAX_BYTES", need_v - 1)
        monkeypatch.setattr(starprod, "np", NoArrays())
        for fn, f_, what, need in ((star_vartheta, f, "star_vartheta", need_v),
                                   (star_B, fm, "star_B", need_b)):
            with pytest.raises(GridTooLarge, match=rf"^{what}'s result and kernel matrix need "
                               rf"about {need} bytes, above the limit of {need_v - 1} "
                               r"bytes$"):
                fn(f_, f_, params_11, out=out)

    def test_singular_kernels_rejected(self, fine_gaussian):
        with pytest.raises(DegenerateParams, match="singular"):
            star_vartheta(fine_gaussian, fine_gaussian, NCParams(hbar=1.0))
        with pytest.raises(DegenerateParams, match="singular"):
            star_B(fine_gaussian, fine_gaussian, NCParams(hbar=1.0))

    def test_diagonal_reality(self, fine_gaussian, params_11):
        fc = fine_gaussian.with_values(np.conj(fine_gaussian.values))
        out = Grid2D.square(16, 3.0)
        sv = star_vartheta(fc, fine_gaussian, params_11, out=out)
        assert np.max(np.abs(sv.values.imag)) <= 1e-8 * np.max(np.abs(sv.values.real))

    def test_nyquist_guard(self, params_11):
        coarse = gaussian_state(default_state_grid(64, 8.0))
        with pytest.raises(GridTooCoarse):
            star_vartheta(coarse, coarse, params_11, out=Grid2D.square(16, 8.0))

    def test_scaling_by_constant(self, fine_gaussian, params_11):
        # psi -> c psi scales conj(psi) * psi by |c|^2
        c = 1.3 - 0.7j
        out = Grid2D.square(8, 2.0)
        fc = fine_gaussian.with_values(np.conj(fine_gaussian.values))
        base = star_vartheta(fc, fine_gaussian, params_11, out=out)
        scaled = star_vartheta(
            fine_gaussian.with_values(np.conj(c * fine_gaussian.values)),
            fine_gaussian.with_values(c * fine_gaussian.values),
            params_11, out=out)
        assert sup_rel(scaled.values, abs(c) ** 2 * base.values) <= 1e-12

    def test_change_of_variable_consistency(self, fine_gaussian, params_11):
        # the explicit eta-substituted product phase equals the kernel's
        # antisymmetric quadratic form
        gf = fine_gaussian.grid
        # out step 0.375 = 8 state steps keeps the index-arithmetic
        # reflection of the direct path exact
        out = Grid1D.symmetric(16, 3.0)
        fc = fine_gaussian.with_values(np.conj(fine_gaussian.values))
        kernel = star_vartheta(fc, fine_gaussian, params_11,
                               out=Grid2D(out, out))
        th = params_11.vartheta
        pref = math.sqrt(abs(params_11.det)) / (math.pi * abs(params_11.hbar * th))
        e0 = gf.axis0.coords()
        e1 = gf.axis1.coords()
        w0 = np.full(e0.size, gf.axis0.step)
        w0[0] *= 0.5
        w0[-1] *= 0.5
        w1 = np.full(e1.size, gf.axis1.step)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        direct = np.empty((out.n, out.n), dtype=complex)
        for i, k1 in enumerate(out.coords()):
            for j, k2 in enumerate(out.coords()):
                tgt = 2 * k2 - e1
                idx = np.round((tgt - gf.axis1.origin) / gf.axis1.step).astype(int)
                ok = (idx >= 0) & (idx < gf.axis1.n)
                gv = np.zeros_like(fine_gaussian.values)
                gv[:, ok] = fine_gaussian.values[:, idx[ok]]
                phase = np.exp((2j / th) * np.outer(e0 - k1, e1 - k2))
                direct[i, j] = pref * np.sum(
                    phase * np.conj(fine_gaussian.values) * gv * np.outer(w0, w1))
        assert sup_rel(direct, kernel.values) <= 1e-8

    def test_star_b_change_of_variable_consistency(self, fine_gaussian, params_11):
        # mirror of the *_theta check: g reflected to 2 k3 - xi1 by index
        # arithmetic (an odd Hermite factor along xi1 shows the direction)
        # and the kernel phase written out
        gf = fine_gaussian.grid
        out = Grid1D.symmetric(16, 3.0)
        f = fine_gaussian.with_values(fine_gaussian.values, "momentum")
        g = gaussian_state(gf, hermite=(1, 0), rep="momentum")
        fc = f.with_values(np.conj(f.values))
        kernel = star_B(fc, g, params_11, out=Grid2D(out, out))
        bf = params_11.bfield
        pref = math.sqrt(abs(params_11.det)) / (math.pi * abs(params_11.hbar * bf))
        e0 = gf.axis0.coords()
        e1 = gf.axis1.coords()
        w0 = np.full(e0.size, gf.axis0.step)
        w0[0] *= 0.5
        w0[-1] *= 0.5
        w1 = np.full(e1.size, gf.axis1.step)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        direct = np.empty((out.n, out.n), dtype=complex)
        for i, k3 in enumerate(out.coords()):
            tgt = 2 * k3 - e0
            idx = np.round((tgt - gf.axis0.origin) / gf.axis0.step).astype(int)
            ok = (idx >= 0) & (idx < gf.axis0.n)
            gv = np.zeros_like(g.values)
            gv[ok, :] = g.values[idx[ok], :]
            for j, k4 in enumerate(out.coords()):
                phase = np.exp(-(2j / bf) * np.outer(e0 - k3, e1 - k4))
                direct[i, j] = pref * np.sum(phase * fc.values * gv * np.outer(w0, w1))
        assert sup_rel(direct, kernel.values) <= 1e-8

    @pytest.mark.parametrize("kind", ["vartheta", "B"])
    def test_off_lattice_output_matches_per_column_formula(self, fine_gaussian,
                                                           params_11, kind):
        # outputs shifted by a fraction of a step, so every reflection is a
        # Fourier shift; the reference is the per-column reflect-and-contract
        # evaluation of the same trapezoid sum
        gf = fine_gaussian.grid
        rep = "position" if kind == "vartheta" else "momentum"
        h = [gaussian_state(gf, hermite=n, rep=rep) for n in ((0, 0), (1, 0), (0, 1))]
        f = h[0].with_values(np.conj(0.8 * h[0].values + (0.3 - 0.4j) * h[1].values))
        g = h[0].with_values(0.6 * h[0].values + (0.2 + 0.7j) * h[2].values)
        step = 7.0 / 8
        o = Grid1D(8, -3.5 + 0.37 * step, step)
        out = Grid2D(o, o)
        e0 = gf.axis0.coords()
        e1 = gf.axis1.coords()
        w2d = np.outer(*(np.r_[0.5, np.ones(ax.n - 2), 0.5] * ax.step
                         for ax in (gf.axis0, gf.axis1)))
        ref = np.empty((o.n, o.n), dtype=complex)
        if kind == "vartheta":
            th = params_11.vartheta
            pref = math.sqrt(abs(params_11.det)) / (math.pi * abs(params_11.hbar * th))
            kernel = star_vartheta(f, g, params_11, out=out)
            for j, k2 in enumerate(o.coords()):
                g_ref = _axis_shift(_axis_reflect(g.values, gf.axis1, 1), -2.0 * k2,
                                    gf.axis1.step, 1)
                m = (2.0 / th) * (k2 - e1)
                inner = np.einsum("ij,ij->j", f.values * g_ref * w2d,
                                  np.exp(-1j * np.outer(e0, m)))
                ref[:, j] = np.exp(1j * np.outer(o.coords(), m)) @ inner
        else:
            bf = params_11.bfield
            pref = math.sqrt(abs(params_11.det)) / (math.pi * abs(params_11.hbar * bf))
            kernel = star_B(f, g, params_11, out=out)
            for i, k3 in enumerate(o.coords()):
                g_ref = _axis_shift(_axis_reflect(g.values, gf.axis0, 0), -2.0 * k3,
                                    gf.axis0.step, 0)
                m = -(2.0 / bf) * (e0 - k3)
                inner = np.einsum("ij,ij->i", f.values * g_ref * w2d,
                                  np.exp(1j * np.outer(m, e1)))
                ref[i, :] = np.exp(-1j * np.outer(m, o.coords())).T @ inner
        assert sup_rel(kernel.values, pref * ref) <= 1e-12

    def test_bilinearity(self, fine_gaussian, params_11):
        out = Grid2D.square(8, 2.0)
        f = fine_gaussian
        g2 = fine_gaussian.with_values(np.conj(fine_gaussian.values))
        a, b = 0.6 + 1.2j, -1.1 + 0.4j
        base = star_vartheta(f, g2, params_11, out=out)
        scaled = star_vartheta(f.with_values(a * f.values),
                               g2.with_values(b * g2.values), params_11, out=out)
        assert sup_rel(scaled.values, a * b * base.values) <= 1e-12
        fm = fine_gaussian.with_values(fine_gaussian.values, "momentum")
        gm = fm.with_values(np.conj(fm.values))
        base = star_B(fm, gm, params_11, out=out)
        scaled = star_B(fm.with_values(a * fm.values),
                        gm.with_values(b * gm.values), params_11, out=out)
        assert sup_rel(scaled.values, a * b * base.values) <= 1e-12

    def test_star_b_diagonal_reality(self, fine_gaussian, params_11):
        fm = gaussian_state(fine_gaussian.grid, rep="momentum")
        fc = fm.with_values(np.conj(fm.values))
        sb = star_B(fc, fm, params_11, out=Grid2D.square(12, 2.5))
        assert np.max(np.abs(sb.values.imag)) <= 1e-8 * np.max(np.abs(sb.values.real))

    def test_star_b_refinement_stability(self, params_11):
        outs = []
        for n in (384, 768):
            g = default_state_grid(n, 12.0)
            f = gaussian_state(g, rep="momentum")
            fc = f.with_values(np.conj(f.values))
            outs.append(star_B(fc, f, params_11, out=Grid2D.square(12, 2.5)).values)
        assert sup_rel(outs[0], outs[1]) <= 1e-5


def _rand4d(rng, dom, envelope, xx, yy, zz, ww):
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return WignerField(dom, envelope * (c[0] + c[1] * xx + c[2] * yy * zz
                                        + c[3] * ww + c[4] * xx * ww))


@pytest.fixture(scope="module")
def star4d_setup():
    g = Grid1D.symmetric(8, 1.5)
    dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
    x = g.coords()
    xx, yy, zz, ww = np.meshgrid(x, x, x, x, indexing="ij")
    env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
    rng = np.random.default_rng(21)
    w1 = _rand4d(rng, dom, env, xx, yy, zz, ww)
    w2 = _rand4d(rng, dom, env, xx, yy, zz, ww)
    return dom, w1, w2


class TestStar4D:
    params = NCParams(hbar=2.0, vartheta=0.5, bfield=0.25)

    def test_zero(self, star4d_setup):
        dom, w1, _ = star4d_setup
        z = WignerField(dom, np.zeros(dom.shape))
        assert np.all(star_hbar(z, w1, self.params).values == 0)
        assert np.all(star_general(w1, z, self.params).values == 0)

    def test_bilinearity(self, star4d_setup):
        dom, w1, w2 = star4d_setup
        a, b = 1.7 - 0.3j, -0.6 + 2.1j
        base = star_hbar(w1, w2, self.params)
        scaled = star_hbar(WignerField(dom, a * w1.values),
                           WignerField(dom, b * w2.values), self.params)
        assert sup_rel(scaled.values, a * b * base.values) <= 1e-12

    def test_hbar_against_nested_oracle(self, star4d_setup):
        dom, w1, w2 = star4d_setup
        got = star_hbar(w1, w2, self.params)
        ref = direct_star_oracle(w1.values, w2.values, dom.grids,
                                 self.params.hbar, self.params.vartheta,
                                 self.params.bfield, "hbar")
        assert sup_rel(got.values, ref) <= 1e-6

    def test_general_against_nested_oracle(self, star4d_setup):
        dom, w1, w2 = star4d_setup
        got = star_general(w1, w2, self.params)
        ref = direct_star_oracle(w1.values, w2.values, dom.grids,
                                 self.params.hbar, self.params.vartheta,
                                 self.params.bfield, "general")
        assert sup_rel(got.values, ref) <= 1e-6

    def test_phase_matrix_reduction(self):
        # at vartheta = bfield = 0 the general matrix is the hbar matrix
        # scaled by -1/hbar * hbar^2 / hbar^2... entrywise it equals minus
        # the hbar kernel's scaled matrix (conjugate quadratic form)
        p0 = NCParams(hbar=2.0)
        assert np.array_equal(star_general_phase_matrix(p0),
                              -star_hbar_phase_matrix(p0))
        # entry pattern of the general matrix
        p = NCParams(hbar=2.0, vartheta=0.5, bfield=0.25)
        m = star_general_phase_matrix(p) * p.det
        expect = np.array([[0, 0.25, -2.0, 0],
                           [-0.25, 0, 0, -2.0],
                           [2.0, 0, 0, 0.5],
                           [0, 2.0, -0.5, 0]])
        assert np.array_equal(m, expect)

    def test_memory_guard_runs_before_any_4d_temporary(self, star4d_setup, monkeypatch):
        dom, w1, w2 = star4d_setup
        need = 5 * 16 * 8 ** 4

        def not_reached(*args, **kwargs):
            raise AssertionError("a 4D temporary was allocated before the memory guard")

        monkeypatch.setattr(core, "_MAX_BYTES", need - 1)
        monkeypatch.setattr(starprod, "_axis_weights", not_reached)
        for fn in (star_hbar, star_general):
            with pytest.raises(GridTooLarge, match=rf"^4D star products on a 8x8x8x8 grid need "
                               rf"about {need} bytes, above the limit of {need - 1} bytes$"):
                fn(w1, w2, self.params)

    def test_memory_estimate_matches_the_measured_peak(self):
        # the guard's estimate of five n^4 complex arrays against tracemalloc
        # at 16^4; the default limit admits 32^4 grids
        g = Grid1D.symmetric(16, 1.5)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        xx, yy, zz, ww = np.meshgrid(*(g.coords(),) * 4, indexing="ij")
        env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
        w = _rand4d(np.random.default_rng(16), dom, env, xx, yy, zz, ww)
        need = 5 * 16 * 16 ** 4
        for fn in (star_hbar, star_general):
            tracemalloc.start()
            try:
                fn(w, w, self.params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.95 * need <= peak <= 1.05 * need
        assert 5 * 16 * 32 ** 4 < core._MAX_BYTES

    def test_degenerate_general_rejected(self, star4d_setup):
        dom, w1, w2 = star4d_setup
        with pytest.raises(DegenerateParams):
            star_general(w1, w2, NCParams(hbar=1.0, vartheta=2.0, bfield=0.5))

    def test_unequal_grids_against_nested_oracle(self):
        # a different n on every axis and a non-symmetric origin on axis 1,
        # so the reflected index 2b - f' leaves the grid at both ends
        grids = (Grid1D.symmetric(6, 1.2), Grid1D(n=7, origin=-1.0, step=0.4),
                 Grid1D.symmetric(8, 1.5), Grid1D.symmetric(9, 1.5))
        dom = orbit_domain(k1s=grids[0], k2s=grids[1], k3s=grids[2], k4s=grids[3])
        xx, yy, zz, ww = np.meshgrid(*(g.coords() for g in grids), indexing="ij")
        env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
        rng = np.random.default_rng(5)
        w1 = _rand4d(rng, dom, env, xx, yy, zz, ww)
        w2 = _rand4d(rng, dom, env, xx, yy, zz, ww)
        p = self.params
        for kind, fn in (("hbar", star_hbar), ("general", star_general)):
            ref = direct_star_oracle(w1.values, w2.values, grids,
                                     p.hbar, p.vartheta, p.bfield, kind)
            assert sup_rel(fn(w1, w2, p).values, ref) <= 1e-6

    def test_general_is_conjugate_hbar_without_theta_and_b(self, star4d_setup):
        # at vartheta = bfield = 0 the two phase forms are conjugate, so
        # star_general(f, g) = conj(star_hbar(conj f, conj g))
        dom, w1, w2 = star4d_setup
        p0 = NCParams(hbar=2.0)
        gen = star_general(w1, w2, p0).values
        hb = star_hbar(WignerField(dom, np.conj(w1.values)),
                       WignerField(dom, np.conj(w2.values)), p0).values
        assert sup_rel(gen, np.conj(hb)) <= 1e-12

    def test_coarse_grid_rejected(self):
        g = Grid1D.symmetric(8, 6.0)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        x = g.coords()
        xx, yy, zz, ww = np.meshgrid(x, x, x, x, indexing="ij")
        env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
        w = _rand4d(np.random.default_rng(3), dom, env, xx, yy, zz, ww)
        for fn in (star_hbar, star_general):
            with pytest.raises(GridTooCoarse):
                fn(w, w, self.params)

    def test_raised_cap_against_pointwise_quadrature(self):
        n = 24
        g = Grid1D.symmetric(n, 1.5)
        dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
        x = g.coords()
        xx, yy, zz, ww = np.meshgrid(x, x, x, x, indexing="ij")
        env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
        rng = np.random.default_rng(24)
        w1 = _rand4d(rng, dom, env, xx, yy, zz, ww)
        w2 = _rand4d(rng, dom, env, xx, yy, zz, ww)
        got = star_general(w1, w2, self.params).values
        hb, th, bf = self.params.hbar, self.params.vartheta, self.params.bfield
        e = self.params.det
        wt = np.full(n, g.step)
        wt[0] = wt[-1] = 0.5 * g.step
        weights = np.einsum("e,f,g,h->efgh", wt, wt, wt, wt)
        idx = rng.integers(0, n, size=(16, 4))
        ref = []
        for a, b, c, d in idx:
            # second factor at (eta1, 2 k2* - eta2, 2 k3* - xi1, xi2), zero off the grid
            second = np.zeros_like(w2.values)
            for f in range(n):
                for gg in range(n):
                    if 0 <= 2 * b - f < n and 0 <= 2 * c - gg < n:
                        second[:, f, gg, :] = w2.values[:, 2 * b - f, 2 * c - gg, :]
            a1, a2, b1, b2 = x[a] - xx, x[b] - yy, x[c] - zz, x[d] - ww
            phase = (2.0 / e) * (bf * a1 * a2 - hb * a1 * b1 + hb * a2 * b2 - th * b1 * b2)
            ref.append(np.sum(np.exp(1j * phase) * w1.values * second * weights))
        ref = math.sqrt(abs(e)) / (math.pi * abs(hb)) * np.array(ref)
        assert sup_rel(got[tuple(idx.T)], ref) <= 1e-6


class TestMarginals:
    def test_nonnegative_and_prefactor(self, gauss_position):
        label = make_orbit_label(1.0, -1.0, 1.0)
        phat = momentum_representation(gauss_position, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        pout = aligned_center_grid(phat.grid.axis0, 16, stride=2)
        qint = aligned_frequency_grid(phat.grid.axis0, 1.0, 64, stride=2)
        w4 = wigner_nc(op, nc_domain(q1nc=qint, q2nc=qint, p1nc=pout, p2nc=pout),
                       label, max_axis_points=64)
        marg = marginal_momentum(w4, label)
        assert marg.values.min() >= -1e-10 * marg.values.max()
        assert marg.residual_imag <= 1e-10 * marg.values.max()
        hs = phat.grid.axis0.step
        idx = np.round((pout.coords() - phat.grid.axis0.origin) / hs).astype(int)
        dens = np.abs(phat.values[np.ix_(idx, idx)]) ** 2
        factor = 1.0 / math.sqrt(2.0)  # |k1 a| / sqrt|1 - (-1)(1)|
        assert sup_rel(marg.values, factor * dens) <= 1e-6

    def test_position_marginal_commutative_prefactor_is_one(self, gauss_position):
        # k2 = k3 = 0 would leave the generic sector; the nearly commutative
        # label keeps the prefactor within 1e-7 of 1
        label = make_orbit_label(1.0, 1e-7, 1e-7)
        phat = momentum_representation(gauss_position, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        gpos = gauss_position.grid
        qout = aligned_center_grid(gpos.axis0, 16, stride=2)
        pint = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        w4 = wigner_nc(op, nc_domain(q1nc=qout, q2nc=qout, p1nc=pint, p2nc=pint), label)
        marg = marginal_position(w4, label)
        idx = np.round((qout.coords() - gpos.axis0.origin) / gpos.axis0.step).astype(int)
        dens = np.abs(gauss_position.values[np.ix_(idx, idx)]) ** 2
        assert sup_rel(marg.values, dens) <= 1e-6

    def test_marginals_are_trapezoid_sums_without_a_field_copy(self):
        g = Grid1D.symmetric(16, 2.0)
        h = Grid1D(n=32, origin=-3.0, step=0.2)
        dom = nc_domain(q1nc=g, q2nc=h, p1nc=h, p2nc=g)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        w = WignerField(dom, vals)
        label = make_orbit_label(1.0, -1.0, 1.0)
        wg, wh = (np.full(ax.n, ax.step) for ax in (g, h))
        wg[0] = wg[-1] = 0.5 * g.step
        wh[0] = wh[-1] = 0.5 * h.step
        ref_p = sum(wg[i] * wh[j] * vals[i, j] for i in range(g.n) for j in range(h.n))
        ref_q = sum(wh[i] * wg[j] * vals[:, :, i, j] for i in range(h.n) for j in range(g.n))
        for fn, ref in ((marginal_momentum, ref_p), (marginal_position, ref_q)):
            tracemalloc.start()
            try:
                marg = fn(w, label)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sup_rel(marg.values, ref.real) <= 1e-13
            assert abs(marg.residual_imag - np.max(np.abs(ref.imag))) \
                <= 1e-13 * np.max(np.abs(ref))
            assert peak < 0.25 * vals.nbytes

    def test_label_must_match_the_field(self):
        g = Grid1D.symmetric(4, 2.0)
        dom = nc_domain(q1nc=g, q2nc=g, p1nc=g, p2nc=g)
        vals = np.ones(dom.shape)
        label = make_orbit_label(1.0, -1.0, 1.0)
        other = make_orbit_label(1.0, -1.0, 0.5)
        for fn in (marginal_momentum, marginal_position):
            assert fn(WignerField(dom, vals, label), label).values.shape == (4, 4)
            assert fn(WignerField(dom, vals), other).values.shape == (4, 4)
            with pytest.raises(ValueError, match="the field carries") as exc:
                fn(WignerField(dom, vals, label), other)
            assert "\n" not in str(exc.value)

    def test_requires_full_nc_field(self, gauss_position):
        label = make_orbit_label(1.0, -1.0, 1.0)
        phat = momentum_representation(gauss_position, 1.0)
        op = RankOneOperator(ket=phat, bra=phat)
        g = Grid1D.symmetric(8, 2.0)
        w = wigner_nc(op, nc_domain(q1nc=g, q2nc=g, p1nc=0.0, p2nc=0.0), label)
        with pytest.raises(ValueError):
            marginal_momentum(w, label)


class TestProp42ThirdLabel:
    def test_asymmetric_label(self):
        # the verification suite covers (1,-1,1) and (1,-1,0.5); a third
        # distinct label completes the >= 3 requirement, reusing the
        # suite's centre-substituted integration
        from ncwigner._suites import _prop42_errors

        label = make_orbit_label(1.0, 1.0, -1.0)
        coarse = gaussian_state(default_state_grid(96, 8.0))
        gf = default_state_grid(768, 13.0)
        fine_pos = gaussian_state(gf)
        fine_mom = gaussian_state(gf, rep="momentum")
        out = Grid2D(Grid1D.symmetric(32, 3.5), Grid1D.symmetric(32, 3.5))
        e34, e35, _ = _prop42_errors(label, coarse, fine_pos, fine_mom, out)
        assert e34 <= 1e-4
        assert e35 <= 1e-4
