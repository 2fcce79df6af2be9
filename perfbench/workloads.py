"""The four benchmark workloads.

Each ``setup_<name>(rng, tr, workdir)`` builds the seeded inputs through the
library's public API, warms every timed code path on a tiny input and
returns a :class:`Workload`.  ``Workload.rounds`` holds one op list per
round of a cycle; the lists differ only in their labels, so a whole cycle's
counts repeat exactly.  An op's ``run`` is the timed part; its ``check`` is untimed and
returns (error, tolerance) against an independent reference, computed
once per op and cached.  ``counts`` are computed from the input sizes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ncwigner as nw
from ncwigner import Grid1D, Grid2D, cli, oracles


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]                  # timed; returns output arrays
    check: Callable[[tuple], tuple]           # untimed; (error, tolerance)
    outputs: int                              # output samples produced
    counts: dict = field(default_factory=dict)


@dataclass
class Workload:
    inputs: str                               # input sizes, for the report
    rounds: list                              # op lists, one per round of a cycle


MARGINAL_LABELS = ((1.0, -1.0, 1.0), (2.0, 1.0, -1.0), (1.0, -1.0, -2.0))
PARAMS_LABELS = ((1.0, -1.0, 1.0), (1.0, -1.0, 0.5))
PROBE_LABELS = (((1.0, -1.0, 1.0), nw.wigner_generic),
                ((1.0, 1.0, 0.0), nw.wigner_tau0),
                ((1.0, 0.0, 0.0), nw.wigner_qm_orbit))

# tolerances of the verification suites these checks come from
TOL_MARGINALS = 1e-6        # marginals suite
TOL_STAR_MARGINALS = 1e-4   # star_marginals suite (absolute)
TOL_ORACLE_STAR = 1e-6      # oracle_star suite
TOL_ORACLE_WIGNER = 1e-8    # oracle_wigner suite
TOL_CONJ_IDENTITY = 1e-12   # star_general = conj(star_hbar(conj, conj)) at theta = B = 0


def _cached(compute):
    """Memoise a zero-argument reference computation."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]
    return get


def _trapz(g: Grid1D) -> np.ndarray:
    w = np.full(g.n, g.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# ---------------------------------------------------------------------------
# grid_marginals
# ---------------------------------------------------------------------------

def setup_grid_marginals(rng, tr, workdir) -> Workload:
    grid = tr.call(nw.default_state_grid, 128, 10.0)
    psi = tr.call(nw.random_hermite_gaussian, rng, grid, max_order=1)
    # every seed uses all three labels, so every seed does the same work
    order = [int(i) for i in rng.permutation(len(MARGINAL_LABELS))]
    fft_size = grid.axis0.n * grid.axis1.n
    mom_ops, pos_ops = [], []
    for i in order:
        trip = MARGINAL_LABELS[i]
        label = tr.call(nw.make_orbit_label, *trip)
        a = label.k1 * label.consts.alpha
        phat = tr.call(nw.momentum_representation, psi, a)
        op = tr.call(nw.RankOneOperator, phat, phat)
        factor = abs(a) / math.sqrt(label.abs_discriminant)
        tag = "k1={:g},k2={:g},k3={:g}".format(*trip)

        pout = tr.call(nw.aligned_center_grid, phat.grid.axis0, 32, stride=1)
        qint = tr.call(nw.aligned_frequency_grid, phat.grid.axis0, a, 64, stride=2)
        dom_m = tr.call(nw.nc_domain, q1nc=qint, q2nc=qint, p1nc=pout, p2nc=pout)
        qout = tr.call(nw.aligned_center_grid, grid.axis0, 32, stride=2)
        pint = tr.call(nw.aligned_center_grid, phat.grid.axis0, 32, stride=1)
        dom_p = tr.call(nw.nc_domain, q1nc=qout, q2nc=qout, p1nc=pint, p2nc=pint)

        def run_m(op=op, dom=dom_m, label=label):
            w4 = tr.call(nw.wigner_nc, op, dom, label, max_axis_points=64)
            marg = tr.call(nw.marginal_momentum, w4, label)
            return w4.values, marg.values

        def run_p(op=op, dom=dom_p, label=label):
            w4 = tr.call(nw.wigner_nc, op, dom, label)
            marg = tr.call(nw.marginal_position, w4, label)
            return w4.values, marg.values

        # closed form: |k1 a| / sqrt|D| times the density on the output lattice
        def rhs_m(phat=phat, pout=pout, factor=factor):
            g = phat.grid.axis0
            idx = np.round((pout.coords() - g.origin) / g.step).astype(int)
            return factor * np.abs(phat.values[np.ix_(idx, idx)]) ** 2

        def rhs_p(qout=qout, factor=factor):
            g = psi.grid.axis0
            idx = np.round((qout.coords() - g.origin) / g.step).astype(int)
            return factor * np.abs(psi.values[np.ix_(idx, idx)]) ** 2

        def closed_form_check(ref):
            def check(out):
                rhs = ref()
                return float(np.max(np.abs(out[1] - rhs)) / np.max(rhs)), TOL_MARGINALS
            return check

        mom_ops.append(Op(f"momentum[{tag}]", run_m, closed_form_check(_cached(rhs_m)),
                          outputs=64 ** 2 * 32 ** 2 + 32 ** 2,
                          counts={"points": 64 ** 2 * 32 ** 2, "groups": 32 ** 2,
                                  "fft_size": fft_size}))
        pos_ops.append(Op(f"position[{tag}]", run_p, closed_form_check(_cached(rhs_p)),
                          outputs=32 ** 4 + 32 ** 2,
                          counts={"points": 32 ** 4, "groups": 32 ** 2,
                                  "fft_size": fft_size}))

    # warm-up: the same calls on a 4^4 domain
    small = Grid1D.symmetric(4, 0.5)
    with tr.span("bench", "warmup"):
        w = tr.call(nw.wigner_nc, op, nw.nc_domain(q1nc=small, q2nc=small, p1nc=small,
                                                p2nc=small), label)
        tr.call(nw.marginal_momentum, w, label)
        tr.call(nw.marginal_position, w, label)

    n = len(order)
    return Workload(
        "state 128^2 Hermite-Gaussian (order <= 1); momentum op 64^2 x 32^2 points, "
        "position op 32^4 points; labels " + ", ".join(str(MARGINAL_LABELS[i]) for i in order),
        [[mom_ops[k], pos_ops[(k + 1) % n]] for k in range(n)],
    )


# ---------------------------------------------------------------------------
# params_cloud
# ---------------------------------------------------------------------------

def _hermite_combo(tr, coeffs, grid, momentum: bool):
    """sum c[n0, n1] h_n0 h_n1, sampled analytically in position or in the
    k1 alpha = 1 momentum representation, so coarse and fine grids carry the
    same state."""
    rep = "momentum" if momentum else "position"
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for (n0, n1), c in np.ndenumerate(coeffs):
        if momentum:
            f = tr.call(oracles.gaussian_state_momentum, grid, 1.0, hermite=(n0, n1))
        else:
            f = tr.call(nw.gaussian_state, grid, hermite=(n0, n1))
        vals += c * f.values
    return tr.call(nw.ComplexField2D, grid, vals, rep)


def _prop42_cloud(params, out, which, cint, kint):
    """Orbit points whose Wigner values integrate to the star marginal, the
    lattice substituted along the centre c0 = (hbar^2 k1* + hbar theta k4*)/E;
    returns the points and the trapezoid reduction of their values."""
    hb, th = params.hbar, params.vartheta
    e = params.det
    if which == "theta":
        k1v, k2v, k3v, c0v = np.meshgrid(out.axis0.coords(), out.axis1.coords(),
                                         kint.coords(), cint.coords(), indexing="ij")
        k4v = (e * c0v - hb ** 2 * k1v) / (hb * th)
        jac = abs(e / (hb * th))
        wk, wc = _trapz(kint), _trapz(cint)

        def reduce(vals, shape=k1v.shape):
            return jac * np.einsum("abkc,k,c->ab", vals.reshape(shape), wk, wc)
    else:
        c0v, k2v, k3v, k4v = np.meshgrid(cint.coords(), kint.coords(),
                                         out.axis0.coords(), out.axis1.coords(),
                                         indexing="ij")
        k1v = (e * c0v - hb * th * k4v) / hb ** 2
        jac = abs(e / hb ** 2)
        wc, wk = _trapz(cint), _trapz(kint)

        def reduce(vals, shape=c0v.shape):
            return jac * np.einsum("ckab,c,k->ab", vals.reshape(shape), wc, wk)
    pts = np.stack([k1v.ravel(), k2v.ravel(), k3v.ravel(), k4v.ravel()], axis=1)
    return pts, reduce


def setup_params_cloud(rng, tr, workdir) -> Workload:
    coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    coeffs /= math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    coarse_grid = tr.call(nw.default_state_grid, 96, 8.0)
    fine_grid = tr.call(nw.default_state_grid, 768, 13.0)
    coarse = _hermite_combo(tr, coeffs, coarse_grid, momentum=False)
    fine_pos = _hermite_combo(tr, coeffs, fine_grid, momentum=False)
    fine_mom = _hermite_combo(tr, coeffs, fine_grid, momentum=True)
    fpos_conj = tr.call(fine_pos.with_values, np.conj(fine_pos.values))
    fmom_conj = tr.call(fine_mom.with_values, np.conj(fine_mom.values))
    # 32^2 outputs on [-3.5, 3.5), shifted by a seeded fraction of a step
    step = 7.0 / 32
    shift = float(rng.uniform(-0.5, 0.5)) * step
    g_out = Grid1D(32, -3.5 + shift, step)
    out = Grid2D(g_out, g_out)
    cint = Grid1D(48, -8.0, 1.0 / 3.0)
    k3int = Grid1D.symmetric(32, 5.76)
    k2int = Grid1D.symmetric(48, 8.0)
    fft_size = coarse_grid.axis0.n * coarse_grid.axis1.n
    order = [int(i) for i in rng.permutation(len(PARAMS_LABELS))]

    def identity_check(out_):
        return float(np.max(np.abs(out_[1] - out_[2]))), TOL_STAR_MARGINALS

    rounds = []
    for i in order:
        trip = PARAMS_LABELS[i]
        label = tr.call(nw.make_orbit_label, *trip)
        params = tr.call(nw.nc_params_from_label, label)
        tag = "k1={:g},k2={:g},k3={:g}".format(*trip)
        pts_t, red_t = _prop42_cloud(params, out, "theta", cint, k3int)
        pts_b, red_b = _prop42_cloud(params, out, "B", cint, k2int)

        def run_t(pts=pts_t, red=red_t, params=params):
            vals = tr.call(nw.wigner_nc_params, coarse, pts, params)
            star = tr.call(nw.star_vartheta, fpos_conj, fine_pos, params, out=out)
            return vals, red(vals), star.values

        def run_b(pts=pts_b, red=red_b, params=params):
            vals = tr.call(nw.wigner_nc_params, coarse, pts, params)
            star = tr.call(nw.star_B, fmom_conj, fine_mom, params, out=out)
            return vals, red(vals), star.values

        rounds.append([
            Op(f"theta_side[{tag}]", run_t, identity_check,
               outputs=len(pts_t) + out.axis0.n * out.axis1.n,
               counts={"points": len(pts_t), "groups": cint.n * out.axis1.n,
                       "fft_size": fft_size}),
            Op(f"B_side[{tag}]", run_b, identity_check,
               outputs=len(pts_b) + out.axis0.n * out.axis1.n,
               counts={"points": len(pts_b), "groups": cint.n * k2int.n,
                       "fft_size": fft_size}),
        ])

    # warm-up: a 4^4 cloud and 4^2-output star products
    small = Grid1D.symmetric(4, 0.5)
    small_out = Grid2D(small, small)
    with tr.span("bench", "warmup"):
        pts, _ = _prop42_cloud(params, small_out, "theta", Grid1D(4, -1.0, 1.0 / 3.0), small)
        tr.call(nw.wigner_nc_params, coarse, pts, params)
        tr.call(nw.star_vartheta, fpos_conj, fine_pos, params, out=small_out)
        tr.call(nw.star_B, fmom_conj, fine_mom, params, out=small_out)

    return Workload(
        f"state 96^2 (transform) and 768^2 (star products), Hermite order <= 1; "
        f"theta cloud {len(pts_t)} points, B cloud {len(pts_b)} points; 32^2 outputs; labels "
        + ", ".join(str(PARAMS_LABELS[i]) for i in order),
        rounds,
    )


# ---------------------------------------------------------------------------
# star4d
# ---------------------------------------------------------------------------

STAR_PARAMS = (2.0, 0.5, 0.25)
STAR_EXTENT = 1.5


def _star_point_reference(v1, v2, grids, params, kind, idx):
    """Nested-quadrature star product at single output points, written from
    the kernel formulas in the starprod docstrings."""
    x, y, z, w = (g.coords() for g in grids)
    wt = [_trapz(g) for g in grids]
    wt4 = np.einsum("e,f,g,h->efgh", *wt)
    hb, th, bf = params.hbar, params.vartheta, params.bfield
    e = params.det
    pref = math.sqrt(abs(e)) / (math.pi * abs(hb))
    n1, n2 = v2.shape[1], v2.shape[2]
    out = []
    for a, b, c, d in idx:
        fi = 2 * b - np.arange(n1)
        gi = 2 * c - np.arange(n2)
        okf = (fi >= 0) & (fi < n1)
        okg = (gi >= 0) & (gi < n2)
        second = np.zeros_like(v2)
        second[np.ix_(np.arange(v2.shape[0]), np.where(okf)[0], np.where(okg)[0],
                      np.arange(v2.shape[3]))] = \
            v2[np.ix_(np.arange(v2.shape[0]), fi[okf], gi[okg], np.arange(v2.shape[3]))]
        a1 = (x[a] - x)[:, None, None, None]
        a2 = (y[b] - y)[None, :, None, None]
        b1 = (z[c] - z)[None, None, :, None]
        b2 = (w[d] - w)[None, None, None, :]
        if kind == "hbar":
            phase = (2.0 / hb) * (a1 * b1 - a2 * b2)
        else:
            phase = (2.0 / e) * (bf * a1 * a2 - hb * a1 * b1 + hb * a2 * b2 - th * b1 * b2)
        out.append(np.sum(np.exp(1j * phase) * v1 * second * wt4))
    return pref * np.array(out)


def setup_star4d(rng, tr, workdir) -> Workload:
    params = tr.call(nw.NCParams, *STAR_PARAMS)
    params0 = tr.call(nw.NCParams, STAR_PARAMS[0], 0.0, 0.0)
    fields = {}
    for n in (8, 12, 16):
        g = Grid1D.symmetric(n, STAR_EXTENT)
        dom = tr.call(nw.orbit_domain, k1s=g, k2s=g, k3s=g, k4s=g)
        x = g.coords()
        xx, yy, zz, ww = np.meshgrid(x, x, x, x, indexing="ij")
        env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)
        pair = []
        for _ in range(2):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            vals = env * (c[0] + c[1] * xx + c[2] * yy * zz + c[3] * ww + c[4] * xx * ww)
            pair.append(tr.call(nw.WignerField, dom, vals))
        fields[n] = pair

    def star_op(kind, fn, n):
        w1, w2 = fields[n]
        grids = w1.domain.grids

        def run():
            return (tr.call(fn, w1, w2, params).values,)

        if n == 8:
            ref = _cached(lambda: tr.call(nw.direct_star_oracle, w1.values, w2.values,
                                          grids, *STAR_PARAMS, kind))
            pick = slice(None)
        else:
            # the full nested quadrature is O(n^8); check a seeded subsample
            idx = [tuple(int(v) for v in rng.integers(0, n, size=4)) for _ in range(24)]
            ref = _cached(lambda: _star_point_reference(w1.values, w2.values, grids,
                                                        params, kind, idx))
            pick = tuple(np.array(idx).T)

        def check(out):
            got = out[0]
            r = ref()
            scale = max(float(np.max(np.abs(r))), float(np.max(np.abs(got))))
            return float(np.max(np.abs(got[pick] - r))) / scale, TOL_ORACLE_STAR

        return Op(f"{kind}[{n}^4]", run, check, outputs=n ** 4,
                  counts={"star4d_ops": n ** 8})

    f12, g12 = fields[12]
    f12c = tr.call(nw.WignerField, f12.domain, np.conj(f12.values))
    g12c = tr.call(nw.WignerField, g12.domain, np.conj(g12.values))

    def run_identity():
        gen = tr.call(nw.star_general, f12, g12, params0)
        hb = tr.call(nw.star_hbar, f12c, g12c, params0)
        return gen.values, hb.values

    def check_identity(out):
        gen, hb = out
        return float(np.max(np.abs(gen - np.conj(hb))) / np.max(np.abs(gen))), \
            TOL_CONJ_IDENTITY

    ops = []
    for n in (8, 12, 16):
        ops.append(star_op("hbar", nw.star_hbar, n))
        ops.append(star_op("general", nw.star_general, n))
    ops.append(Op("conj_identity[12^4]", run_identity, check_identity,
                  outputs=2 * 12 ** 4,
                  counts={"star4d_ops": 2 * 12 ** 8}))

    with tr.span("bench", "warmup"):
        w1, w2 = fields[8]
        tr.call(nw.star_hbar, w1, w2, params)
        tr.call(nw.star_general, w1, w2, params)

    return Workload(
        "two seeded Gaussian-envelope polynomial fields per size, 8^4 / 12^4 / 16^4 on "
        f"[-{STAR_EXTENT}, {STAR_EXTENT}); (hbar, vartheta, bfield) = {STAR_PARAMS}; "
        "conj identity at (2, 0, 0) on 12^4",
        [ops],
    )


# ---------------------------------------------------------------------------
# probe_calls
# ---------------------------------------------------------------------------

# (centres, points per centre, frequencies on the FFT lattice, copies per round).
# Single-point calls are more than half of a round and the slices are its
# slowest tenth but one call, so p50 and p90 each fall inside one class of
# like calls rather than between classes.
PROBE_SHAPES = (
    (1, 1, True, 22),
    (1, 1, False, 22),
    (16, 1, True, 4),
    (16, 1, False, 4),
    (8, 64, True, 4),
    (8, 64, False, 4),
    (128, 1, False, 3),
    (100, 40, True, 3),
    (16, 1024, True, 1),
    (128, 32, False, 1),
)
PROBE_SLICES = 9          # 128^2 slices, written as csv + json, read back from csv
PROBE_CHECK_POINTS = 12   # oracle subsample per call


def _orbit_points(label, w0, w1, c0, c1):
    """Vectorised orbit_from_wave_coords: the nc_to_orbit inverse applied to
    q^nc = (w0, w1), p^nc = k1 (c0, c1)."""
    c = label.consts
    k1a = label.k1 * c.alpha
    p2 = label.k1 * c1
    return np.stack([(k1a * w0 + label.k2 * c.beta * p2) / k1a, w1, label.k1 * c0,
                     (label.k3 * c.gamma * w0 + k1a * p2) / k1a], axis=1)


def setup_probe_calls(rng, tr, workdir) -> Workload:
    grid = tr.call(nw.default_state_grid, 128, 10.0)
    g0 = grid.axis0
    h = g0.step
    dk = 2.0 * math.pi / (g0.n * h)
    fft_size = g0.n * grid.axis1.n
    sectors = []
    for trip, fn in PROBE_LABELS:
        label = tr.call(nw.make_orbit_label, *trip)
        chi = tr.call(nw.random_hermite_gaussian, rng, grid, rep="momentum")
        lam = tr.call(nw.random_hermite_gaussian, rng, grid, rep="momentum")
        sectors.append((label, fn, tr.call(nw.RankOneOperator, chi, lam)))

    def oracle_check(op, label, pts, sub):
        ref = _cached(lambda: np.array([
            tr.call(nw.direct_wigner_oracle, op, nw.CoadjointPoint(*pts[i]), label)
            for i in sub]))

        def check(out):
            got = out[0].ravel()
            r = ref()
            scale = max(float(np.max(np.abs(r))), float(np.max(np.abs(got))))
            return float(np.max(np.abs(got[sub] - r))) / scale, TOL_ORACLE_WIGNER
        return check

    specs = [shape for shape in PROBE_SHAPES for _ in range(shape[3])]
    ops = []
    for k, (groups, per, aligned, _) in enumerate(specs):
        label, fn, op = sectors[k % len(sectors)]
        a = label.k1 * label.consts.alpha
        # distinct lattice centres within +-10 steps, frequencies within +-20 lattice steps
        flat = rng.choice(21 * 21, size=groups, replace=False)
        j = np.stack([flat // 21 - 10, flat % 21 - 10], axis=1)
        m = rng.integers(-20, 21, size=(groups * per, 2)).astype(float)
        if not aligned:
            m += rng.uniform(0.05, 0.95, size=m.shape)
        pts = _orbit_points(label, m[:, 0] * dk / (2 * a), m[:, 1] * dk / (2 * a),
                            np.repeat(j[:, 0] * h, per), np.repeat(j[:, 1] * h, per))
        sub = rng.choice(len(pts), size=min(PROBE_CHECK_POINTS, len(pts)), replace=False)

        def run(fn=fn, op=op, pts=pts, label=label):
            return (tr.call(fn, op, pts, label),)

        ops.append(Op(f"{fn.__name__}[{groups}x{per},{'fft' if aligned else 'off'}]",
                      run, oracle_check(op, label, pts, sub), outputs=len(pts),
                      counts={"points": len(pts), "groups": groups, "fft_size": fft_size}))

    # 128^2 slices over (k1*, k2*) at a lattice centre: one on the FFT lattice
    # (qm sector), one off it (tau0 sector, extent 8 keeps it inside the band)
    for s in range(PROBE_SLICES):
        label, fn, op = sectors[2 - s % 2]
        jc = rng.integers(-10, 11, size=2)
        if s % 2 == 0:
            gk = tr.call(nw.aligned_frequency_grid, g0, label.consts.alpha, 128)
        else:
            gk = Grid1D.symmetric(128, 8.0)
        dom = tr.call(nw.orbit_domain, k1s=gk, k2s=gk, k3s=float(jc[0] * h * label.k1),
                      k4s=float(jc[1] * h * label.k1))
        pts = dom.points()
        sub = rng.choice(len(pts), size=PROBE_CHECK_POINTS, replace=False)
        csv_path = os.path.join(workdir, f"slice{s}.csv")
        json_path = os.path.join(workdir, f"slice{s}.json")
        meta = {"representation": "momentum", "transform": fn.__name__}

        def run_slice(fn=fn, op=op, dom=dom, label=label, csv_path=csv_path,
                      json_path=json_path, meta=meta):
            field_ = tr.call(fn, op, dom, label)
            g = field_.domain.grids
            tr.call(cli.write_field_file, csv_path, (g[0], g[1]), field_.values, meta, "csv")
            tr.call(cli.write_field_file, json_path, (g[0], g[1]), field_.values, meta, "json")
            back = tr.call(cli.read_field_file, csv_path)
            return field_.values, back.values

        wigner_check = oracle_check(op, label, pts, sub)

        def check_slice(out, wigner_check=wigner_check):
            written, back = out
            if not np.array_equal(written, back):   # csv round trip must be bit-exact
                return math.inf, 0.0
            return wigner_check(out)

        def written_bytes(csv_path=csv_path, json_path=json_path):
            return os.path.getsize(csv_path) + os.path.getsize(json_path)

        ops.append(Op(f"{fn.__name__}[slice128^2,{'fft' if s % 2 == 0 else 'off'}]",
                      run_slice, check_slice, outputs=len(pts),
                      counts={"points": len(pts), "groups": 1, "fft_size": fft_size,
                              "bytes_written": written_bytes}))

    order = [int(i) for i in rng.permutation(len(ops))]
    ops = [ops[i] for i in order]

    small = np.zeros((1, 4))
    with tr.span("bench", "warmup"):
        for label, fn, op in sectors:
            tr.call(fn, op, small, label)

    return Workload(
        f"state 128^2, three sectors; {len(ops)} calls per round: "
        + ", ".join(f"{s[3]}x({s[0]} centres x {s[1]} pts, {'fft' if s[2] else 'off'})"
                    for s in PROBE_SHAPES)
        + f", {PROBE_SLICES}x 128^2 slice + csv/json write + csv read",
        [ops],
    )


SETUPS = {
    "grid_marginals": setup_grid_marginals,
    "params_cloud": setup_params_cloud,
    "star4d": setup_star4d,
    "probe_calls": setup_probe_calls,
}
