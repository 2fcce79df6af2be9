"""The verification suites and the functions that run them.

Each suite function takes a seeded generator and returns a list of
:class:`~ncwigner.oracles.VerificationReport`; :data:`SUITES` names them
and :func:`iter_verification_suites` / :func:`run_verification_suite` run
a selection of them, each with a fresh generator from the seed.
Everything is deterministic for a fixed seed; grids are fixed here so
reruns are bitwise-reproducible.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    CoadjointPoint,
    DimensionalConstants,
    Grid1D,
    Grid2D,
    GroupElement,
    NCParams,
    RankOneOperator,
    WignerField,
    make_orbit_label,
    nc_domain,
    nc_params_from_label,
    orbit_domain,
)
from .group import group_inverse, group_multiply, identity_element, uir_apply, uir_apply_ft
from .numerics import (_axis_weights, conjugate_grid, default_state_grid,
                       momentum_representation)
from .oracles import (
    VerificationReport,
    _hermite_combo,
    direct_star_oracle,
    direct_wigner_oracle,
    expected_isometry_constant,
    gaussian_state,
    isometry_ratio,
    random_hermite_gaussian,
)
from .starprod import (marginal_momentum, marginal_position, star_B, star_general, star_hbar,
                       star_vartheta)
from .wigner import (
    aligned_center_grid,
    aligned_frequency_grid,
    cross_wigner_standard,
    orbit_from_wave_coords,
    qm_limit_check,
    wigner_generic,
    wigner_nc,
    wigner_nc_params,
    wigner_qm_orbit,
    wigner_tau0,
)

__all__ = ["VerifyConfig", "iter_verification_suites", "qm_limit_study", "run_verification_suite"]


def _rep(name, metric, tolerance, **details) -> VerificationReport:
    det = tuple((str(k), str(v)) for k, v in details.items())
    return VerificationReport(name=name, metric=float(metric),
                              tolerance=float(tolerance),
                              passed=bool(metric <= tolerance), details=det)


def _random_element(rng, scale=2.0) -> GroupElement:
    v = scale * rng.standard_normal(7)
    return GroupElement(v[0], v[1], v[2], (v[3], v[4]), (v[5], v[6]))


def _elem_distance(g: GroupElement, h: GroupElement) -> float:
    return max(
        abs(g.theta - h.theta), abs(g.phi - h.phi), abs(g.psi - h.psi),
        abs(g.q[0] - h.q[0]), abs(g.q[1] - h.q[1]),
        abs(g.p[0] - h.p[0]), abs(g.p[1] - h.p[1]),
    )


# ---------------------------------------------------------------------------

def suite_group_associativity(rng) -> list[VerificationReport]:
    consts = DimensionalConstants(1.0, 0.7, -1.3)
    worst = 0.0
    for _ in range(1000):
        g, h, k = (_random_element(rng) for _ in range(3))
        left = group_multiply(g, group_multiply(h, k, consts), consts)
        right = group_multiply(group_multiply(g, h, consts), k, consts)
        worst = max(worst, _elem_distance(left, right))
    # central elements commute with everything, exactly
    central_worst = 0.0
    for _ in range(50):
        z = GroupElement(*rng.standard_normal(3), (0.0, 0.0), (0.0, 0.0))
        g = _random_element(rng)
        central_worst = max(
            central_worst,
            _elem_distance(group_multiply(z, g, consts), group_multiply(g, z, consts)),
        )
    inv_worst = 0.0
    for _ in range(50):
        g = _random_element(rng)
        inv_worst = max(
            inv_worst,
            _elem_distance(group_multiply(g, group_inverse(g), consts), identity_element()),
        )
    metric = max(worst, central_worst, inv_worst)
    return [_rep("group_associativity", metric, 1e-12,
                 triples=1000, central_commutators=f"{central_worst:.3g}",
                 inverse_roundtrip=f"{inv_worst:.3g}")]


def suite_uir_properties(rng) -> list[VerificationReport]:
    label = make_orbit_label(1.0, -1.0, 1.0)
    grid = default_state_grid(128, 10.0)
    h = grid.axis0.step
    # low-order states keep the zero-fill translation loss at the boundary
    # far below the tolerance even after composed shifts
    f = random_hermite_gaussian(rng, grid, max_order=1, rep="landau")
    fhat = random_hermite_gaussian(rng, grid, max_order=1, rep="momentum")

    def grid_element():
        ints = rng.integers(-6, 7, size=4)
        cont = rng.standard_normal(3)
        return GroupElement(cont[0], cont[1], cont[2],
                            (ints[0] * h, ints[1] * h), (ints[2] * h, ints[3] * h))

    uni = homo = invr = 0.0
    for apply_, field in ((uir_apply, f), (uir_apply_ft, fhat)):
        fmax = float(np.max(np.abs(field.values)))
        for _ in range(12):
            g1, g2 = grid_element(), grid_element()
            a1 = apply_(g1, field, label)
            uni = max(uni, abs(a1.norm() / field.norm() - 1.0))
            lhs = apply_(g1, apply_(g2, field, label), label)
            rhs = apply_(group_multiply(g1, g2, label.consts), field, label)
            homo = max(homo, float(np.max(np.abs(lhs.values - rhs.values))) / fmax)
            back = apply_(group_inverse(g1), a1, label)
            invr = max(invr, float(np.max(np.abs(back.values - field.values))) / fmax)
    metric = max(uni, homo, invr)
    return [_rep("uir_properties", metric, 1e-10,
                 unitarity=f"{uni:.3g}", homomorphism=f"{homo:.3g}",
                 inverse=f"{invr:.3g}")]


# ---------------------------------------------------------------------------

def _aligned_probe_points(rng, label, field, count):
    """Random orbit points whose frequency/centre images sit on the lattices."""
    g0 = field.grid.axis0
    a = label.k1 * label.consts.alpha
    dk = conjugate_grid(g0).step
    pts = []
    for _ in range(count):
        m0, m1 = rng.integers(-20, 21, size=2)
        j0, j1 = rng.integers(-10, 11, size=2)
        pts.append(orbit_from_wave_coords(
            label, m0 * dk / (2 * a), m1 * dk / (2 * a), j0 * g0.step, j1 * g0.step
        ).as_array())
    return np.asarray(pts)


def suite_wigner_symmetries(rng) -> list[VerificationReport]:
    label = make_orbit_label(1.0, -1.0, 1.0)
    grid = default_state_grid(96, 10.0)
    chi = random_hermite_gaussian(rng, grid, rep="momentum")
    lam = random_hermite_gaussian(rng, grid, rep="momentum")
    pts = _aligned_probe_points(rng, label, chi, 25)

    w = wigner_generic(RankOneOperator(chi, lam), pts, label)
    scale = float(np.max(np.abs(w)))
    a, b = 1.3 - 0.4j, -0.7 + 0.9j
    w_ab = wigner_generic(
        RankOneOperator(chi.with_values(a * chi.values), lam.with_values(b * lam.values)),
        pts, label)
    sesq = float(np.max(np.abs(w_ab - a * np.conj(b) * w))) / (abs(a * b) * scale)

    w_sw = wigner_generic(RankOneOperator(lam, chi), pts, label)
    herm = float(np.max(np.abs(w - np.conj(w_sw)))) / scale

    w_diag = wigner_generic(RankOneOperator(chi, chi), pts, label)
    real = float(np.max(np.abs(w_diag.imag))) / float(np.max(np.abs(w_diag)))

    return [
        _rep("wigner_sesquilinearity", sesq, 1e-12),
        _rep("wigner_hermiticity", herm, 1e-12),
        _rep("wigner_reality", real, 1e-10),
    ]


def suite_qm_equivalence(rng) -> list[VerificationReport]:
    """k2 = k3 = 0 transform vs the textbook one through the convention map
    W_orbit(k*) = (hbar^2/|k1|) W_std(-k12*/k1, k34*/k1; h = 2 pi hbar)."""
    label = make_orbit_label(1.0, 0.0, 0.0)
    hbar = 1.0 / (label.k1 * label.consts.alpha)
    grid = default_state_grid(128, 10.0)
    worst = 0.0
    for hermite in ((0, 0), (1, 0)):
        psi = gaussian_state(grid, hermite=hermite)
        phat = momentum_representation(psi, label.k1 * label.consts.alpha)
        op = RankOneOperator(ket=phat, bra=phat)
        k1sg = aligned_frequency_grid(phat.grid.axis0, label.consts.alpha, 32, stride=2)
        k3sg = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        dom = orbit_domain(k1s=k1sg, k2s=0.0, k3s=k3sg, k4s=0.0)
        w = wigner_qm_orbit(op, dom, label)
        pts = dom.points()
        qp = np.stack([-pts[:, 0] / label.k1, -pts[:, 1] / label.k1,
                       pts[:, 2] / label.k1, pts[:, 3] / label.k1], axis=1)
        ref = cross_wigner_standard(psi, psi, qp, h=2.0 * math.pi * hbar)
        mapped = (hbar ** 2 / abs(label.k1)) * ref
        worst = max(worst, float(np.max(np.abs(w.values.ravel() - mapped)))
                    / float(np.max(np.abs(mapped))))
    return [_rep("qm_equivalence", worst, 1e-6, states="gaussian,hermite10")]


def suite_marginals(rng) -> list[VerificationReport]:
    reports = []
    grid = default_state_grid(128, 10.0)
    psi = gaussian_state(grid)
    for trip in ((1.0, -1.0, 1.0), (2.0, 1.0, -1.0), (1.0, -1.0, -2.0)):
        label = make_orbit_label(*trip)
        a = label.k1 * label.consts.alpha
        phat = momentum_representation(psi, a)
        op = RankOneOperator(ket=phat, bra=phat)
        hs = phat.grid.axis0.step
        factor = abs(a) / math.sqrt(label.abs_discriminant)

        pout = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        qint = aligned_frequency_grid(phat.grid.axis0, a, 64, stride=2)
        w4 = wigner_nc(op, nc_domain(q1nc=qint, q2nc=qint, p1nc=pout, p2nc=pout), label)
        marg = marginal_momentum(w4, label)
        idx = np.round((pout.coords() - phat.grid.axis0.origin) / hs).astype(int)
        dens = np.abs(phat.values[np.ix_(idx, idx)]) ** 2
        rhs = factor * dens
        err_m = float(np.max(np.abs(marg.values - rhs))) / float(np.max(rhs))
        mask = rhs > 0.1 * rhs.max()
        pref_err = abs(float(np.mean(marg.values[mask] / dens[mask])) - factor) / factor
        neg = -float(marg.values.min()) / float(marg.values.max())

        qout = aligned_center_grid(grid.axis0, 32, stride=2)
        pint = aligned_center_grid(phat.grid.axis0, 32, stride=1)
        w4p = wigner_nc(op, nc_domain(q1nc=qout, q2nc=qout, p1nc=pint, p2nc=pint), label)
        margp = marginal_position(w4p, label)
        idq = np.round((qout.coords() - grid.axis0.origin) / grid.axis0.step).astype(int)
        rhsp = factor * np.abs(psi.values[np.ix_(idq, idq)]) ** 2
        err_p = float(np.max(np.abs(margp.values - rhsp))) / float(np.max(rhsp))

        metric = max(err_m, err_p, pref_err, neg)
        reports.append(_rep(
            f"marginals[k1={trip[0]:g},k2={trip[1]:g},k3={trip[2]:g}]",
            metric, 1e-6,
            momentum=f"{err_m:.3g}", position=f"{err_p:.3g}",
            prefactor=f"{pref_err:.3g}",
        ))
    return reports


def _prop42_lhs(psi, params, out0, out1, which, cint, kint):
    """Marginal of the parameter-form Wigner field over two orbit coordinates.

    Integration uses a lattice substituted along the integrand's centre
    variable c0 = (hbar^2 k1* + hbar theta k4*)/E, which follows the
    field's support exactly and keeps the quadrature on the state lattice.
    """
    hb, th = params.hbar, params.vartheta
    e = params.det
    if which == "theta":
        k1v, k2v, k3v, c0v = np.meshgrid(out0.coords(), out1.coords(),
                                         kint.coords(), cint.coords(), indexing="ij")
        k4v = (e * c0v - hb ** 2 * k1v) / (hb * th)
        jac = abs(e / (hb * th))
        pts = np.stack([k1v.ravel(), k2v.ravel(), k3v.ravel(), k4v.ravel()], axis=1)
        vals = wigner_nc_params(psi, pts, params).reshape(k1v.shape)
        return jac * np.einsum("abkc,k,c->ab", vals, _axis_weights(kint), _axis_weights(cint))
    c0v, k2v, k3v, k4v = np.meshgrid(cint.coords(), kint.coords(),
                                     out0.coords(), out1.coords(), indexing="ij")
    k1v = (e * c0v - hb * th * k4v) / hb ** 2
    jac = abs(e / hb ** 2)
    pts = np.stack([k1v.ravel(), k2v.ravel(), k3v.ravel(), k4v.ravel()], axis=1)
    vals = wigner_nc_params(psi, pts, params).reshape(c0v.shape)
    return jac * np.einsum("ckab,c,k->ab", vals, _axis_weights(cint), _axis_weights(kint))


def _prop42_errors(label, coarse_state, fine_pos, fine_mom, out):
    params = nc_params_from_label(label)
    fconj = fine_pos.with_values(np.conj(fine_pos.values))
    fhconj = fine_mom.with_values(np.conj(fine_mom.values))
    cint = Grid1D(48, -8.0, 1.0 / 3.0)
    k3int = Grid1D.symmetric(32, 5.76)
    lhs = _prop42_lhs(coarse_state, params, out.axis0, out.axis1, "theta", cint, k3int)
    rhs = star_vartheta(fconj, fine_pos, params, out=out)
    e34 = float(np.max(np.abs(lhs - rhs.values)))
    star_imag = float(np.max(np.abs(rhs.values.imag))) / float(np.max(np.abs(rhs.values.real)))
    k2int = Grid1D.symmetric(48, 8.0)
    lhs = _prop42_lhs(coarse_state, params, out.axis0, out.axis1, "B", cint, k2int)
    rhs = star_B(fhconj, fine_mom, params, out=out)
    e35 = float(np.max(np.abs(lhs - rhs.values)))
    return e34, e35, star_imag


def suite_star_marginals(rng) -> list[VerificationReport]:
    """Integrating the 4D field over one conjugate pair reproduces the
    corresponding 2D star product of the state with itself."""
    coarse = gaussian_state(default_state_grid(96, 8.0))
    gf = default_state_grid(768, 13.0)
    fine_pos = gaussian_state(gf)
    # k1 * alpha = 1 for these labels, so the momentum field is self-dual
    fine_mom = gaussian_state(gf, rep="momentum")
    out = Grid2D(Grid1D.symmetric(32, 3.5), Grid1D.symmetric(32, 3.5))
    reports = []
    for trip in ((1.0, -1.0, 1.0), (1.0, -1.0, 0.5)):
        label = make_orbit_label(*trip)
        e34, e35, star_imag = _prop42_errors(label, coarse, fine_pos, fine_mom, out)
        reports.append(_rep(
            f"star_marginals[k1={trip[0]:g},k2={trip[1]:g},k3={trip[2]:g}]",
            max(e34, e35), 1e-4,
            position_side=f"{e34:.3g}", momentum_side=f"{e35:.3g}",
            star_reality=f"{star_imag:.3g}",
        ))
    return reports


def suite_isometry(rng) -> list[VerificationReport]:
    reports = []
    labels = (
        make_orbit_label(1.0, -1.0, 1.0),
        make_orbit_label(1.0, 1.0, 0.0),
        make_orbit_label(1.0, 0.0, 0.0),
    )
    base = default_state_grid(96, 10.0)
    fine = default_state_grid(192, 10.0)
    coeffs = [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
               rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
              for _ in range(5)]
    ops = [RankOneOperator(_hermite_combo(ck, base, "momentum"),
                           _hermite_combo(cb, base, "momentum"))
           for ck, cb in coeffs]
    # the same analytic states sampled on the doubled grid (c-lattice unchanged)
    fine_ops = [RankOneOperator(_hermite_combo(ck, fine, "momentum"),
                                _hermite_combo(cb, fine, "momentum"))
                for ck, cb in coeffs]
    for label in labels:
        rep = isometry_ratio(ops, label, tolerance=1e-4, stride=2)
        reports.append(rep)
        mean = float(dict(rep.details)["mean_ratio"])
        rep2 = isometry_ratio(fine_ops, label, tolerance=1e-4, stride=4)
        mean2 = float(dict(rep2.details)["mean_ratio"])
        drift = abs(mean2 - mean) / abs(mean)
        reports.append(_rep(
            f"isometry_stability_{label.sector.value}", drift, 1e-3,
            mean_base=f"{mean:.12g}", mean_doubled=f"{mean2:.12g}",
            expected=f"{expected_isometry_constant(label):.12g}",
        ))
    return reports


def qm_limit_study(psi, labels) -> tuple[np.ndarray, bool]:
    """The commutative-limit study behind the qm_limit suite and
    ``ncwig limit``: :func:`qm_limit_check` at 144 (q, p) probe points on a
    4 x 4 x 3 x 3 grid, and whether the distances strictly decrease."""
    qv = np.linspace(-1.5, 1.5, 4)
    pv = np.linspace(-1.0, 1.0, 3)
    pts = np.stack(np.meshgrid(qv, qv, pv, pv, indexing="ij"), axis=-1).reshape(-1, 4)
    dists = qm_limit_check(psi, labels, pts)
    return dists, bool(np.all(np.diff(dists) < 0))


def suite_qm_limit(rng) -> list[VerificationReport]:
    consts = DimensionalConstants(1.0, 1.0, -1.0)
    labels = [make_orbit_label(1.0, 4.0 ** -m, 4.0 ** -m, consts) for m in range(5)]
    psi = gaussian_state(default_state_grid(128, 10.0))
    dists, decreasing = qm_limit_study(psi, labels)
    metric = float(dists[-1]) if decreasing else math.inf
    return [_rep("qm_limit", metric, 1e-3,
                 decreasing=decreasing,
                 distances=",".join(f"{d:.6g}" for d in dists))]


def suite_oracle_wigner(rng) -> list[VerificationReport]:
    reports = []
    grid = default_state_grid(128, 10.0)
    for trip, op_name in (((1.0, -1.0, 1.0), wigner_generic),
                          ((1.0, 1.0, 0.0), wigner_tau0),
                          ((1.0, 0.0, 0.0), wigner_qm_orbit)):
        label = make_orbit_label(*trip)
        chi = random_hermite_gaussian(rng, grid, rep="momentum")
        lam = random_hermite_gaussian(rng, grid, rep="momentum")
        op = RankOneOperator(ket=chi, bra=lam)
        pts = _aligned_probe_points(rng, label, chi, 100)
        fast = op_name(op, pts, label)
        slow = np.array([direct_wigner_oracle(op, CoadjointPoint(*p), label)
                         for p in pts])
        err = float(np.max(np.abs(fast - slow))) / float(np.max(np.abs(slow)))
        reports.append(_rep(f"oracle_wigner_{label.sector.value}", err, 1e-8,
                            points=100))
    return reports


def suite_oracle_star(rng) -> list[VerificationReport]:
    g = Grid1D.symmetric(8, 1.5)
    dom = orbit_domain(k1s=g, k2s=g, k3s=g, k4s=g)
    x = g.coords()
    xx, yy, zz, ww = np.meshgrid(x, x, x, x, indexing="ij")
    env = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2 + ww ** 2) / 2.0)

    def rand_field():
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        return WignerField(dom, env * (c[0] + c[1] * xx + c[2] * yy * zz
                                       + c[3] * ww + c[4] * xx * ww))

    w1, w2 = rand_field(), rand_field()
    params = NCParams(hbar=2.0, vartheta=0.5, bfield=0.25)
    reports = []
    for kind, fast in (("hbar", star_hbar), ("general", star_general)):
        got = fast(w1, w2, params)
        ref = direct_star_oracle(w1.values, w2.values, dom.grids,
                                 params.hbar, params.vartheta, params.bfield, kind)
        err = float(np.max(np.abs(got.values - ref))) / float(np.max(np.abs(ref)))
        reports.append(_rep(f"oracle_star_{kind}", err, 1e-6, grid="8^4"))
    return reports


SUITES = {
    "group_associativity": suite_group_associativity,
    "uir_properties": suite_uir_properties,
    "wigner_symmetries": suite_wigner_symmetries,
    "qm_equivalence": suite_qm_equivalence,
    "marginals": suite_marginals,
    "star_marginals": suite_star_marginals,
    "isometry": suite_isometry,
    "qm_limit": suite_qm_limit,
    "oracle_wigner": suite_oracle_wigner,
    "oracle_star": suite_oracle_star,
}
SUITE_NAMES = tuple(SUITES)


@dataclass(frozen=True)
class VerifyConfig:
    """Suite selection and determinism seed. suites=None runs everything;
    unknown names raise ValueError here, before any suite runs."""

    suites: tuple[str, ...] | None = None
    seed: int = 7

    def __post_init__(self):
        unknown = set(self.suites or ()) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(f"unknown suites {sorted(unknown)}; available: "
                             f"{', '.join(SUITE_NAMES)}")


def iter_verification_suites(
        config: VerifyConfig | None = None,
) -> Iterator[tuple[str, list[VerificationReport], float]]:
    """Run the named verification suites with default grids, one at a time.

    Yields (suite name, its reports, its wall seconds) as each suite ends;
    the seconds cover that suite's work only.
    """
    config = config if config is not None else VerifyConfig()
    names = SUITE_NAMES if config.suites is None else tuple(config.suites)
    for name in names:
        t0 = time.perf_counter()
        reports = list(SUITES[name](np.random.default_rng(config.seed)))
        yield name, reports, time.perf_counter() - t0


def run_verification_suite(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run the named verification suites with default grids.

    Deterministic for a fixed seed: reports (metrics included) are
    bitwise-reproducible.  Failures are reported, not raised.
    """
    return [r for _, reports, _ in iter_verification_suites(config) for r in reports]
