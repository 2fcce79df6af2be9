"""Independent reference computations, test states and verification reports.

:func:`direct_wigner_oracle` re-derives single Wigner values by plain
trapezoid quadrature over the original integration variable with
linearly interpolated state samples -- no FFT, no Fourier shifts, and no
code shared with :mod:`ncwigner.wigner`, so agreement between the two is
evidence rather than tautology.  :func:`isometry_ratio` likewise reduces
the squared-norm integral over a 4D orbit with its own roll-based
arithmetic.

The verification suites that check the fast paths against these oracles,
and the functions that run them, live in :mod:`ncwigner._suites`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ComplexField2D,
    CoadjointPoint,
    Grid1D,
    Grid2D,
    OrbitLabel,
    RankOneOperator,
    Sector,
    duflo_moore_constant,
    plancherel_density,
)

__all__ = [
    "VerificationReport",
    "gaussian_state",
    "random_hermite_gaussian",
    "direct_wigner_oracle",
    "direct_star_oracle",
    "isometry_ratio",
    "expected_isometry_constant",
    "format_report",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification: passed iff metric <= tolerance."""

    name: str
    metric: float
    tolerance: float
    passed: bool
    details: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def format_report(r: VerificationReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    det = " ".join(f"{k}={v}" for k, v in r.details)
    line = f"{status} {r.name} metric={r.metric:.17g} tolerance={r.tolerance:.17g}"
    if det:
        line += f" [{det}]"
    return line


# ---------------------------------------------------------------------------
# Test states
# ---------------------------------------------------------------------------

def _hermite_1d(order: int, x: np.ndarray) -> np.ndarray:
    """Normalised harmonic-oscillator eigenfunction of unit width."""
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    h = np.polynomial.hermite.hermval(x, coeffs)
    norm = (2.0 ** order * math.factorial(order) * math.sqrt(math.pi)) ** -0.5
    return norm * h * np.exp(-0.5 * x ** 2)


def gaussian_state(grid: Grid2D, widths=(1.0, 1.0), center=(0.0, 0.0, 0.0, 0.0),
                   hermite=(0, 0), rep: str = "position") -> ComplexField2D:
    """Normalised Hermite-Gaussian with optional phase-space displacement.

    center = (q01, q02, p01, p02) shifts the envelope to q0 and multiplies
    by exp(i p0 . r).  Normalisation is analytic; the grid norm equals 1 to
    the truncation error of the tails.
    """
    w0, w1 = widths
    if not (w0 > 0 and w1 > 0):
        raise ValueError("widths must be positive")
    n0, n1 = hermite
    if n0 < 0 or n1 < 0:
        raise ValueError("hermite orders must be >= 0")
    q01, q02, p01, p02 = center
    x0 = grid.axis0.coords()
    x1 = grid.axis1.coords()
    f0 = _hermite_1d(n0, (x0 - q01) / w0) / math.sqrt(w0)
    f1 = _hermite_1d(n1, (x1 - q02) / w1) / math.sqrt(w1)
    vals = np.outer(f0, f1).astype(np.complex128)
    if p01 != 0.0 or p02 != 0.0:
        vals = vals * np.exp(1j * (p01 * x0[:, None] + p02 * x1[None, :]))
    return ComplexField2D(grid, vals, rep=rep)


def gaussian_state_momentum(grid: Grid2D, scale: float, widths=(1.0, 1.0),
                            center=(0.0, 0.0, 0.0, 0.0),
                            hermite=(0, 0)) -> ComplexField2D:
    """Scaled momentum representation of :func:`gaussian_state`, analytically.

    Returns samples of fhat(s) = (|a|/2 pi) int f(r) exp(-i a s.r) d^2 r for
    a = scale on the given momentum grid: a Hermite-Gaussian of widths
    1/(w a) centred at p0/a, modulated by exp(-i a q0 . s), with the global
    phase (-i)^(n0+n1) exp(i p0 . q0).  Lets momentum-side fields be built
    directly on grids adapted to the requested output resolution.
    """
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError("scale must be finite and nonzero")
    a = scale
    q01, q02, p01, p02 = center
    w0, w1 = widths
    base = gaussian_state(
        grid,
        widths=(1.0 / (w0 * abs(a)), 1.0 / (w1 * abs(a))),
        center=(p01 / a, p02 / a, -a * q01, -a * q02),
        hermite=hermite,
        rep="momentum",
    )
    phase = (-1j * math.copysign(1.0, a)) ** (hermite[0] + hermite[1]) \
        * np.exp(1j * (p01 * q01 + p02 * q02))
    return base.with_values(phase * base.values)


def random_hermite_gaussian(rng: np.random.Generator, grid: Grid2D,
                            max_order: int = 2, rep: str = "position") -> ComplexField2D:
    """Seeded random unit-norm combination of low-order Hermite-Gaussians.

    Band-limitedness and tail bounds are inherited from the basis, which
    keeps truncation error analyzable.
    """
    coeffs = np.empty((max_order + 1, max_order + 1), dtype=np.complex128)
    for n0 in range(max_order + 1):
        for n1 in range(max_order + 1):
            coeffs[n0, n1] = rng.standard_normal() + 1j * rng.standard_normal()
    return _hermite_combo(coeffs, grid, rep)


def _hermite_combo(coeffs: np.ndarray, grid: Grid2D, rep: str) -> ComplexField2D:
    """Unit-norm Hermite-Gaussian combination with fixed coefficients, so the
    same analytic state can be sampled on any grid."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for n0 in range(coeffs.shape[0]):
        for n1 in range(coeffs.shape[1]):
            vals += coeffs[n0, n1] * gaussian_state(grid, hermite=(n0, n1)).values
    h = grid.axis0.step * grid.axis1.step
    nrm = math.sqrt(h * float(np.sum(np.abs(vals) ** 2)))
    return ComplexField2D(grid, vals / nrm, rep=rep)


# ---------------------------------------------------------------------------
# Direct single-point Wigner oracle
# ---------------------------------------------------------------------------

def _bilinear(field: ComplexField2D, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Linear-interpolated samples, zero outside the grid."""
    g0, g1 = field.grid.axis0, field.grid.axis1
    x0, x1 = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                 np.asarray(x1, dtype=float))
    f0 = (x0 - g0.origin) / g0.step
    f1 = (x1 - g1.origin) / g1.step
    i0 = np.floor(f0).astype(int)
    i1 = np.floor(f1).astype(int)
    t0 = f0 - i0
    t1 = f1 - i1
    out = np.zeros(x0.shape, dtype=np.complex128)
    v = field.values
    for d0, wgt0 in ((0, 1.0 - t0), (1, t0)):
        for d1, wgt1 in ((0, 1.0 - t1), (1, t1)):
            j0 = i0 + d0
            j1 = i1 + d1
            ok = (j0 >= 0) & (j0 < g0.n) & (j1 >= 0) & (j1 < g1.n)
            w = wgt0 * wgt1
            out[ok] += w[ok] * v[np.clip(j0, 0, g0.n - 1)[ok], np.clip(j1, 0, g1.n - 1)[ok]]
    return out


def _sector_prefactor(label: OrbitLabel) -> float:
    # written out per sector on purpose: the transforms derive theirs from
    # the Duflo-Moore constant and the Plancherel density, so oracle_wigner
    # cross-checks the two
    if label.sector is Sector.GENERIC:
        return abs(label.consts.alpha) / (2.0 * math.pi * math.sqrt(label.abs_discriminant))
    if label.sector is Sector.TAU_ZERO:
        return (2.0 * math.pi) ** -1.5 / abs(label.k1)
    return (2.0 * math.pi) ** -2 / abs(label.k1)


def _oracle_coords(label: OrbitLabel, pt: CoadjointPoint):
    # frequency/centre decomposition of the sector formulas; the generic
    # expressions specialise exactly when k2 or k3 vanish
    c = label.consts
    k1, k2, k3 = label.k1, label.k2, label.k3
    d = label.discriminant
    u = (pt.k1s * k1 ** 2 * c.alpha ** 2 - pt.k4s * k1 * k2 * c.alpha * c.beta) / d
    v = pt.k2s
    c0 = pt.k3s / k1
    c1 = (k1 * pt.k4s * c.alpha ** 2 - pt.k1s * k3 * c.alpha * c.gamma) / d
    return u, v, c0, c1


def direct_wigner_oracle(op: RankOneOperator, pt: CoadjointPoint,
                         label: OrbitLabel, substep: int = 1) -> complex:
    """Single Wigner value by direct trapezoid quadrature.

    Evaluates pref * int exp(i a (u s0 + v s1)) conj(bra)(s/2 + c) ket(-s/2 + c) ds
    on an explicit s-grid of step 2*step/substep covering twice the state
    extent.  With substep = 1 every state lookup lands on a grid node; larger
    substep exercises the bilinear interpolation.  Dispatches over the three
    sectors through the prefactor.
    """
    u, v, c0, c1 = _oracle_coords(label, pt)
    pref = _sector_prefactor(label)
    alpha = label.consts.alpha
    g0, g1 = op.ket.grid.axis0, op.ket.grid.axis1

    def axis_nodes(g: Grid1D):
        step = 2.0 * g.step / substep
        count = substep * (g.n - 1) + 1
        return 2.0 * g.origin + step * np.arange(count), step

    s0, h0 = axis_nodes(g0)
    s1, h1 = axis_nodes(g1)
    w0 = np.full(s0.size, h0)
    w0[0] *= 0.5
    w0[-1] *= 0.5
    w1 = np.full(s1.size, h1)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    ss0 = s0[:, None]
    ss1 = s1[None, :]
    bra_vals = _bilinear(op.bra, 0.5 * ss0 + c0, 0.5 * ss1 + c1)
    ket_vals = _bilinear(op.ket, -0.5 * ss0 + c0, -0.5 * ss1 + c1)
    phase = np.exp(1j * alpha * (u * ss0 + v * ss1))
    integrand = phase * np.conj(bra_vals) * ket_vals
    return complex(pref * (w0 @ integrand @ w1))


# ---------------------------------------------------------------------------
# Nested-quadrature star-product oracle
# ---------------------------------------------------------------------------

def direct_star_oracle(values1: np.ndarray, values2: np.ndarray,
                       grids: tuple[Grid1D, Grid1D, Grid1D, Grid1D],
                       hbar: float, vartheta: float, bfield: float,
                       kind: str) -> np.ndarray:
    """4D star product by brute-force nested quadrature on a common grid.

    kind "hbar" uses the symplectic phase
    (2/hbar) [(x - eta1)(z - xi1) - (y - eta2)(w - xi2)]; kind "general"
    uses (2/E) [B (x-eta1)(y-eta2) - hbar (x-eta1)(z-xi1)
    + hbar (y-eta2)(w-xi2) - theta (z-xi1)(w-xi2)], E = hbar^2 - B theta.
    The second factor is sampled at (eta1, 2y - eta2, 2z - xi1, xi2) with
    zeros off the grid.  Deliberately simple: one output point at a time.
    """
    e = hbar ** 2 - bfield * vartheta
    x, y, z, w = (g.coords() for g in grids)
    ns = tuple(g.n for g in grids)
    wts = []
    for g in grids:
        t = np.full(g.n, g.step)
        t[0] *= 0.5
        t[-1] *= 0.5
        wts.append(t)
    wt4 = wts[0][:, None, None, None] * wts[1][None, :, None, None] \
        * wts[2][None, None, :, None] * wts[3][None, None, None, :]
    if kind not in ("hbar", "general"):
        raise ValueError(f"unknown star kind {kind!r}")
    if kind == "general" and e == 0.0:
        raise ValueError("degenerate parameters")
    pref = math.sqrt(abs(e)) / (math.pi * abs(hbar))
    eta1, eta2, xi1, xi2 = np.meshgrid(x, y, z, w, indexing="ij")
    out = np.zeros(ns, dtype=np.complex128)
    for b in range(ns[1]):
        # reflected index 2b - f along axis 1 (zero off the grid)
        f_idx = 2 * b - np.arange(ns[1])
        ok_f = (f_idx >= 0) & (f_idx < ns[1])
        for c in range(ns[2]):
            g_idx = 2 * c - np.arange(ns[2])
            ok_g = (g_idx >= 0) & (g_idx < ns[2])
            w2 = np.zeros(ns, dtype=np.complex128)
            sel = np.ix_(np.arange(ns[0]), np.where(ok_f)[0],
                         np.where(ok_g)[0], np.arange(ns[3]))
            w2[sel] = values2[np.ix_(np.arange(ns[0]),
                                     f_idx[ok_f], g_idx[ok_g],
                                     np.arange(ns[3]))]
            factor = values1 * w2 * wt4
            for a in range(ns[0]):
                for d in range(ns[3]):
                    a1 = x[a] - eta1
                    a2 = y[b] - eta2
                    b1 = z[c] - xi1
                    b2 = w[d] - xi2
                    if kind == "hbar":
                        phase = (2.0 / hbar) * (a1 * b1 - a2 * b2)
                    else:
                        phase = (2.0 / e) * (bfield * a1 * a2 - hbar * a1 * b1
                                             + hbar * a2 * b2 - vartheta * b1 * b2)
                    out[a, b, c, d] = np.sum(np.exp(1j * phase) * factor)
    return pref * out


# ---------------------------------------------------------------------------
# Isometry ratio
# ---------------------------------------------------------------------------

def expected_isometry_constant(label: OrbitLabel) -> float:
    """Documented squared-norm ratio int |W|^2 dk* / (||ket||^2 ||bra||^2).

    The orthogonality relation d^2 / ((2 pi)^5 a^2), with d the
    Duflo-Moore constant and a the alpha constant: 1/a^2 on the generic
    sector, 1/(2 pi a^2) for k3 = 0 and 1/((2 pi)^2 a^2) for k2 = k3 = 0.
    Checked against this oracle and frozen in the tests.
    """
    alpha = label.consts.alpha
    return duflo_moore_constant(label) ** 2 / ((2.0 * math.pi) ** 5 * alpha ** 2)


def _shifted(values: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """values[t + j] with zero fill (no wrap)."""
    n0, n1 = values.shape
    out = np.zeros_like(values)
    src0 = slice(max(j0, 0), min(n0 + j0, n0))
    dst0 = slice(src0.start - j0, src0.stop - j0)
    src1 = slice(max(j1, 0), min(n1 + j1, n1))
    dst1 = slice(src1.start - j1, src1.stop - j1)
    if src0.start < src0.stop and src1.start < src1.stop:
        out[dst0, dst1] = values[src0, src1]
    return out


def _reflected(values: np.ndarray) -> np.ndarray:
    return np.roll(np.roll(values[::-1, ::-1], 1, axis=0), 1, axis=1)


def _squared_norm_integral(op: RankOneOperator, stride: int) -> float:
    """int dc [ 4 int |bra(t+c) ket(-t+c)|^2 dt ] over the strided state lattice."""
    g0 = op.ket.grid.axis0
    g1 = op.ket.grid.axis1
    cell = g0.step * g1.step
    p = np.abs(op.bra.values) ** 2
    q = np.abs(_reflected(op.ket.values)) ** 2
    total = 0.0
    for j0 in range(-(g0.n // 2), g0.n // 2, stride):
        for j1 in range(-(g1.n // 2), g1.n // 2, stride):
            total += float(np.sum(_shifted(p, j0, j1) * _shifted(q, -j0, -j1)))
    return 4.0 * total * cell * (cell * stride * stride)


def isometry_ratio(ops, label: OrbitLabel, tolerance: float = 1e-4,
                   stride: int = 2) -> VerificationReport:
    """Constancy of int |W|^2 dk* / (||ket||^2 ||bra||^2) across operators.

    The 4D integral is reduced through the transform's frequency/centre
    split (two Fourier pairs contribute (2 pi / a)^2 by Parseval, the
    remaining centre integral is computed on the state lattice); the
    reduction itself is validated against raw 4D quadrature in the tests.
    Passes when the relative spread over the operators is below tolerance.
    """
    ops = list(ops)
    if len(ops) < 2:
        raise ValueError("need at least two operators")
    alpha = label.consts.alpha
    pref = _sector_prefactor(label)
    jac = plancherel_density(label)  # d^4 k* = jac du dv dc0 dc1
    ratios = []
    for op in ops:
        cell0 = op.ket.grid.axis0.step * op.ket.grid.axis1.step
        nket = cell0 * float(np.sum(np.abs(op.ket.values) ** 2))
        nbra = cell0 * float(np.sum(np.abs(op.bra.values) ** 2))
        n = _squared_norm_integral(op, stride)
        r = pref ** 2 * jac * (2.0 * math.pi / alpha) ** 2 * n / (nket * nbra)
        ratios.append(r)
    ratios = np.asarray(ratios)
    mean = float(np.mean(ratios))
    spread = float((ratios.max() - ratios.min()) / abs(mean))
    det = (
        ("sector", label.sector.value),
        ("mean_ratio", f"{mean:.17g}"),
        ("expected", f"{expected_isometry_constant(label):.17g}"),
        ("operators", str(len(ops))),
        ("stride", str(stride)),
    )
    return VerificationReport(
        name=f"isometry_{label.sector.value}",
        metric=spread,
        tolerance=tolerance,
        passed=spread <= tolerance,
        details=det,
    )
