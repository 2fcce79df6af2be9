"""Marginal distributions and the four deformed star products.

The 2D kernels multiply phase-space functions on the position plane
(k1*, k2*) or the momentum plane (k3*, k4*):

  (f *_theta g)(k1*, k2*) = sqrt|E| / (pi |hbar theta|)
      int exp(+(2i/theta)(k1* - eta1)(k2* - eta2)) f(eta1, eta2)
          g(eta1, 2 k2* - eta2) d eta

  (f *_B g)(k3*, k4*) = sqrt|E| / (pi |hbar B|)
      int exp(-(2i/B)(xi1 - k3*)(xi2 - k4*)) f(xi1, xi2)
          g(2 k3* - xi1, xi2) d xi

with E = hbar^2 - B theta.  The 4D kernels act on Wigner fields over a
common orbit grid; their quadratic phases are recorded in
:func:`star_hbar_phase_matrix` / :func:`star_general_phase_matrix`.  Each
4D product is two GEMMs and one gather (see :func:`_star_4d`): about n^6
flops in BLAS for n points per axis, with n^4-element complex temporaries
(the chirped factors and the products C, Q and K).  Their only size
limit is :func:`_require_star4d_bytes`: a grid whose temporaries would
exceed the byte budget ``core._MAX_BYTES`` (1 GiB, about 60 points per
axis) raises GridTooLarge before any of them is allocated.  The 2D
kernels check their result and kernel matrix against the same budget.

The oscillatory quadratic phases are evaluated exactly per node and the
integration is plain trapezoid over the fields' support, protected by a
Nyquist guard (phase change per grid cell below pi/2, else GridTooCoarse).
The theta = 0 and B = 0 kernels are singular and raise DegenerateParams;
no limiting prescription is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexField2D,
    DegenerateParams,
    Grid1D,
    Grid2D,
    GridTooCoarse,
    NCParams,
    NC_COORDS,
    ORBIT_COORDS,
    OrbitLabel,
    WignerField,
    _require_bytes,
    _set_frozen_values,
)
from .numerics import _axis_reflect, _axis_shifter, _axis_weights

__all__ = [
    "MarginalField",
    "marginal_momentum",
    "marginal_position",
    "star_vartheta",
    "star_B",
    "star_hbar",
    "star_general",
    "star_hbar_phase_matrix",
    "star_general_phase_matrix",
]

_SUPPORT_CUT = 1e-8
_MAX_PHASE_PER_CELL = 0.5 * math.pi
# peak working memory of one 4D star product: about five n0*n1*n2*n3
# complex arrays are alive at once (tracemalloc: 5.00-5.01x from 16^4 to 32^4)
_STAR4D_PEAK_ARRAYS = 5


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarginalField:
    """Real marginal over the two remaining noncommutative coordinates.

    Values are copied and made read-only on construction; marginals
    compare and hash by identity."""

    grid: Grid2D
    values: np.ndarray
    coords: str              # "pnc" or "qnc"
    residual_imag: float     # largest imaginary part dropped by the reduction

    def __post_init__(self):
        _set_frozen_values(self, self.values, float, self.grid.shape, "grid")


def _marginal(w: WignerField, label: OrbitLabel, leading: bool) -> MarginalField:
    """Trapezoid integral over the two leading (q^nc) or the two trailing
    (p^nc) axes, on the grid of the other pair: one matrix-vector product
    on the 2D view of the field, with no copy of it.  A field that carries
    a label must carry ``label``."""
    if not (w.domain.names == NC_COORDS and w.domain.is_full):
        raise ValueError("marginals need a full 4D field over the nc coordinates")
    if w.label is not None and w.label != label:
        raise ValueError(f"the field carries {w.label!r}, not the {label!r} passed")
    n0, n1, n2, n3 = w.domain.shape
    grids = w.domain.grids
    pair, rest = (grids[:2], grids[2:]) if leading else (grids[2:], grids[:2])
    weights = np.outer(*(_axis_weights(g) for g in pair)).ravel()
    vals = w.values.reshape(n0 * n1, n2 * n3)
    if leading:
        vals = (weights @ vals).reshape(n2, n3)
    else:
        vals = (vals @ weights).reshape(n0, n1)
    resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    return MarginalField(Grid2D(*rest), vals.real, coords="pnc" if leading else "qnc",
                         residual_imag=resid)


def marginal_momentum(w: WignerField, label: OrbitLabel) -> MarginalField:
    """Integrate a full (q^nc, p^nc) field over q^nc.

    For a diagonal operator built from psi-hat the result equals
    |k1 a| / sqrt|k1^2 a^2 - k2 k3 b g| * |psihat(p^nc)|^2, which the tests
    verify against an independently computed right-hand side.
    """
    return _marginal(w, label, leading=True)


def marginal_position(w: WignerField, label: OrbitLabel) -> MarginalField:
    """Integrate a full (q^nc, p^nc) field over p^nc; mirror of
    :func:`marginal_momentum` with |psi(q^nc)|^2 and the same prefactor."""
    return _marginal(w, label, leading=False)


# ---------------------------------------------------------------------------
# 2D star products
# ---------------------------------------------------------------------------

def _support_extent(values: np.ndarray, coords) -> list[float]:
    """Per-axis |coordinate| extent of the region above the support cut;
    coords holds one coordinate array per axis of values."""
    mag = np.abs(values)
    cut = _SUPPORT_CUT * float(mag.max()) if mag.size else 0.0
    ext = []
    for axis, c in enumerate(coords):
        other = tuple(a for a in range(mag.ndim) if a != axis)
        idx = np.where(mag.max(axis=other) > cut)[0]
        ext.append(float(np.max(np.abs(c[idx]))) if idx.size else 0.0)
    return ext


def _check_cell_phase(rates, what: str):
    worst = max(rates)
    if worst > _MAX_PHASE_PER_CELL:
        raise GridTooCoarse(
            f"{what}: phase advances {worst:.3g} rad per grid cell "
            f"(limit {_MAX_PHASE_PER_CELL:.3g}); refine the sampling grid "
            "or shrink the output extent"
        )


def _common_plane(f: ComplexField2D, g: ComplexField2D) -> Grid2D:
    if f.grid != g.grid:
        raise ValueError("star-product factors must share one grid")
    return f.grid


def _star_2d(fv: np.ndarray, gv: np.ndarray, grid: Grid2D, out: Grid2D,
             a: float, what: str) -> np.ndarray:
    """Trapezoid sum over eta of

        exp(i a (k1 - eta1)(k2 - eta2)) f(eta1, eta2) g(eta1, 2 k2 - eta2)

    at every output node (k1, k2) of out, for samples fv, gv on grid (the
    *_theta kernel; *_B is the same sum with both axes swapped).

    The phase factors into exp(i a k1 k2) exp(-i a k1 eta2)
    exp(-i a eta1 k2) exp(i a eta1 eta2): the last factor and the weights
    are folded into f once, and the k1-eta2 factor is one
    (n_out x N) matrix, so a column k2 costs one reflected g (one inverse
    FFT off the lattice), one product and a matrix-vector contraction.
    """
    e0 = grid.axis0.coords()
    e1 = grid.axis1.coords()
    o0 = out.axis0.coords()
    o1 = out.axis1.coords()
    _require_bytes(f"{what}'s result and kernel matrix", 16 * o0.size * (o1.size + e1.size))
    s0, s1 = _support_extent(np.maximum(np.abs(fv), np.abs(gv)), (e0, e1))
    _check_cell_phase(
        [abs(a) * (np.max(np.abs(o1)) + s1) * grid.axis0.step,
         abs(a) * (np.max(np.abs(o0)) + s0) * grid.axis1.step],
        what,
    )
    w2d = np.outer(_axis_weights(grid.axis0), _axis_weights(grid.axis1))
    fw = fv * w2d * np.exp(1j * a * np.outer(e0, e1))
    k1_eta2 = np.exp(-1j * a * np.outer(o0, e1))
    # g(eta1, 2 k2 - eta2): the reversal is node-exact on the symmetric
    # grid; the shift by 2 k2 is an index translation on the lattice and a
    # Fourier shift off it
    g_ref = _axis_shifter(_axis_reflect(gv, grid.axis1, 1), grid.axis1.step, 1)
    res = np.empty((out.axis0.n, out.axis1.n), dtype=np.complex128)
    for j, k2 in enumerate(o1):
        inner = np.exp(-1j * a * k2 * e0) @ (fw * g_ref(-2.0 * k2))
        res[:, j] = np.exp(1j * a * k2 * o0) * (k1_eta2 @ inner)
    return res


def _star_pref(params: NCParams, coupling: float = 1.0) -> float:
    """The star kernels' prefactor sqrt|E| / (pi |hbar coupling|), with
    E = hbar^2 - B theta: coupling vartheta for *_theta, B for *_B and 1 for
    the 4D kernels."""
    return math.sqrt(abs(params.det)) / (math.pi * abs(params.hbar * coupling))


def star_vartheta(f: ComplexField2D, g: ComplexField2D, params: NCParams,
                  out: Grid2D | None = None) -> ComplexField2D:
    """Position-plane star product f *_theta g at fixed momenta.

    Singular at vartheta = 0 (the kernel prefactor diverges); raises
    DegenerateParams there.
    """
    if params.vartheta == 0.0:
        raise DegenerateParams("vartheta = 0 makes the *_theta kernel singular")
    grid = _common_plane(f, g)
    out = out if out is not None else grid
    res = _star_2d(f.values, g.values, grid, out, 2.0 / params.vartheta, "star_vartheta")
    return ComplexField2D(out, _star_pref(params, params.vartheta) * res, rep="position")


def star_B(f: ComplexField2D, g: ComplexField2D, params: NCParams,
           out: Grid2D | None = None) -> ComplexField2D:
    """Momentum-plane star product f *_B g at fixed positions.

    Singular at bfield = 0; raises DegenerateParams there.
    """
    if params.bfield == 0.0:
        raise DegenerateParams("bfield = 0 makes the *_B kernel singular")
    grid = _common_plane(f, g)
    out = out if out is not None else grid
    bf = params.bfield
    # exp(-(2i/B)(xi1 - k3)(xi2 - k4)) g(2 k3 - xi1, xi2) is the *_theta
    # summand with a = -2/B on the transposed plane (xi2, xi1)
    res = _star_2d(np.ascontiguousarray(f.values.T), np.ascontiguousarray(g.values.T),
                   Grid2D(grid.axis1, grid.axis0),
                   Grid2D(out.axis1, out.axis0), -2.0 / bf, "star_B")
    return ComplexField2D(out, _star_pref(params, bf) * res.T, rep="momentum")


# ---------------------------------------------------------------------------
# 4D star products
# ---------------------------------------------------------------------------

def star_hbar_phase_matrix(params: NCParams) -> np.ndarray:
    """Scaled phase matrix of the hbar kernel: (1/hbar) * symplectic form."""
    m = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0]])
    return m / params.hbar


def star_general_phase_matrix(params: NCParams) -> np.ndarray:
    """Scaled phase matrix of the three-parameter kernel, scale 1/(hbar^2 - B theta)."""
    hb, th, bf = params.hbar, params.vartheta, params.bfield
    e = params.det
    if e == 0.0:
        raise DegenerateParams("hbar^2 - bfield*vartheta = 0")
    m = np.array([[0.0, bf, -hb, 0.0],
                  [-bf, 0.0, 0.0, -hb],
                  [hb, 0.0, 0.0, th],
                  [0.0, hb, -th, 0.0]])
    return m / e


def _require_star4d_bytes(shape):
    """Raise GridTooLarge when a 4D star product on a grid of ``shape``
    would need more working memory than the byte budget."""
    need = _STAR4D_PEAK_ARRAYS * np.dtype(np.complex128).itemsize * math.prod(shape)
    _require_bytes(f"4D star products on a {'x'.join(map(str, shape))} grid", need)


def _star_4d(w1: WignerField, w2: WignerField, params: NCParams, phase_matrix,
             what: str) -> WignerField:
    """Trapezoid sum over (e, f, g, h) of

        exp(i [c_B a1 a2 + c_H1 a1 b1 + c_H2 a2 b2 + c_T b1 b2])
            f[e, f, g, h] g[e, 2b - f, 2c - g, h]

    at every output node (a, b, c, d), with a1 = x_a - x_e, a2 = y_b - y_f,
    b1 = z_c - z_g, b2 = w_d - w_h and (c_B, c_H1, c_H2, c_T) read off the
    kernel's phase matrix.

    With f' = 2b - f and g' = 2c - g, y_b = (y_f + y_f')/2 and
    z_c = (z_g + z_g')/2 hold exactly on a uniform grid, so each phase term
    splits into chirps exp(+-i phi) on the two factors and exp(+-2i phi) on
    (f', g', a, d) and on the output, with
    phi = (c_B x y + c_H1 x z + c_H2 y w + c_T z w)/2.  The sum is then
    C = F~^T G~ over (e, h), the gather Q[b, c, f', g'] = C[2b - f', 2c - g',
    f', g'] (zero off the grid) and R = Q K with K = exp(2i phi): two GEMMs
    and one gather instead of a loop over (b, c).
    """
    if w1.domain != w2.domain:
        raise ValueError("4D star-product factors must share one domain")
    if not (w1.domain.names == ORBIT_COORDS and w1.domain.is_full):
        raise ValueError("4D star products act on full orbit-coordinate fields")
    _require_star4d_bytes(w1.domain.shape)
    grids = w1.domain.grids
    coords = [g.coords() for g in grids]
    wt = [_axis_weights(g) for g in grids]
    wt4 = (wt[0][:, None, None, None] * wt[1][None, :, None, None]
           * wt[2][None, None, :, None] * wt[3][None, None, None, :])
    m = phase_matrix(params)
    supp = _support_extent(np.maximum(np.abs(w1.values), np.abs(w2.values)), coords)
    ext = [float(np.max(np.abs(c))) for c in coords]
    coef = np.abs(m)
    rates = []
    for axis in range(4):
        freq = 2.0 * sum(coef[axis, j] * (ext[j] + supp[j]) for j in range(4))
        rates.append(freq * grids[axis].step)
    _check_cell_phase(rates, what)

    n0, n1, n2, n3 = (g.n for g in grids)
    x, y, z, w = coords
    c_b, c_h1, c_h2, c_t = 2.0 * m[0, 1], 2.0 * m[0, 2], -2.0 * m[1, 3], -2.0 * m[2, 3]
    # every 4D array below has its axes in GEMM order (f, g, e, h)
    gemm_order = (1, 2, 0, 3)
    xe, yf, zg = x[:, None], y[:, None, None, None], z[:, None, None]
    phi = 0.5 * (xe * (c_b * yf + c_h1 * zg) + w * (c_h2 * yf + c_t * zg))
    chirp = np.exp(1j * phi)
    ft = ((w1.values * wt4).transpose(gemm_order) * chirp).reshape(n1 * n2, n0 * n3)
    gt = (w2.values.transpose(gemm_order) * chirp.conj()).reshape(n1 * n2, n0 * n3)
    cf = (ft @ gt.T).reshape(n1, n2, n1, n2)
    del ft, gt, chirp
    fi = 2 * np.arange(n1)[:, None] - np.arange(n1)       # [b, f']
    gi = 2 * np.arange(n2)[:, None] - np.arange(n2)       # [c, g']
    q = cf[np.clip(fi, 0, n1 - 1)[:, None, :, None], np.clip(gi, 0, n2 - 1)[None, :, None, :],
           np.arange(n1)[:, None], np.arange(n2)]
    q *= (((fi >= 0) & (fi < n1))[:, None, :, None]
          & ((gi >= 0) & (gi < n2))[None, :, None, :])
    del cf
    k = np.exp(2j * phi).reshape(n1 * n2, n0 * n3)
    r = q.reshape(n1 * n2, n1 * n2) @ k
    r *= _star_pref(params) * k.conj()
    out = np.ascontiguousarray(r.reshape(n1, n2, n0, n3).transpose(2, 0, 1, 3))
    return WignerField._adopt(w1.domain, out, w1.label)


def star_hbar(w1: WignerField, w2: WignerField, params: NCParams) -> WignerField:
    """Symplectic-phase star product of two orbit-coordinate Wigner fields.

    Kernel phase (2/hbar) [(k1*-eta1)(k3*-xi1) - (k2*-eta2)(k4*-xi2)],
    prefactor sqrt|hbar^2 - B theta| / (pi |hbar|), second factor sampled at
    (eta1, 2 k2* - eta2, 2 k3* - xi1, xi2).
    """
    return _star_4d(w1, w2, params, star_hbar_phase_matrix, "star_hbar")


def star_general(w1: WignerField, w2: WignerField, params: NCParams) -> WignerField:
    """Three-parameter star product combining the hbar, theta and B phases.

    Kernel phase (2/E) [B (k1*-eta1)(k2*-eta2) - hbar (k1*-eta1)(k3*-xi1)
    + hbar (k2*-eta2)(k4*-xi2) - theta (k3*-xi1)(k4*-xi2)] with
    E = hbar^2 - B theta; at theta = B = 0 the phase matrix reduces to
    minus the hbar kernel's (the two quadratic forms are conjugate there).
    """
    return _star_4d(w1, w2, params, star_general_phase_matrix, "star_general")
