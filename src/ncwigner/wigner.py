"""Wigner-type transforms on four-dimensional coadjoint orbits.

Every transform in this module evaluates one family of integrals,

    I(w; c) = int exp(i (w0 om0 s0 + w1 om1 s1)) conj(B)(s/2 + c) A(-s/2 + c) d^2 s,

for a bra field B and a ket field A, differing only in how the output
coordinates map to frequencies w, centres c and scales (om0, om1), and in
the prefactor.  The substitution s = 2t turns the integrand into a product
of the shifted fields conj(B)(t + c) A(-t + c) on the state grid, so for
each centre the whole frequency batch is one FFT (when the requested
frequencies land on the conjugate lattice, at least ``_FFT_MIN_POINTS`` of
them) or one phase contraction (otherwise).  Along each axis, a centre a
whole number of state steps away builds the product on the fields' overlap
window alone, and any other centre Fourier-shifts the fields through
:func:`ncwigner.numerics._axis_shifter`.  When every c0 is a whole number
of state steps, a call shifts the fields along axis 1 once per off-lattice
c1 that two or more groups share, into one table (32 n0 n1 bytes per c1,
skipped when it would not fit the byte budget ``core._MAX_BYTES``, which
results are charged to before they are allocated).  The ket's reflection
and each field's peak |f|, for the tail cut, are built once per field and
kept in its memo (``ComplexField2D._derived``).  A slower, structurally
independent quadrature lives in :mod:`ncwigner.oracles`.

The engine has three parts.  ``_centre_groups`` plans a call: each group is
the nodes that share a centre, times the frequency axes, in the order of
(c0, c1), and the plan marks where each c0's row of groups and each row run
(consecutive one-node groups at one c0, next to each other along the
output's last centre axis) begins.  One ``_GroupEvaluator`` holds what the
fields and the table give, read-only once built, and serves every pool
worker.  ``_phase_integral`` splits the groups into one chunk per worker;
each chunk owns its integrand buffer, its result block, its last frequency
step and the current c0's rows, and writes each row run at once.

Each transform below is one call of the runner ``_transform`` with its
entry of this coordinate dictionary (k1, k2, k3 label the sector; a, b, g
are the dimensional constants; D = k1^2 a^2 - k2 k3 b g):

  generic orbit transform      w0 = (k1* k1^2 a^2 - k4* k1 k2 a b)/D
  (momentum-space fields)      w1 = k2*,  om = a
                               c  = (k3*/k1, (k1 k4* a^2 - k1* k3 a g)/D)
                               pref = d / ((2 pi)^(7/2) sqrt(rho))

  k3 = 0 sector                same maps with k3 = 0, same pref
  k2 = k3 = 0 sector           same maps, same pref

    The sector prefactor reads d, the Duflo-Moore constant, and rho, the
    Plancherel density, off core.duflo_moore_constant and
    core.plancherel_density.  On the three sectors it is |a|/(2 pi sqrt|D|),
    (2 pi)^(-3/2)/|k1| and (2 pi)^(-2)/|k1|.

  nc-coordinate form           w = q^nc, om = -k1 a, c = p^nc,
  (momentum-space fields)      pref = |k1 a|^3 / ((2 pi)^2 sqrt|D|)

  nc position form             w = p^nc, om = +k1 a, c = q^nc, same pref
  (position-space fields)

  parameter form               w0 = k3*, om0 = 1/hbar; E = hbar^2 - B theta
  (position-space fields)      w1 = (hbar k4* + B k1*)/E, om1 = 1
                               c = ((hbar^2 k1* + hbar theta k4*)/E, k2*)
                               pref = 1/(4 pi^2 |hbar| sqrt|E|)

  textbook cross transform     w = p, om = 2 pi/h, c = q, pref = 1/h^2
  (position-space fields)

The k2 = k3 = 0 orbit transform equals the textbook transform after an
explicit convention map (hbar = 1/(k1 a)), verified numerically in the
tests:

  W_orbit(k*) = (hbar^2 / |k1|)
                * W_std(q = -(k1*, k2*)/k1, p = (k3*, k4*)/k1; h = 2 pi hbar),

provided the momentum-space fields are the (k1 a)-scaled transforms of the
position-space ones; for k1 = a = 1 the two transforms coincide point for
point.  Documented isometry constants (squared-norm ratio of the output
over the orbit to ||ket||^2 ||bra||^2): 1/a^2 on the generic sector,
1/(2 pi a^2) for k3 = 0 and 1/(4 pi^2 a^2) for k2 = k3 = 0.
"""

from __future__ import annotations

import collections
import ctypes
import bisect
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import (
    ComplexField2D,
    CoadjointPoint,
    Domain4D,
    GridTooCoarse,
    NCCoords,
    NCParams,
    NC_COORDS,
    ORBIT_COORDS,
    OrbitLabel,
    PHASE_COORDS,
    RankOneOperator,
    Sector,
    SectorMismatch,
    WignerField,
    _fits_bytes,
    _require_bytes,
    _square_is_normal,
    DegenerateParams,
    Grid1D,
    InvalidLabel,
    duflo_moore_constant,
    nc_to_orbit,
    orbit_to_nc,
    plancherel_density,
)
from .numerics import (_ALIGN_TOL, _axis_reflect, _axis_shift, _axis_shifter, _lattice_steps,
                       conjugate_grid)

__all__ = [
    "wigner_generic",
    "wigner_nc",
    "wigner_nc_position",
    "wigner_nc_params",
    "wigner_tau0",
    "wigner_qm_orbit",
    "cross_wigner_standard",
    "qm_limit_check",
    "aligned_frequency_grid",
    "aligned_center_grid",
    "orbit_from_wave_coords",
    "TAU0_TO_QM_PREFACTOR_RATIO",
]

# Ratio of the k3 = 0 sector transform to the k2 = k3 = 0 one in the common
# k2 -> 0 limit; the two sectors carry different normalisation constants.
TAU0_TO_QM_PREFACTOR_RATIO = math.sqrt(2.0 * math.pi)

# lattice frequencies at one centre from which the FFT replaces the contraction
_FFT_MIN_POINTS = 16

# bytes of each evaluator's result block for row runs (_phase_integral)
_RUN_BYTES = 2 << 20


def _worker_count() -> int:
    """Engine threads: NCWIG_THREADS, else min(4, cpus); never above the cpus.
    Read afresh at each pooled engine call (os.cpu_count() reads the system
    each time), so calls with fewer than 64 groups skip it."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("NCWIG_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    return min(v, cpus) if v > 0 else min(4, cpus)


def _as_points(pts) -> np.ndarray:
    """Normalise a point array or a sequence of points to a finite (M, 4)
    array; anything else raises a one-line ValueError."""
    if not isinstance(pts, np.ndarray):
        pts = [p.as_array() if isinstance(p, (CoadjointPoint, NCCoords)) else p
               for p in pts] or np.empty((0, 4))
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"point arrays must have shape (M, 4), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


# ---------------------------------------------------------------------------
# The phase-integral engine
# ---------------------------------------------------------------------------

def _overlap(r, n):
    """Slices of the window [|r|, n - |r|) and of its images shifted by +r
    and -r: where f(j + r) and g(j - r) both lie on an n-point axis."""
    return tuple(slice(abs(r) + s, n - abs(r) + s) for s in (0, r, -r))


def _lattice_fft(h, i0, cols, i1):
    """(np.fft.ifft2(h) * h.size)[i0, cols[i1]], bitwise: ifft2's axis-1
    pass over every row, then its axis-0 pass over the columns ``cols``
    only (every column when None), scaled after the gather."""
    a = np.fft.ifft(h, axis=1)
    if cols is not None:
        a = a[:, cols]
    return np.fft.ifft(a, axis=0)[i0, i1] * h.size


def _reflected(ket: ComplexField2D) -> np.ndarray:
    """The ket's samples at -t on its symmetric grid, built once per field
    (16 n0 n1 bytes, charged to the byte budget before the build) and held
    while the field lives."""
    def build():
        g0, g1 = ket.grid.axis0, ket.grid.axis1
        _require_bytes(f"reflected kets on {g0.n}x{g1.n} points", 16 * g0.n * g1.n)
        return _axis_reflect(_axis_reflect(ket.values, g0, 0), g1, 1)
    return ket._derived("reflected", build)


def _peak(f: ComplexField2D) -> float:
    """max |f| over the field's samples, once per field."""
    return f._derived("peak", lambda: float(np.max(np.abs(f.values))))


class _GroupEvaluator:
    """Evaluates the phase integral for batches of points sharing a centre.
    Read-only once ``share_c1_shifts`` has run, so every pool worker shares
    one; what changes from centre to centre (the integrand buffer and the
    current c0's rows) belongs to the caller."""

    def __init__(self, ket: ComplexField2D, bra: ComplexField2D,
                 omega0: float, omega1: float):
        if ket.grid != bra.grid:
            raise ValueError("ket and bra must share one grid")
        self.g0 = ket.grid.axis0
        self.g1 = ket.grid.axis1
        self.t0 = self.g0.coords()
        self.t1 = self.g1.coords()
        self.omega0 = omega0
        self.omega1 = omega1
        self.bra = bra.values
        self.ket_refl = _reflected(ket)
        self.cell = self.g0.step * self.g1.step
        self.dk0 = conjugate_grid(self.g0).step
        self.dk1 = conjugate_grid(self.g1).step
        # integrand magnitudes below this carry no quadrature information;
        # such centre groups integrate to (numerical) zero and are exempt
        # from the resolution guard.  The reflection permutes the ket's
        # samples, so its peak is the ket's own.
        self.tail_cut = 1e-13 * (_peak(bra) * _peak(ket))
        # off-lattice c1 -> (conj(bra), ket_refl) Fourier-shifted along axis
        # 1 by (+c1, -c1) over every row (share_c1_shifts)
        self.c1_shifts = {}

    def check_resolution(self, w0, w1):
        """Requested phase frequencies must stay inside the grid Nyquist band."""
        m0 = 2.0 * self.omega0 * np.asarray(w0) / self.dk0
        m1 = 2.0 * self.omega1 * np.asarray(w1) / self.dk1
        if np.any(np.abs(m0) > self.g0.n / 2 + _ALIGN_TOL) or \
           np.any(np.abs(m1) > self.g1.n / 2 + _ALIGN_TOL):
            raise GridTooCoarse(
                "requested output frequencies exceed the state grid's Nyquist "
                "band; refine the state grid or shrink the output extent"
            )
        return m0, m1

    def share_c1_shifts(self, c0, c1, result_bytes):
        """Fill c1_shifts for the group centres (c0, c1) when every c0 is a
        whole number of state steps, so that each group reads its window
        rows of the table.  It holds each off-lattice c1 that two or more
        groups share (a c1 of one group gains nothing from it) at 32 n0 n1
        bytes, charged with the result's ``result_bytes`` to the byte
        budget; a table that would not fit is skipped, and the groups then
        shift their own rows."""
        if any(_lattice_steps(c, self.g0.step) is None for c in set(c0.tolist())):
            return
        step = self.g1.step
        off = [c for c, k in collections.Counter(c1.tolist()).items()
               if k > 1 and _lattice_steps(c, step) is None]
        if not off or not _fits_bytes(result_bytes + 32 * self.bra.size * len(off)):
            return
        bra, ket = _axis_shifter(self.bra, step, 1), _axis_shifter(self.ket_refl, step, 1)
        for c in off:
            self.c1_shifts[c] = (np.conj(bra(c)), ket(-c))

    def row(self, c0, c1s):
        """The c0's field rows for its centres (c0, c1), c1 in c1s, that one
        caller takes in turn, or None where every integrand at c0 vanishes.

        A c0 of r whole state steps keeps the rows of the overlap window
        [|r|, n0 - |r|), any other every row, Fourier-shifted; the axis-1
        shifters of both run their FFT when an off-lattice c1 asks (no
        c1_shifts for an off-lattice c0).  When two or more c1s are whole
        numbers of state steps with a nonempty window, the conjugate of the
        bra rows is taken once here for them to read (a copy: the shifters
        keep reading the rows themselves); otherwise each conjugates its own
        window (``integrand``)."""
        r0 = _lattice_steps(c0, self.g0.step)
        if r0 is None:
            rows, bra_rows, ket_rows = slice(None), None, None
            bra = _axis_shift(self.bra, c0, self.g0.step, axis=0)
            ket = _axis_shift(self.ket_refl, -c0, self.g0.step, axis=0)
        elif 2 * abs(r0) < self.g0.n:
            rows, bra_rows, ket_rows = _overlap(r0, self.g0.n)
            bra, ket = self.bra[bra_rows], self.ket_refl[ket_rows]
        else:
            return None
        lattice = len(c1s) > 1 and sum(
            r is not None and 2 * abs(r) < self.g1.n
            for r in (_lattice_steps(c1, self.g1.step) for c1 in c1s)) > 1
        return (rows, bra_rows, ket_rows, bra, ket, np.conj(bra) if lattice else None,
                _axis_shifter(bra, self.g1.step, 1), _axis_shifter(ket, self.g1.step, 1))

    def integrand(self, row, c1, h):
        """(h, core): the integrand conj(B)(t + c) A(-t + c) at the centre
        (c0, c1), for the c0's ``row``, in the buffer h, and the view of h
        that can be nonzero; core is None where h vanishes.  h is the
        caller's buffer, built with np.zeros when None and zeroed otherwise.

        A c1 of r whole state steps takes the overlap window [|r|, n1 - |r|)
        of the rows' columns, any other the rows' Fourier shift (or their
        window rows of c1_shifts), so h holds the bits of the zero-filled
        shifted copies without building them.  The bra rows are conjugated
        straight into h, or read from the row's conjugate, and multiplied
        in place by the ket: no conjugate temporary."""
        n1 = self.g1.n
        r1 = _lattice_steps(c1, self.g1.step)
        if row is None or (r1 is not None and 2 * abs(r1) >= n1):
            return h, None
        rows, bra_rows, ket_rows, bra, ket, conj, bra_shift, ket_shift = row
        if h is None:
            h = np.zeros((self.g0.n, n1), dtype=np.complex128)
        else:
            h.fill(0)
        if r1 is None:
            core = h[rows]
            shifted = self.c1_shifts.get(c1)
            if shifted is not None:
                np.multiply(shifted[0][bra_rows], shifted[1][ket_rows], out=core)
            else:
                np.conjugate(bra_shift(c1), out=core)
                core *= ket_shift(-c1)
        else:
            cols, bra_cols, ket_cols = _overlap(r1, n1)
            core = h[rows, cols]
            if conj is None:
                np.conjugate(bra[:, bra_cols], out=core)
                core *= ket[:, ket_cols]
            else:
                np.multiply(conj[:, bra_cols], ket[:, ket_cols], out=core)
        return h, core

    def frequency_step(self, w0, w1):
        """Frequency-side work for (w0, w1) pairs that share their centres.

        Runs the resolution guard, picks the FFT when the frequencies sit
        on the conjugate lattice and number at least ``_FFT_MIN_POINTS``,
        else the contraction, and builds the lattice indices or contraction
        matrices and the grid-origin phase.  w0 and w1 broadcast against each other: one
        group's 1-D point arrays, or for a domain one array over the group's
        nodes and one over the frequency axes, whose pairs fill a product.
        Returns contract(h) -> I(w; c) for an integrand h of those centres.
        """
        m0, m1 = self.check_resolution(w0, w1)
        r0, r1 = np.round(m0), np.round(m1)
        aligned = (np.all(np.abs(m0 - r0) <= _ALIGN_TOL)
                   and np.all(np.abs(m1 - r1) <= _ALIGN_TOL))
        size = np.broadcast(w0, w1).size
        n0, n1 = self.g0.n, self.g1.n
        if aligned and size >= _FFT_MIN_POINTS:
            i0 = (r0.astype(int)) % n0
            cols, i1 = np.unique((r1.astype(int)) % n1, return_inverse=True)
            i1 = i1.reshape(np.shape(r1))
            if cols.size == n1:
                cols = None
            kap0 = r0 * self.dk0
            kap1 = r1 * self.dk1

            def transform(h):
                return _lattice_fft(h, i0, cols, i1)
        else:
            kap0 = 2.0 * self.omega0 * np.asarray(w0)
            kap1 = 2.0 * self.omega1 * np.asarray(w1)
            if size == 1:  # one pair: np.unique's answer, without its sort
                u0, u1 = kap0.reshape(1), kap1.reshape(1)
                inv0 = inv1 = np.zeros(1, dtype=np.intp)
            else:
                u0, inv0 = np.unique(kap0, return_inverse=True)
                u1, inv1 = np.unique(kap1, return_inverse=True)
            if u0.size * u1.size <= 4 * size:
                # pairs (near-)fill a product grid, as a product grid's
                # always do: separable contraction
                e0 = np.exp(1j * np.outer(u0, self.t0 - self.g0.origin))
                e1 = np.exp(1j * np.outer(u1, self.t1 - self.g1.origin))
                inv0 = inv0.reshape(kap0.shape)
                inv1 = inv1.reshape(kap1.shape)

                def transform(h):
                    return (e0 @ h @ e1.T)[inv0, inv1]
            else:
                # scattered points; each row's sum is independent of its
                # position, so the values do not depend on the point order
                e0 = np.exp(1j * np.outer(kap0, self.t0 - self.g0.origin))
                e1 = np.exp(1j * np.outer(kap1, self.t1 - self.g1.origin))

                def transform(h):
                    return np.einsum("mi,mi->m", e0 @ h, e1)
        # fold in the grid origin so the phases reference absolute coordinates
        phase = np.exp(1j * (kap0 * self.g0.origin + kap1 * self.g1.origin))
        scale = 4.0 * self.cell

        def contract(h):
            return scale * (transform(h) * phase)
        return contract


@functools.cache
def _blas_local_threads_setter():
    """OpenBLAS's per-thread ``openblas_set_num_threads_local(n)`` from the
    OpenBLAS this process has loaded (found in /proc/self/maps), or None
    where there is no such library or symbol.  Looked up once, at the first
    threaded engine call."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_set_num_threads_local", "scipy_openblas_set_num_threads_local64_",
                    "openblas_set_num_threads_local64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = ctypes.c_int
                return fn
    return None


def _cuts(starts, lo, hi):
    """lo, the sorted group indices ``starts`` (every index when None) that
    lie inside (lo, hi), and hi: the bounds of the parts they cut [lo, hi)
    into."""
    if starts is None:
        return range(lo, hi + 1)
    return [lo, *starts[bisect.bisect_right(starts, lo):bisect.bisect_left(starts, hi)].tolist(),
            hi]


def _phase_integral(ket, bra, omega0, omega1, plan):
    """The engine's one loop: I(w; c) into plan.out for each centre group
    of ``plan`` (``_centre_groups``); returns plan.out.

    One evaluator per call serves every worker.  With at least 64 groups,
    and only then is the worker count read, pool threads take contiguous
    chunks and run BLAS on one thread each, so the pool alone sets the
    parallelism; the calling thread keeps its BLAS threads.  A chunk takes
    its groups a c0 row at a time and the plan's row runs cut at its edges
    and at a ``_RUN_BYTES`` block.  It owns its integrand buffer, its block,
    its last frequency step (kept while the frequency arrays are the same
    objects or equal) and the current c0's rows.  A run of one writes its
    value at the group's idx, a longer one the block over the run's slice."""
    out, shape, c0s, c1s, group = plan.out, plan.shape, plan.c0, plan.c1, plan.group
    n_groups = c0s.size
    if not n_groups:
        return out
    evaluator = _GroupEvaluator(ket, bra, omega0, omega1)
    evaluator.share_c1_shifts(c0s, c1s, out.nbytes)
    size = math.prod(shape)
    cap = max(1, _RUN_BYTES // (out.itemsize * size))

    def run(lo, hi):
        h = block = last = None

        def value(row, c1, w0, w1):  # I(w; c) at one centre, 0.0 under the tail cut
            nonlocal h, last
            h, core = evaluator.integrand(row, c1, h)
            if core is None or np.max(np.abs(core)) <= evaluator.tail_cut:
                return 0.0
            if last is None or not ((last[0] is w0 or np.array_equal(last[0], w0))
                                    and (last[1] is w1 or np.array_equal(last[1], w1))):
                last = (w0, w1, evaluator.frequency_step(w0, w1))
            return last[2](h)

        rows = _cuts(plan.rows, lo, hi)
        for a, b in zip(rows, rows[1:]):
            row_c1 = c1s[a:b].tolist()
            row = evaluator.row(float(c0s[a]), row_c1)
            runs = _cuts(plan.runs, a, b)
            for r, e in zip(runs, runs[1:]):
                for start in range(r, e, cap):
                    w0, w1, idx = group(start)
                    run_c1 = row_c1[start - a:min(start + cap, e) - a]
                    if len(run_c1) == 1:
                        out[idx] = value(row, run_c1[0], w0, w1)
                        continue
                    if block is None:
                        block = np.empty(_RUN_BYTES // 16, dtype=np.complex128)
                    n = len(run_c1)
                    values = block[:n * size].reshape(n, *shape)
                    for k, c1 in enumerate(run_c1):
                        values[k] = value(row, c1, w0, w1)
                    out[idx[:-1] + (slice(idx[-1].start, idx[-1].start + n),)] = values

    workers = _worker_count() if n_groups >= 64 else 1
    if workers > 1:
        chunk = -(-n_groups // workers)
        with ThreadPoolExecutor(max_workers=workers, initializer=_blas_local_threads_setter(),
                                initargs=(1,)) as pool:
            futures = [pool.submit(run, lo, min(lo + chunk, n_groups))
                       for lo in range(0, n_groups, chunk)]
            for f in futures:
                f.result()
    else:
        run(0, n_groups)
    return out


# the plan of one engine call (_centre_groups)
_Plan = collections.namedtuple("_Plan", "out shape c0 c1 rows runs group")


def _centre_groups(w0, w1, c0, c1, out):
    """The plan of ``_phase_integral`` for out, to which the four arrays
    broadcast.

    The centre axes (those c0 or c1 spans) lead in the view plan.out, and
    plan.shape is the shape of the other axes.  The centre nodes are sorted
    stably on the complex key c0 + i c1 (as np.lexsort((c1, c0)), but
    faster); a group is a run of equal keys (signed zeros share one) in
    input order, times the other axes.  Group k has its centre at
    (plan.c0[k], plan.c1[k]), and plan.group(k) gives its frequency arrays
    and its index into plan.out, (w0, w1, idx).  After group 0, plan.rows
    holds the first group of each c0 and plan.runs that of each row run:
    consecutive one-node groups at one c0, next to each other along the
    last centre axis.  Runs form only where neither frequency array spans a
    centre axis, so that each is one object for all groups; otherwise
    plan.runs is None and each group is a run of its own.
    """
    cax = [i for i in range(out.ndim) if np.shape(c0)[i] != 1 or np.shape(c1)[i] != 1]
    perm = cax + [i for i in range(out.ndim) if i not in cax]
    lead = len(cax)
    cshape = tuple(out.shape[i] for i in cax)

    def spread(a, shape):  # np.broadcast_to costs microseconds; skip it where a fits
        return a if a.shape == shape else np.broadcast_to(a, shape)

    def nodes(c):
        c = np.asarray(c, dtype=float).transpose(perm)
        return spread(c.reshape(c.shape[:lead]), cshape).reshape(-1)

    def freq(w):
        w = np.asarray(w, dtype=float).transpose(perm)
        if w.shape[:lead] == (1,) * lead:
            w = w.reshape(w.shape[lead:])
            return lambda idx: w
        return spread(w, cshape + w.shape[lead:]).__getitem__

    runs_form = lead and all(np.shape(w)[i] == 1 for w in (w0, w1) for i in cax)
    c0, c1 = nodes(c0), nodes(c1)
    key = np.empty(c0.size, dtype=np.complex128)
    key.real = c0
    key.imag = c1
    order = np.argsort(key, kind="stable")
    del key  # 16 bytes per node; free it before the gathers below
    s0, s1 = c0[order], c1[order]
    new_c0 = s0[1:] != s0[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], new_c0 | (s1[1:] != s1[:-1]), [True])))
    # each sorted node's index along each centre axis (no copy for one axis)
    units = np.unravel_index(order, cshape) if lead > 1 else (order,)[:lead]
    f0, f1 = freq(w0), freq(w1)

    def group(k):
        a, b = bounds[k], bounds[k + 1]
        if b - a == 1:  # basic slices: views, never 0-d frequency arrays
            idx = tuple(slice(u[a], u[a] + 1) for u in units)
        else:
            idx = tuple(u[a:b] for u in units)
        return f0(idx), f1(idx), idx

    n_groups = bounds.size - 1 if c0.size else 0
    first = bounds[:n_groups]
    # group k > 0 begins a row (a run) when its first node's c0 is new (when
    # it does not continue the run of group k - 1)
    new_row = new_c0[first[1:] - 1]
    runs = None
    if runs_form and n_groups:
        one = bounds[1:] - first == 1
        u = [v[first] for v in units]
        joins = one[1:] & one[:-1] & ~new_row & (u[-1][1:] == u[-1][:-1] + 1)
        for v in u[:-1]:
            joins &= v[1:] == v[:-1]
        runs = np.flatnonzero(~joins) + 1
    shape = tuple(out.shape[i] for i in perm[lead:])
    return _Plan(out.transpose(perm), shape, s0[first], s1[first], np.flatnonzero(new_row) + 1,
                 runs, group)


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------

def orbit_from_wave_coords(label: OrbitLabel, w0, w1, c0, c1) -> CoadjointPoint:
    """Inverse of the orbit -> (frequency, centre) map; handy for building
    FFT-aligned probe points."""
    nc = NCCoords(qnc=(float(w0), float(w1)),
                  pnc=(label.k1 * float(c0), label.k1 * float(c1)))
    return nc_to_orbit(nc, label)


def aligned_frequency_grid(state_axis: Grid1D, omega: float, n: int,
                           stride: int = 1) -> Grid1D:
    """Output grid whose phases 2*omega*w land on the conjugate lattice."""
    step = stride * conjugate_grid(state_axis).step / (2.0 * abs(omega))
    return Grid1D(n=n, origin=-(n // 2) * step, step=step)


def aligned_center_grid(state_axis: Grid1D, n: int, stride: int = 1) -> Grid1D:
    """Output grid whose centre offsets are whole numbers of state steps."""
    step = stride * state_axis.step
    return Grid1D(n=n, origin=-(n // 2) * step, step=step)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _require_result_bytes(shape):  # a complex128 result
    _require_bytes("transform results this large", 16 * math.prod(shape))


def _transform(ket, bra, rep, pts, names, waves, omegas, pref, label, sector):
    """The runner behind every transform: pref * I(w; c) at pts.

    ket and bra must be tagged ``rep``, and ``label`` must come from
    ``sector`` unless that is None.  ``waves`` maps the four ``names``
    coordinates, as broadcastable arrays, to (w0, w1, c0, c1); ``omegas`` is
    (om0, om1).  A Domain4D comes back as a WignerField carrying ``label``;
    other inputs return values.
    """
    if sector is not None and label.sector is not sector:
        raise SectorMismatch(
            f"this transform needs a {sector.value} label, got {label.sector.value}"
        )
    for what, f in (("ket", ket), ("bra", bra)):
        if f.rep != rep:
            raise ValueError(f"{what} must be tagged rep={rep!r}, got {f.rep!r}")
    domain = pts if isinstance(pts, Domain4D) else None
    if domain is not None:
        if domain.names != names:
            raise ValueError(f"domain over {domain.names} passed where {names} expected")
        cols = np.ix_(*domain.axes())
    else:
        cols = _as_points(pts).T
    shape = np.broadcast(*cols).shape
    _require_result_bytes(shape)
    vals = np.empty(shape, dtype=np.complex128)
    w0, w1, c0, c1 = waves(*cols)
    for c, g in ((c0, ket.grid.axis0), (c1, ket.grid.axis1)):
        # the engine counts centre offsets in state steps; refuse any count
        # that overflows before a group runs
        far = float(max(abs(np.max(c)), abs(np.min(c)))) / g.step if np.size(c) else 0.0
        if not math.isfinite(far):
            raise GridTooCoarse(f"centre offsets reach {far:.3g} state steps; "
                                "shrink the output extent")
    _phase_integral(ket, bra, *omegas, _centre_groups(w0, w1, c0, c1, vals))
    np.multiply(pref, vals, out=vals)  # in place: grids reach 4M values
    if domain is None:
        return vals
    # the values are a fresh array: hand it over uncopied
    return WignerField._adopt(domain, vals.reshape(domain.shape), label)


def _p_waves(q1, q2, p1, p2):
    """Frequencies p, centres q: the forms of position-space fields."""
    return p1, p2, q1, q2


def _orbit_transform(op, pts, label, sector):
    """The orbit transforms: frequencies q^nc, centres p^nc / k1, and the
    prefactor d / ((2 pi)^(7/2) sqrt(rho)), with d the Duflo-Moore constant
    and rho the Plancherel density of the label's sector.

    The generic-sector map specialises exactly to the k3 = 0 and
    k2 = k3 = 0 sectors because the discriminant collapses to k1^2 a^2.
    """
    def waves(*k):
        nc = orbit_to_nc(CoadjointPoint(*k), label)
        return (*nc.qnc, nc.pnc[0] / label.k1, nc.pnc[1] / label.k1)

    pref = duflo_moore_constant(label) / (
        (2.0 * math.pi) ** 3.5 * math.sqrt(plancherel_density(label)))
    return _transform(op.ket, op.bra, "momentum", pts, ORBIT_COORDS, waves,
                      (label.consts.alpha,) * 2, pref, label, sector)


def wigner_generic(op: RankOneOperator, pts, label: OrbitLabel):
    """Wigner transform of |ket><bra| on a generic 4D orbit.

    pts may be an orbit-coordinate Domain4D (returns a WignerField) or a
    sequence of CoadjointPoint / an (M, 4) array (returns complex values).
    Both fields must be momentum-space samples.
    """
    return _orbit_transform(op, pts, label, Sector.GENERIC)


def wigner_tau0(op: RankOneOperator, pts, label: OrbitLabel):
    """Wigner transform on the k3 = 0 family of 4D orbits.

    Same integral as the generic transform with k3 = 0 but its own sector
    normalisation 1/((2 pi)^(3/2) |k1|); in the k2 -> 0 limit it therefore
    exceeds :func:`wigner_qm_orbit` by TAU0_TO_QM_PREFACTOR_RATIO.
    """
    return _orbit_transform(op, pts, label, Sector.TAU_ZERO)


def wigner_qm_orbit(op: RankOneOperator, pts, label: OrbitLabel):
    """Wigner transform on the commutative k2 = k3 = 0 orbits.

    Coincides with the textbook cross-Wigner transform under the convention
    map documented in the module docstring.
    """
    return _orbit_transform(op, pts, label, Sector.SIGMA_TAU_ZERO)


def _nc_pref(label: OrbitLabel) -> float:
    """|k1 a|^3 / ((2 pi)^2 sqrt|D|); InvalidLabel where it leaves the float range."""
    k1a = abs(label.k1 * label.consts.alpha)
    pref = k1a * k1a * k1a / ((2.0 * math.pi) ** 2 * math.sqrt(label.abs_discriminant))
    if not math.isfinite(pref):
        raise InvalidLabel(f"k1 = {label.k1!r} with alpha = {label.consts.alpha!r} leaves the "
                           "float range: the nc prefactor |k1 alpha|^3 / ((2 pi)^2 sqrt|D|) "
                           "is not finite")
    return pref


def wigner_nc(op: RankOneOperator, pts, label: OrbitLabel, max_axis_points=None):
    """Noncommutative Wigner function over (q^nc, p^nc).

    Computed natively from its defining integral (phases exp(-i k1 a q.s),
    centres p^nc), not by resampling :func:`wigner_generic`; the two routes
    agree through the coordinate maps, which the tests exercise.
    max_axis_points is ignored; ``perfbench/workloads.py`` still passes it.
    """
    om = -label.k1 * label.consts.alpha
    return _transform(op.ket, op.bra, "momentum", pts, NC_COORDS, lambda *qp: qp, (om, om),
                      _nc_pref(label), label, Sector.GENERIC)


def wigner_nc_position(psi: ComplexField2D, phi: ComplexField2D, pts, label: OrbitLabel):
    """Noncommutative Wigner function from position-space fields.

    W(q, p) = pref * int exp(i k1 a p.r) conj(psi)(r/2 + q) phi(-r/2 + q) d^2 r,

    the transform of |phi><psi|.  For phi = psi it equals :func:`wigner_nc`
    applied to the (k1 a)-scaled momentum representation of psi.
    """
    om = label.k1 * label.consts.alpha
    return _transform(phi, psi, "position", pts, NC_COORDS, _p_waves, (om, om),
                      _nc_pref(label), label, Sector.GENERIC)


def wigner_nc_params(psi: ComplexField2D, pts, params: NCParams):
    """Noncommutative Wigner function of |psi><psi| in (hbar, vartheta, bfield)
    form over orbit coordinates.

    W(k*) = (4 pi^2 |hbar| sqrt|E|)^(-1)
            int exp(i k3* r1/hbar + i (hbar k4* + B k1*) r2 / E)
                conj(psi)(r1/2 + u, r2/2 + k2*) psi(-r1/2 + u, -r2/2 + k2*) dr

    with E = hbar^2 - B theta and u = (hbar^2 k1* + hbar theta k4*)/E.
    At vartheta = bfield = 0 this is the standard hbar-convention Wigner
    transform over (k1*, k2*; k3*, k4*).
    """
    e = params.det
    if e == 0.0:
        raise DegenerateParams("hbar^2 - bfield*vartheta = 0: degenerate parameters")
    hb, th, bf = params.hbar, params.vartheta, params.bfield

    def waves(k1s, k2s, k3s, k4s):
        return k3s, (hb * k4s + bf * k1s) / e, (hb ** 2 * k1s + hb * th * k4s) / e, k2s

    pref = 1.0 / (4.0 * math.pi ** 2 * abs(hb) * math.sqrt(abs(e)))
    return _transform(psi, psi, "position", pts, ORBIT_COORDS, waves, (1.0 / hb, 1.0),
                      pref, None, None)


def cross_wigner_standard(phi: ComplexField2D, psi: ComplexField2D, pts, h: float):
    """Textbook cross-Wigner transform of |phi><psi| in the Planck-h convention.

    W(q, p) = h^(-2) int conj(psi)(q - x/2) exp(-2 pi i x.p / h) phi(q + x/2) d^2 x

    for position-space fields on a common grid; h^2 must be a normal float.
    """
    if not _square_is_normal(h):
        raise ValueError("h must be finite and nonzero, with h^2 a normal float")
    om = 2.0 * math.pi / h
    return _transform(phi, psi, "position", pts, PHASE_COORDS, _p_waves, (om, om),
                      1.0 / h ** 2, None, None)


def qm_limit_check(psi: ComplexField2D, labels, pts) -> np.ndarray:
    """Sup-norm distances of the nc Wigner function to the canonical one.

    ``labels`` is a sequence of generic labels sharing k1 and the constants,
    with k2, k3 shrinking towards zero.  The reference is the textbook
    transform at h = 2 pi/(k1 a), evaluated at the probe (q, p) points
    ``pts`` (an (M, 4) array or a sequence of points), to which the
    sequence converges.  Returns one distance per label.
    """
    labels = list(labels)
    if not labels:
        return np.zeros(0)
    k1 = labels[0].k1
    consts = labels[0].consts
    for lab in labels:
        if lab.k1 != k1 or lab.consts != consts:
            raise ValueError("all labels must share k1 and the dimensional constants")
    from .numerics import momentum_representation

    arr = _as_points(pts)
    scale = k1 * consts.alpha
    psihat = momentum_representation(psi, scale)
    op = RankOneOperator(ket=psihat, bra=psihat)
    ref = cross_wigner_standard(psi, psi, arr, h=2.0 * math.pi / scale)
    dists = np.empty(len(labels))
    for i, lab in enumerate(labels):
        w = wigner_nc(op, arr, lab)
        dists[i] = float(np.max(np.abs(w - ref)))
    return dists
