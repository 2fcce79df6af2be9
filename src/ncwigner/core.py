"""Domain types and closed-form constant tables.

The objects here describe the kinematics of a two-degree-of-freedom
noncommutative quantum system whose symmetry group is the seven-parameter
nilpotent group obtained by centrally extending the translation group of
R^4 three times.  An irreducible sector is labelled by a real triple
(k1, k2, k3) together with three nonzero dimensional constants
(alpha, beta, gamma); the corresponding four-dimensional orbit in the dual
of the Lie algebra carries coordinates (k1*, k2*, k3*, k4*).

Everything in this module is an immutable value object or a pure function;
concurrent use needs no synchronisation.  Each value type validates and
freezes in its own constructor, so a factory such as make_orbit_label or
Domain4D.build adds no rule of its own; the sampled fields hold read-only
copies of their values and compare and hash by identity.  The one mutable
part, a field's memo of values derived from it
(:meth:`ComplexField2D._derived`), keeps the first value stored for each
key, so it needs no synchronisation either.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NCWignerError",
    "InvalidLabel",
    "SectorMismatch",
    "DegenerateParams",
    "GridTooCoarse",
    "GridTooLarge",
    "Sector",
    "DimensionalConstants",
    "OrbitLabel",
    "NCParams",
    "GroupElement",
    "CoadjointPoint",
    "NCCoords",
    "Grid1D",
    "Grid2D",
    "ComplexField2D",
    "RankOneOperator",
    "Domain4D",
    "WignerField",
    "ORBIT_COORDS",
    "NC_COORDS",
    "PHASE_COORDS",
    "orbit_domain",
    "nc_domain",
    "phase_space_domain",
    "make_orbit_label",
    "nc_params_from_label",
    "orbit_to_nc",
    "nc_to_orbit",
    "plancherel_density",
    "duflo_moore_constant",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class NCWignerError(Exception):
    """Base class for errors raised by this package."""


class InvalidLabel(NCWignerError, ValueError):
    """Orbit label outside the covered parameter range."""


class SectorMismatch(NCWignerError):
    """A transform was applied to a label from the wrong sector."""


class DegenerateParams(NCWignerError):
    """Noncommutativity parameters make the requested kernel singular."""


class GridTooCoarse(NCWignerError):
    """The sampling grid cannot resolve the requested oscillatory phases."""


class GridTooLarge(NCWignerError):
    """An array sized by the caller would exceed the byte budget ``_MAX_BYTES``."""


_MAX_BYTES = 1 << 30  # the one size limit on arrays (or estimates) the caller sizes


def _fits_bytes(nbytes) -> bool:
    """Whether nbytes stays inside the byte budget _MAX_BYTES."""
    return nbytes <= _MAX_BYTES


def _require_bytes(what: str, nbytes):
    """Call before an allocation: GridTooLarge when nbytes > _MAX_BYTES."""
    if not _fits_bytes(nbytes):
        n = int(nbytes) if nbytes < 1e18 else f"{nbytes:.3g}"
        raise GridTooLarge(f"{what} need about {n} bytes, above the limit of {_MAX_BYTES} bytes")


# ---------------------------------------------------------------------------
# Labels and parameters
# ---------------------------------------------------------------------------

class Sector(enum.Enum):
    """Which central parameters of the label vanish."""

    GENERIC = "generic"           # k2 != 0 and k3 != 0
    TAU_ZERO = "tau_zero"         # k2 != 0, k3 == 0
    SIGMA_TAU_ZERO = "sigma_tau_zero"  # k2 == k3 == 0


@dataclass(frozen=True)
class DimensionalConstants:
    """The three fixed constants (alpha, beta, gamma) of the group law.

    Units are bookkeeping only (alpha ~ 1/action, beta ~ 1/(momentum^2 action),
    gamma ~ 1/(length^2 action)); all arithmetic is on dimensionless floats.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v == 0.0:
                raise InvalidLabel(f"{name} must be finite and nonzero, got {v!r}")


@dataclass(frozen=True)
class OrbitLabel:
    """Validated triple (k1, k2, k3) selecting an irreducible sector.

    The constructor validates the label and derives its sector.  Zero tests
    on k2 and k3 are exact comparisons with 0.0 by design: sector semantics
    must be unambiguous, and near-zero limits are expressed by generic
    labels with explicitly small parameters.

    Raises InvalidLabel for k1 = 0, for the degenerate surface
    k1^2 alpha^2 - k2 k3 beta gamma = 0, for the uncovered pattern
    k2 = 0 with k3 != 0, and where the label's formulas leave the float
    range: k1^2, alpha^2 or (k1 alpha)^2 not a normal float, or the
    discriminant not finite.
    """

    k1: float
    k2: float
    k3: float
    consts: DimensionalConstants
    sector: Sector = field(init=False)

    def __post_init__(self):
        raw = self.k1, self.k2, self.k3
        for name, v in zip(("k1", "k2", "k3"), raw):
            if not math.isfinite(v):
                raise InvalidLabel(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        k1, k2, k3, alpha = self.k1, self.k2, self.k3, self.consts.alpha
        if k1 == 0.0:
            raise InvalidLabel("k1 must be nonzero in every sector")
        if k2 == 0.0 and k3 != 0.0:
            raise InvalidLabel("labels with k2 = 0 but k3 != 0 are not covered")
        if not all(map(_square_is_normal, (k1, alpha, k1 * alpha))):
            raise InvalidLabel(f"k1 = {raw[0]!r} with alpha = {alpha!r} leaves the float "
                               "range: k1^2, alpha^2 and (k1 alpha)^2 must be normal floats")
        # k2 k3 beta gamma is a product: it may overflow, to +-inf, but not raise
        disc = self.discriminant
        if not math.isfinite(disc):
            raise InvalidLabel("k1^2 alpha^2 - k2 k3 beta gamma overflows")
        if k3 != 0.0 and disc == 0.0:  # k3 != 0 implies k2 != 0 here
            raise InvalidLabel("degenerate orbit: k1^2 alpha^2 - k2 k3 beta gamma = 0")
        object.__setattr__(self, "sector", Sector.GENERIC if k3 != 0.0 else
                           Sector.TAU_ZERO if k2 != 0.0 else Sector.SIGMA_TAU_ZERO)

    @property
    def discriminant(self) -> float:
        """Signed k1^2 alpha^2 - k2 k3 beta gamma."""
        c = self.consts
        return self.k1 ** 2 * c.alpha ** 2 - self.k2 * self.k3 * c.beta * c.gamma

    @property
    def abs_discriminant(self) -> float:
        return abs(self.discriminant)


def _square_is_normal(x: float) -> bool:
    """x * x is a normal float: not 0, subnormal, infinite or nan."""
    return sys.float_info.min <= x * x <= sys.float_info.max


def make_orbit_label(k1: float, k2: float, k3: float,
                     consts: DimensionalConstants | None = None) -> OrbitLabel:
    """The :class:`OrbitLabel` (k1, k2, k3) on consts (unit constants by default)."""
    return OrbitLabel(k1, k2, k3, consts if consts is not None else DimensionalConstants())


@dataclass(frozen=True)
class NCParams:
    """Dimensionful noncommutativity parameters.

    hbar deforms the position-momentum bracket, vartheta (units of length^2)
    the position-position bracket and bfield (units of momentum^2) the
    momentum-momentum bracket.
    """

    hbar: float
    vartheta: float = 0.0
    bfield: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.hbar) or self.hbar == 0.0:
            raise DegenerateParams(f"hbar must be finite and nonzero, got {self.hbar!r}")
        for name in ("vartheta", "bfield"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateParams(f"{name} must be finite")

    @property
    def det(self) -> float:
        """hbar^2 - bfield*vartheta, the symplectic determinant of the deformation."""
        return self.hbar ** 2 - self.bfield * self.vartheta


def nc_params_from_label(label: OrbitLabel) -> NCParams:
    """Map an orbit label to (hbar, vartheta, bfield).

    hbar = 1/(k1 alpha), vartheta = -k2 beta/(k1 alpha)^2,
    bfield = -k3 gamma/(k1 alpha)^2.
    """
    c = label.consts
    k1a2 = (label.k1 * c.alpha) ** 2
    # the + 0.0 normalises the -0.0 that appears when k2 or k3 vanish
    return NCParams(
        hbar=1.0 / (label.k1 * c.alpha),
        vartheta=-label.k2 * c.beta / k1a2 + 0.0,
        bfield=-label.k3 * c.gamma / k1a2 + 0.0,
    )


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """(theta, phi, psi, q, p) with q, p two-vectors."""

    theta: float = 0.0
    phi: float = 0.0
    psi: float = 0.0
    q: tuple[float, float] = (0.0, 0.0)
    p: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name, v in (("theta", self.theta), ("phi", self.phi), ("psi", self.psi),
                        ("q1", self.q[0]), ("q2", self.q[1]), ("p1", self.p[0]),
                        ("p2", self.p[1])):
            if not math.isfinite(v):
                raise ValueError(f"group element component {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class CoadjointPoint:
    """A point (k1*, k2*, k3*, k4*) on a four-dimensional orbit."""

    k1s: float
    k2s: float
    k3s: float
    k4s: float

    def as_array(self) -> np.ndarray:
        return np.array([self.k1s, self.k2s, self.k3s, self.k4s], dtype=float)


@dataclass(frozen=True)
class NCCoords:
    """Noncommutative positions and momenta (q^nc, p^nc)."""

    qnc: tuple[float, float]
    pnc: tuple[float, float]

    def as_array(self) -> np.ndarray:
        return np.array([*self.qnc, *self.pnc], dtype=float)


def orbit_to_nc(pt: CoadjointPoint, label: OrbitLabel) -> NCCoords:
    """Orbit coordinates -> noncommutative coordinates.

    q1nc = (k1* k1^2 a^2 - k4* k1 k2 a b) / (k1^2 a^2 - k2 k3 b g)
    q2nc = k2*
    p1nc = k3*
    p2nc = (k1^2 k4* a^2 - k1 k1* k3 a g) / (k1^2 a^2 - k2 k3 b g)

    with a, b, g the dimensional constants.  For k2 = k3 = 0 the map is the
    identity.  The map is elementwise, so the four coordinates of pt may
    equally be arrays of one shape; the result then holds arrays too.
    """
    c = label.consts
    k1, k2, k3 = label.k1, label.k2, label.k3
    d = label.discriminant
    q1 = (pt.k1s * k1 ** 2 * c.alpha ** 2 - pt.k4s * k1 * k2 * c.alpha * c.beta) / d
    p2 = (k1 ** 2 * pt.k4s * c.alpha ** 2 - k1 * pt.k1s * k3 * c.alpha * c.gamma) / d
    return NCCoords(qnc=(q1, pt.k2s), pnc=(pt.k3s, p2))


def nc_to_orbit(nc: NCCoords, label: OrbitLabel) -> CoadjointPoint:
    """Exact inverse of :func:`orbit_to_nc`, elementwise on arrays like it.

    k2* and k3* are read off directly; (k1*, k4*) solve the 2x2 linear
    system, which non-degeneracy keeps invertible:

    k1* = (k1 a q1nc + k2 b p2nc) / (k1 a)
    k4* = (k3 g q1nc + k1 a p2nc) / (k1 a)
    """
    c = label.consts
    k1a = label.k1 * c.alpha
    q1, q2 = nc.qnc
    p1, p2 = nc.pnc
    k1s = (k1a * q1 + label.k2 * c.beta * p2) / k1a
    k4s = (label.k3 * c.gamma * q1 + k1a * p2) / k1a
    return CoadjointPoint(k1s, q2, p1, k4s)


def plancherel_density(label: OrbitLabel) -> float:
    """Density of the Plancherel measure on the label's sector.

    Generic sector: |k1^2 a^2 - k2 k3 b g| / a^2.  On the lower-dimensional
    sectors the delta factors restricting the measure act as sector
    selectors and the density on the parameter slice is k1^2.
    """
    if label.sector is Sector.GENERIC:
        return label.abs_discriminant / label.consts.alpha ** 2
    return label.k1 ** 2


def duflo_moore_constant(label: OrbitLabel) -> float:
    """Scalar of the Duflo-Moore operator: the group is unimodular, so the
    operator is this multiple of the identity.

    (2 pi)^(5/2), (2 pi)^2 and (2 pi)^(3/2) on the generic, k3 = 0 and
    k2 = k3 = 0 sectors respectively.
    """
    if label.sector is Sector.GENERIC:
        return (2.0 * math.pi) ** 2.5
    if label.sector is Sector.TAU_ZERO:
        return (2.0 * math.pi) ** 2
    return (2.0 * math.pi) ** 1.5


# ---------------------------------------------------------------------------
# Grids and sampled fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: n samples at origin + i*step, i = 0..n-1."""

    n: int
    origin: float
    step: float

    def __post_init__(self):
        if not hasattr(self.n, "__index__") or self.n < 2:
            raise ValueError(f"grid needs a whole n >= 2, got {self.n}")
        if not (math.isfinite(self.origin) and math.isfinite(self.step)):
            raise ValueError(f"grid origin and step must be finite, got {self.origin}, "
                             f"{self.step}")
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")

    @classmethod
    def symmetric(cls, n: int, extent: float) -> "Grid1D":
        """[-extent, extent - step] with step = 2*extent/n; sample n/2 sits at 0."""
        step = 2.0 * extent / n
        return cls(n=n, origin=-extent, step=step)

    def coords(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.n)


@dataclass(frozen=True)
class Grid2D:
    """Product of two 1D grids; axis0 is the first array index."""

    axis0: Grid1D
    axis1: Grid1D

    @classmethod
    def square(cls, n: int, extent: float) -> "Grid2D":
        g = Grid1D.symmetric(n, extent)
        return cls(g, g)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axis0.n, self.axis1.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis0.coords(), self.axis1.coords(), indexing="ij")


_FIELD_REPS = ("position", "momentum", "landau")


def _set_frozen_values(holder, values, dtype, shape: tuple, what: str, copy: bool = True):
    """holder.values = values as a read-only dtype array: a copy, or with copy=False
    values itself if it has that dtype.  A shape other than ``shape`` raises ValueError."""
    v = np.array(values, dtype=dtype) if copy else np.asarray(values, dtype=dtype)
    if v.shape != shape:
        raise ValueError(f"values shape {v.shape} != {what} shape {shape}")
    v.flags.writeable = False
    object.__setattr__(holder, "values", v)


@dataclass(frozen=True, eq=False)
class ComplexField2D:
    """Complex samples of a function on a 2D grid.

    ``rep`` records the caller-side interpretation of the two axes:
    "position" for (r1, r2), "momentum" for (s1, s2) and "landau" for the
    mixed (r1, s2) carrier space of the group representation.  The flat file
    layout enumerates axis0 fastest; in memory values[i0, i1] indexes
    (axis0, axis1).

    Values are copied and made read-only on construction, so anything
    derived from them stays valid while the field lives: :meth:`_derived`
    keeps such results (the engine's reflected ket and peak |f|) in the
    instance ``__dict__``, outside the dataclass fields, so repr ignores
    it.  Fields compare and hash by identity.
    """

    grid: Grid2D
    values: np.ndarray
    rep: str = "position"

    def __post_init__(self):
        _set_frozen_values(self, self.values, np.complex128, self.grid.shape, "grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.rep not in _FIELD_REPS:
            raise ValueError(f"unknown representation tag {self.rep!r}")

    def _derived(self, key: str, build):
        """The value build() returns for key, built at the first call on this
        field and kept while it lives; an array is kept read-only.  build
        runs outside any lock, so concurrent first calls may each build, and
        all get the first value stored; a build that raises stores nothing."""
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            memo.setdefault(key, value)
        return memo[key]

    def __getstate__(self):
        """Copies and pickles carry the dataclass fields alone, never the
        memo: a deep copy or an unpickled field starts with an empty one."""
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.values.flags.writeable = False  # a deep copy or unpickle made it writeable

    def with_values(self, values: np.ndarray, rep: str | None = None) -> "ComplexField2D":
        return ComplexField2D(self.grid, values, rep if rep is not None else self.rep)

    def norm(self) -> float:
        """Discrete L2 norm sqrt(h0 h1 sum |f|^2)."""
        h = self.grid.axis0.step * self.grid.axis1.step
        return float(np.sqrt(h * np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class RankOneOperator:
    """|ket><bra| for two fields on a common grid."""

    ket: ComplexField2D
    bra: ComplexField2D

    def __post_init__(self):
        if self.ket.grid != self.bra.grid:
            raise ValueError("ket and bra must share one grid")


# ---------------------------------------------------------------------------
# Output domains and Wigner fields
# ---------------------------------------------------------------------------

ORBIT_COORDS = ("k1s", "k2s", "k3s", "k4s")
NC_COORDS = ("q1nc", "q2nc", "p1nc", "p2nc")
PHASE_COORDS = ("q1", "q2", "p1", "p2")


@dataclass(frozen=True)
class Domain4D:
    """A 2D slice or full 4D grid over four named coordinates.

    ``varying`` lists the sampled coordinates (two for a slice, four for a
    full grid) in the canonical order of ``names``, each with its Grid1D in
    ``grids``; the rest are pinned in ``fixed``, in the same order.  The
    constructor refuses any other partition of the four names with
    ValueError, and stores the fixed values as floats.
    """

    names: tuple[str, str, str, str]
    varying: tuple[str, ...]
    grids: tuple[Grid1D, ...]
    fixed: tuple[tuple[str, float], ...]

    def __post_init__(self):
        fixed = [name for name, _ in self.fixed]
        unknown = set(self.varying).union(fixed) - set(self.names)
        if unknown:
            raise ValueError(f"unknown coordinates {sorted(unknown)}; expected {self.names}")
        missing = set(self.names).difference(self.varying, fixed)
        if missing:
            raise ValueError(f"missing coordinates {sorted(missing)}")
        if len(self.varying) not in (2, 4):
            raise ValueError("a domain must vary exactly two or four coordinates")
        if (len(self.varying) + len(fixed) != 4 or len(self.grids) != len(self.varying)
                or not all(isinstance(g, Grid1D) for g in self.grids)
                or any(list(p) != sorted(p, key=self.names.index) for p in (self.varying, fixed))):
            raise ValueError(f"a domain needs each of {self.names} once, varying and fixed "
                             "ones each in that order, and one Grid1D per varying one")
        for name, v in self.fixed:
            if not math.isfinite(float(v)):
                raise ValueError(f"coordinate {name} must be finite, got {v}")
        object.__setattr__(self, "fixed", tuple((name, float(v)) for name, v in self.fixed))

    @classmethod
    def build(cls, names: tuple[str, str, str, str], **coords) -> "Domain4D":
        """Each keyword is a coordinate name mapped to a Grid1D or a number."""
        keys = sorted(coords, key=lambda k: names.index(k) if k in names else len(names))
        varying = tuple(k for k in keys if isinstance(coords[k], Grid1D))
        return cls(names, varying, tuple(coords[k] for k in varying),
                   tuple((k, coords[k]) for k in keys if k not in varying))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.grids)

    @property
    def is_full(self) -> bool:
        return len(self.varying) == 4

    def axes(self) -> list[np.ndarray]:
        """The four coordinate axes in ``names`` order; a fixed coordinate is
        a one-point axis.  Their product, first axis slowest, is the domain."""
        grids = dict(zip(self.varying, self.grids))
        fixed = dict(self.fixed)
        return [grids[name].coords() if name in grids else np.array([fixed[name]])
                for name in self.names]

    def points(self) -> np.ndarray:
        """All sampled coordinates as an (M, 4) array in ``names`` order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def orbit_domain(**coords) -> Domain4D:
    """Domain over the orbit coordinates (k1s, k2s, k3s, k4s)."""
    return Domain4D.build(ORBIT_COORDS, **coords)


def nc_domain(**coords) -> Domain4D:
    """Domain over the noncommutative coordinates (q1nc, q2nc, p1nc, p2nc)."""
    return Domain4D.build(NC_COORDS, **coords)


def phase_space_domain(**coords) -> Domain4D:
    """Domain over ordinary phase-space coordinates (q1, q2, p1, p2)."""
    return Domain4D.build(PHASE_COORDS, **coords)


@dataclass(frozen=True, eq=False)
class WignerField:
    """Sampled Wigner-type transform over a :class:`Domain4D`.

    Values are copied and made read-only on construction; fields compare
    and hash by identity.  For a diagonal rank-one operator the values are
    real up to quadrature noise; that is tested, not enforced here.
    """

    domain: Domain4D
    values: np.ndarray
    label: OrbitLabel | None = None

    def __post_init__(self):
        _set_frozen_values(self, self.values, np.complex128, self.domain.shape, "domain")

    @classmethod
    def _adopt(cls, domain: Domain4D, values: np.ndarray,
               label: OrbitLabel | None = None) -> "WignerField":
        """Field over domain that takes values without the constructor's
        copy; for transforms handing over a fresh complex array that
        nothing else holds."""
        w = object.__new__(cls)
        object.__setattr__(w, "domain", domain)
        object.__setattr__(w, "label", label)
        _set_frozen_values(w, values, np.complex128, domain.shape, "domain", copy=False)
        return w
