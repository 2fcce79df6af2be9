"""The seven-parameter nilpotent symmetry group and its irreducible actions.

Elements are (theta, phi, psi, q, p) with three central parameters and
q, p in R^2.  Composition picks up bilinear central terms built from the
dot product a.b = a1 b1 + a2 b2 and the wedge a^b = a1 b2 - a2 b1:

  theta'' = theta + theta' + (alpha/2) (q.p' - p.q')
  phi''   = phi + phi' + (beta/2) (p ^ p')
  psi''   = psi + psi' + (gamma/2) (q ^ q')

The two representation actions below realise the sector labelled
(k1, k2, k3) on sampled fields: one on the mixed (r1, s2) carrier space,
one on the fully momentum-space (s1, s2) carrier space.  Both translate
by :func:`~ncwigner.numerics.shift_field`, index or Fourier per axis.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ComplexField2D,
    DimensionalConstants,
    GroupElement,
    OrbitLabel,
)
from .numerics import shift_field

__all__ = [
    "identity_element",
    "group_multiply",
    "group_inverse",
    "uir_apply",
    "uir_apply_ft",
]


def identity_element() -> GroupElement:
    return GroupElement()


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _wedge(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def group_multiply(g: GroupElement, h: GroupElement,
                   consts: DimensionalConstants | None = None) -> GroupElement:
    """Compose two group elements.

    The non-central parts add commutatively; the central parts acquire the
    antisymmetric bilinear corrections quoted in the module docstring.
    """
    c = consts if consts is not None else DimensionalConstants()
    theta = g.theta + h.theta + 0.5 * c.alpha * (_dot(g.q, h.p) - _dot(g.p, h.q))
    phi = g.phi + h.phi + 0.5 * c.beta * _wedge(g.p, h.p)
    psi = g.psi + h.psi + 0.5 * c.gamma * _wedge(g.q, h.q)
    return GroupElement(
        theta, phi, psi,
        (g.q[0] + h.q[0], g.q[1] + h.q[1]),
        (g.p[0] + h.p[0], g.p[1] + h.p[1]),
    )


def group_inverse(g: GroupElement) -> GroupElement:
    """(-theta, -phi, -psi, -q, -p); the bilinear cross terms cancel by
    antisymmetry, so g * g^-1 is the identity exactly."""
    return GroupElement(-g.theta, -g.phi, -g.psi,
                        (-g.q[0], -g.q[1]), (-g.p[0], -g.p[1]))


def uir_apply(g: GroupElement, f: ComplexField2D, label: OrbitLabel) -> ComplexField2D:
    """Representation action on the mixed (r1, s2) carrier space.

    (U(g) f)(r1, s2) = exp(i k1 (theta + a q2 s2 + a p1 r1 + a q1 p1/2 - a q2 p2/2))
                     * exp(i k2 (phi + b p1 s2 - b p1 p2/2))
                     * exp(i k3 (psi + g q2 r1 + g q2 q1/2))
                     * f(r1 + q1, s2 - p2)

    with (a, b, g) the dimensional constants.  The translation is
    :func:`~ncwigner.numerics.shift_field`: per axis, an index shift with
    zero fill (the carrier space is L^2(R^2), not a torus) when the offset
    is a whole number of steps, else a band-limited Fourier shift.
    """
    if f.rep != "landau":
        raise ValueError("uir_apply expects a field tagged rep='landau' (r1, s2 axes)")
    c = label.consts
    q1, q2 = g.q
    p1, p2 = g.p
    shifted = shift_field(f, q1, -p2)
    r1 = f.grid.axis0.coords()[:, None]
    s2 = f.grid.axis1.coords()[None, :]
    phase = (
        label.k1 * (g.theta + c.alpha * q2 * s2 + c.alpha * p1 * r1
                    + 0.5 * c.alpha * q1 * p1 - 0.5 * c.alpha * q2 * p2)
        + label.k2 * (g.phi + c.beta * p1 * s2 - 0.5 * c.beta * p1 * p2)
        + label.k3 * (g.psi + c.gamma * q2 * r1 + 0.5 * c.gamma * q2 * q1)
    )
    return f.with_values(np.exp(1j * phase) * shifted.values)


def uir_apply_ft(g: GroupElement, fhat: ComplexField2D, label: OrbitLabel) -> ComplexField2D:
    """Representation action on the momentum-space (s1, s2) carrier space.

    (U^(g) fhat)(s1, s2) =
        exp(-i k1 (theta + a q1 s1 + a q2 s2 - a q1 p1/2 - a q2 p2/2))
      * exp(-i k2 (phi + b p1 s2 - b p1 p2/2))
      * exp(-i k3 (psi - g q1 q2/2))
      * fhat(s1 - p1 - (k3 g/(k1 a)) q2, s2 - p2)

    Same per-axis shift rule as :func:`uir_apply`: an off-lattice mixed
    offset is Fourier-shifted on its own axis.  This action and the mixed
    one are exchanged by the scaled partial Fourier transform in the first
    coordinate combined with complex conjugation; see the tests for the
    numerically verified intertwining identity.
    """
    if fhat.rep != "momentum":
        raise ValueError("uir_apply_ft expects a field tagged rep='momentum'")
    c = label.consts
    q1, q2 = g.q
    p1, p2 = g.p
    shift1 = p1 + (label.k3 * c.gamma / (label.k1 * c.alpha)) * q2
    shifted = shift_field(fhat, -shift1, -p2)
    s1 = fhat.grid.axis0.coords()[:, None]
    s2 = fhat.grid.axis1.coords()[None, :]
    phase = -(
        label.k1 * (g.theta + c.alpha * q1 * s1 + c.alpha * q2 * s2
                    - 0.5 * c.alpha * q1 * p1 - 0.5 * c.alpha * q2 * p2)
        + label.k2 * (g.phi + c.beta * p1 * s2 - 0.5 * c.beta * p1 * p2)
        + label.k3 * (g.psi - 0.5 * c.gamma * q1 * q2)
    )
    return fhat.with_values(np.exp(1j * phase) * shifted.values)
