"""Quadrature and Fourier machinery shared by the integral transforms.

This module is the one home of the per-axis grid primitives: quadrature
weights (:func:`_axis_weights`), index and Fourier shifts
(:func:`_axis_integer_shift`, :func:`_shift_spectrum` and the one rule
that picks between them per axis from the offset, :func:`_axis_shifter`,
which shifts one field by many offsets for one forward FFT, its one-off
form :func:`_axis_shift` and its two-axis form :func:`shift_field`), the
reflection x -> -x on a symmetric grid with its symmetry check
(:func:`_axis_reflect`), and the lattice test :func:`_lattice_steps`
with its tolerance ``_ALIGN_TOL``.
It is also the one home of the continuous Fourier transform:
:func:`_cont_ft` over one axis or both is the body of :func:`cont_ft_2d`
and :func:`cont_ft_axis`, and its scaled form :func:`_scaled_ft` the body
of :func:`momentum_representation` and :func:`position_representation`.

Fourier convention: unitary, kernel (2 pi)^(-1/2) exp(-i s r) per coordinate
for the forward (sign = -1) direction.  This makes the unit Gaussian
self-dual and keeps Parseval exact on the grid.  Conjugate grids put s = 0
on a sample for the even-n symmetric grids used throughout.

All functions are pure; outputs live on grids that are deterministic
functions of the input grids.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ComplexField2D, Grid1D, Grid2D

__all__ = [
    "default_state_grid",
    "conjugate_grid",
    "integrate_2d",
    "cont_ft_2d",
    "cont_ft_axis",
    "shift_field",
    "momentum_representation",
    "position_representation",
]

_ALIGN_TOL = 1e-9


def default_state_grid(n: int = 128, extent: float = 10.0) -> Grid2D:
    """Symmetric square grid [-extent, extent - step]^2.

    The defaults leave width-1 Gaussian tails below 1e-21 at the boundary.
    """
    return Grid2D.square(n, extent)


def conjugate_grid(g: Grid1D) -> Grid1D:
    """Frequency grid of an n-point FFT on g: step 2 pi/(n*step), zero on a
    sample (at index n//2 after fftshift)."""
    step = 2.0 * math.pi / (g.n * g.step)
    return Grid1D(n=g.n, origin=-(g.n // 2) * step, step=step)


def _axis_weights(g: Grid1D) -> np.ndarray:
    """Trapezoid weights of one axis."""
    w = np.full(g.n, g.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate_2d(f: ComplexField2D) -> complex:
    """Trapezoid approximation of int int f over the grid's bounding box."""
    return complex(_axis_weights(f.grid.axis0) @ f.values @ _axis_weights(f.grid.axis1))


def _cont_ft(f: ComplexField2D, axes: tuple[int, ...], sign: int,
             rep: str) -> ComplexField2D:
    """Continuous Fourier transform of f over ``axes`` (one axis or both),
    tagged ``rep``; the other axis passes through.

    One DFT over the axes, fftshift, one origin phase exp(sign i k x0) per
    axis in axis order, and the scaling prod(steps) / (2 pi)^(len(axes)/2).
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    grids = [f.grid.axis0, f.grid.axis1]
    if sign == -1:
        spec = np.fft.fftn(f.values, axes=axes)
    else:
        spec = np.fft.ifftn(f.values, axes=axes) * math.prod(grids[a].n for a in axes)
    scale = math.prod(grids[a].step for a in axes) / (2.0 * math.pi) ** (len(axes) / 2)
    out = np.fft.fftshift(spec, axes=axes)
    for a in axes:
        g = grids[a]
        grids[a] = conjugate_grid(g)
        phase = np.exp(sign * 1j * grids[a].coords() * g.origin)
        out = out * (phase[:, None] if a == 0 else phase[None, :])
    out *= scale
    return ComplexField2D(Grid2D(*grids), out, rep=rep)


def cont_ft_2d(f: ComplexField2D, sign: int = -1) -> ComplexField2D:
    """Continuous 2D Fourier transform on the conjugate grid.

    F(s) = (2 pi)^-1 int f(r) exp(sign * i s.r) d^2 r, including the
    origin-offset phase and the step^2 scaling, so the output approximates
    the continuous transform rather than the bare DFT.
    """
    return _cont_ft(f, (0, 1), sign, "momentum" if f.rep == "position" else "position")


def cont_ft_axis(f: ComplexField2D, axis: int, sign: int = -1) -> ComplexField2D:
    """1D analogue of :func:`cont_ft_2d` along one axis; the other passes through."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return _cont_ft(f, (axis,), sign, f.rep)


def _shift_spectrum(spec: np.ndarray, delta: float, axis: int) -> np.ndarray:
    """Circular band-limited shift by delta grid steps along axis 0 or 1 of
    the field whose forward FFT along that axis is spec."""
    ph = np.exp(2j * math.pi * np.fft.fftfreq(spec.shape[axis]) * delta)
    return np.fft.ifft(spec * (ph[:, None] if axis == 0 else ph[None, :]), axis=axis)


def _lattice_steps(d: float, step: float):
    """d as a whole number of steps (within ``_ALIGN_TOL``), or None when
    d is off the lattice."""
    delta = d / step
    r = round(delta)
    return int(r) if abs(delta - r) <= _ALIGN_TOL else None


def _axis_integer_shift(values: np.ndarray, s: int, axis: int) -> np.ndarray:
    """values[j + s] along axis 0 or 1, zero-filled (no wrap-around)."""
    n = values.shape[axis]
    out = np.zeros_like(values)
    src = slice(max(s, 0), min(n + s, n))
    dst = slice(src.start - s, src.stop - s)
    if src.start < src.stop:
        if axis == 0:
            out[dst, :] = values[src, :]
        else:
            out[:, dst] = values[:, src]
    return out


def _axis_shifter(values: np.ndarray, step: float, axis: int):
    """d -> samples of f(x + d) along axis: index translation (none at d = 0)
    when d is a whole number of steps, else the Fourier shift.

    The forward FFT runs at most once, on the first off-lattice d, and is
    kept for later calls; the caller must not modify values meanwhile.
    """
    spec = None

    def shift(d: float) -> np.ndarray:
        nonlocal spec
        r = _lattice_steps(d, step)
        if r is not None:
            return values if r == 0 else _axis_integer_shift(values, r, axis)
        if spec is None:
            spec = np.fft.fft(values, axis=axis)
        return _shift_spectrum(spec, d / step, axis)
    return shift


def _axis_shift(values: np.ndarray, d: float, step: float, axis: int) -> np.ndarray:
    """Samples of f(x + d) along axis; one call of :func:`_axis_shifter`."""
    return _axis_shifter(values, step, axis)(d)


def shift_field(f: ComplexField2D, d0: float, d1: float) -> ComplexField2D:
    """Samples of f(r0 + d0, r1 + d1) by :func:`_axis_shift` on axis 0, then
    axis 1: on each axis a whole number of steps is an index shift with zero
    fill, any other offset the circular Fourier shift, which needs the field
    to vanish at the grid's edges."""
    for name, d in (("d0", d0), ("d1", d1)):
        if not math.isfinite(d):
            raise ValueError(f"shift_field needs a finite {name}, got {d!r}")
    out = _axis_shift(f.values, d0, f.grid.axis0.step, 0)
    return f.with_values(_axis_shift(out, d1, f.grid.axis1.step, 1))


def _axis_reflect(values: np.ndarray, g: Grid1D, axis: int) -> np.ndarray:
    """Samples of f(-x) along axis on the symmetric grid g, by index reversal.

    The missing +L sample is taken from -L, which is harmless for fields
    vanishing at the boundary.
    """
    if abs(g.origin + 0.5 * g.n * g.step) > _ALIGN_TOL * g.step:
        raise ValueError("reflection requires a symmetric grid [-L, L - step]")
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def _scaled_ft(f: ComplexField2D, scale: float, sign: int, rep: str) -> ComplexField2D:
    """|a| times the continuous FT of f with sign ``sign`` (its opposite for
    a negative scale), on the conjugate grid divided by a = |scale|."""
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError("scale must be finite and nonzero")
    a = abs(scale)
    F = _cont_ft(f, (0, 1), sign if scale > 0 else -sign, rep)
    s0, s1 = (Grid1D(g.n, g.origin / a, g.step / a) for g in (F.grid.axis0, F.grid.axis1))
    return ComplexField2D(Grid2D(s0, s1), a * F.values, rep=rep)


def momentum_representation(f: ComplexField2D, scale: float) -> ComplexField2D:
    """Scaled momentum-space samples of a position-space field.

    fhat(s) = (|a| / 2 pi) int f(r) exp(-i a s.r) d^2 r with a = scale;
    the transform is unitary for any nonzero a.  With a = 1/hbar this is
    the conventional hbar-scaled momentum representation.
    """
    return _scaled_ft(f, scale, -1, "momentum")


def position_representation(fhat: ComplexField2D, scale: float) -> ComplexField2D:
    """Inverse of :func:`momentum_representation` on the matching grid."""
    return _scaled_ft(fhat, scale, +1, "position")
