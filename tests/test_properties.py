"""Property tests of the coordinate maps, the scaled representations, the
axis shifter, the field-file round trip and the engine's sesquilinearity
and hermiticity on the point and grid paths.

Hypothesis runs derandomized with few examples, so these tests are
deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncwigner import RankOneOperator, wigner_nc
from ncwigner.cli import read_field_file, write_field_file
from ncwigner.core import (CoadjointPoint, DimensionalConstants, Grid1D, Grid2D,
                           make_orbit_label, nc_domain, nc_to_orbit, orbit_to_nc)
from ncwigner.numerics import (_axis_shifter, momentum_representation,
                               position_representation)
from ncwigner.oracles import random_hermite_gaussian
from ncwigner.wigner import aligned_frequency_grid

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

magnitude = st.floats(0.5, 2.0)
signed = st.builds(lambda m, s: s * m, magnitude, st.sampled_from([-1.0, 1.0]))
points = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(4)),
                elements=st.floats(-5.0, 5.0))


@st.composite
def labels(draw, sectors=("generic", "tau0", "qm")):
    """Labels from the given sectors, kept away from the degenerate surface."""
    sector = draw(st.sampled_from(sectors))
    k1 = draw(signed)
    k2 = 0.0 if sector == "qm" else draw(signed)
    k3 = draw(signed) if sector == "generic" else 0.0
    consts = DimensionalConstants(draw(signed), draw(signed), draw(signed))
    k1a2 = (k1 * consts.alpha) ** 2
    assume(abs(k1a2 - k2 * k3 * consts.beta * consts.gamma) >= 0.1 * k1a2)
    return make_orbit_label(k1, k2, k3, consts)


@PROPERTY
@given(labels(), points)
def test_orbit_to_nc_on_arrays_matches_per_point(label, pts):
    nc = orbit_to_nc(CoadjointPoint(*pts.T), label)
    per_point = np.array([orbit_to_nc(CoadjointPoint(*p), label).as_array() for p in pts])
    assert np.array_equal(nc.as_array().T, per_point)


@PROPERTY
@given(labels(), points)
def test_nc_to_orbit_inverts_orbit_to_nc_on_arrays(label, pts):
    nc = orbit_to_nc(CoadjointPoint(*pts.T), label)
    back = nc_to_orbit(nc, label).as_array().T
    assert np.allclose(back, pts, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(signed, st.integers(0, 2 ** 32 - 1))
def test_position_representation_inverts_momentum_representation(scale, seed):
    f = random_hermite_gaussian(np.random.default_rng(seed), Grid2D.square(64, 8.0))
    back = position_representation(momentum_representation(f, scale), scale)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def reference_axis_shift(values, d, step, axis):
    """f(x + d) along axis: zero-filled index translation when d is a whole
    number of steps (within 1e-9), else one forward and one inverse FFT."""
    delta = d / step
    r = round(delta)
    if abs(delta - r) <= 1e-9:
        if r == 0:
            return values
        n = values.shape[axis]
        out = np.zeros_like(values)
        src = slice(max(r, 0), min(n + r, n))
        dst = slice(src.start - r, src.stop - r)
        if src.start < src.stop:
            if axis == 0:
                out[dst, :] = values[src, :]
            else:
                out[:, dst] = values[:, src]
        return out
    spec = np.fft.fft(values, axis=axis)
    ph = np.exp(2j * math.pi * np.fft.fftfreq(values.shape[axis]) * delta)
    spec *= ph[:, None] if axis == 0 else ph[None, :]
    return np.fft.ifft(spec, axis=axis)


# offsets in steps: whole (aligned, zero included) or fractional
offsets = st.lists(
    st.one_of(st.integers(-12, 12).map(float), st.floats(-12.0, 12.0)),
    min_size=1, max_size=6,
)


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 24), st.integers(4, 24),
       st.floats(0.05, 2.0), st.sampled_from([0, 1]), offsets)
def test_axis_shifter_repeats_the_one_off_shift_bitwise(seed, n0, n1, step, axis, ds):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    shift = _axis_shifter(values, step, axis)
    for d in [x * step for x in ds + ds[::-1]]:
        assert shift(d).tobytes() == reference_axis_shift(values, d, step, axis).tobytes()


# any finite double, with signed zeros and subnormals drawn often
samples = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-05, 1.0]),
)
axes = st.builds(Grid1D, st.integers(2, 9), st.floats(-1e6, 1e6),
                 st.floats(1e-6, 1e6, exclude_min=True))


@pytest.mark.parametrize("fmt", ["csv", "gnuplot", "json"])
@PROPERTY
@given(axes, axes, st.data())
def test_field_file_round_trip_is_bitwise(tmp_path_factory, fmt, g0, g1, data):
    shape = (g0.n, g1.n)
    parts = data.draw(arrays(np.float64, (2, *shape), elements=samples))
    values = np.empty(shape, dtype=np.complex128)
    values.real, values.imag = parts
    path = tmp_path_factory.mktemp("field") / f"f.{fmt}"
    write_field_file(str(path), (g0, g1), values, {"representation": "momentum"}, fmt=fmt)
    back = read_field_file(str(path))
    assert back.values.tobytes() == values.tobytes()
    assert (back.grid.axis0, back.grid.axis1, back.rep) == (g0, g1, "momentum")


# engine: ket, bra and a third field on a 64^2 momentum grid of extent 8
# (on 32^2 of extent 6 the swapped transform misses the conjugate by up to
# 3e-9 relative, a sampling error), nc frequencies within [-1, 1] (inside
# the band for |k1 a| <= 4) and centres within [-1.5, 1.5], where the
# integrand carries mass
ENGINE_GRID = Grid2D.square(64, 8.0)
scalars = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda z: abs(z) >= 0.1)


def engine_fields(seed):
    rng = np.random.default_rng(seed)
    return [random_hermite_gaussian(rng, ENGINE_GRID, rep="momentum") for _ in range(3)]


@st.composite
def nc_points(draw):
    """Up to 30 nc points over 1-4 shared centres, so groups hold several."""
    centres = draw(arrays(np.float64, st.tuples(st.integers(1, 4), st.just(2)),
                          elements=st.floats(-1.5, 1.5)))
    n = draw(st.integers(1, 30))
    freqs = draw(arrays(np.float64, (n, 2), elements=st.floats(-1.0, 1.0)))
    which = draw(arrays(np.intp, n, elements=st.integers(0, len(centres) - 1)))
    return np.column_stack([freqs, centres[which]])


@st.composite
def nc_grid_domains(draw, label):
    """Full nc domains: frequency axes on the FFT lattice (4 x 4 of them
    take the FFT) or anywhere, and centre axes anywhere."""
    if draw(st.booleans()):
        omega = label.k1 * label.consts.alpha
        freq = [aligned_frequency_grid(ENGINE_GRID.axis0, omega, draw(st.integers(2, 4)))
                for _ in range(2)]
    else:
        freq = [Grid1D(draw(st.integers(2, 5)), draw(st.floats(-1.0, 0.0)),
                       draw(st.floats(0.05, 0.25))) for _ in range(2)]
    cent = [Grid1D(draw(st.integers(2, 4)), draw(st.floats(-1.5, 0.0)),
                   draw(st.floats(0.05, 0.5))) for _ in range(2)]
    return nc_domain(q1nc=freq[0], q2nc=freq[1], p1nc=cent[0], p2nc=cent[1])


def engine_values(ket, bra, pts, label):
    w = wigner_nc(RankOneOperator(ket=ket, bra=bra), pts, label)
    return getattr(w, "values", w)   # a WignerField for a Domain4D


@st.composite
def engine_inputs(draw, grid_path):
    label = draw(labels(sectors=("generic",)))
    pts = draw(nc_grid_domains(label)) if grid_path else draw(nc_points())
    return label, pts


@pytest.mark.parametrize("grid_path", [False, True])
@PROPERTY
@given(st.data(), st.integers(0, 2 ** 32 - 1), scalars, scalars)
def test_engine_is_sesquilinear(grid_path, data, seed, a, b):
    label, pts = data.draw(engine_inputs(grid_path))
    chi, chi2, lam = engine_fields(seed)
    w1 = engine_values(chi, lam, pts, label)
    w2 = engine_values(chi2, lam, pts, label)
    mixed = chi.with_values(a * chi.values + chi2.values)
    w = engine_values(mixed, lam.with_values(b * lam.values), pts, label)
    scale = abs(b) * (abs(a) * np.max(np.abs(w1)) + np.max(np.abs(w2)))
    assert np.max(np.abs(w - np.conj(b) * (a * w1 + w2))) <= 1e-12 * scale


@pytest.mark.parametrize("grid_path", [False, True])
@PROPERTY
@given(st.data(), st.integers(0, 2 ** 32 - 1))
def test_engine_is_hermitian(grid_path, data, seed):
    label, pts = data.draw(engine_inputs(grid_path))
    chi, lam, _ = engine_fields(seed)
    w = engine_values(chi, lam, pts, label)
    swapped = engine_values(lam, chi, pts, label)
    assert np.max(np.abs(swapped - np.conj(w))) <= 1e-12 * np.max(np.abs(w))
