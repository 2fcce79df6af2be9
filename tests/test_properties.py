"""Property tests of the coordinate maps, the scaled representations, the
axis shifter and the field-file round trip.

Hypothesis runs derandomized with few examples, so these tests are
deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncwigner.cli import read_field_file, write_field_file
from ncwigner.core import (CoadjointPoint, DimensionalConstants, Grid1D, Grid2D,
                           make_orbit_label, nc_to_orbit, orbit_to_nc)
from ncwigner.numerics import (_axis_shifter, momentum_representation,
                               position_representation)
from ncwigner.oracles import random_hermite_gaussian

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

magnitude = st.floats(0.5, 2.0)
signed = st.builds(lambda m, s: s * m, magnitude, st.sampled_from([-1.0, 1.0]))
points = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(4)),
                elements=st.floats(-5.0, 5.0))


@st.composite
def labels(draw):
    """Labels from all three sectors, kept away from the degenerate surface."""
    sector = draw(st.sampled_from(["generic", "tau0", "qm"]))
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
