import math

import numpy as np
import pytest

from ncwigner import (
    ComplexField2D,
    Grid1D,
    Grid2D,
    cont_ft_2d,
    cont_ft_axis,
    default_state_grid,
    integrate_2d,
    momentum_representation,
    position_representation,
    shift_field,
)
from ncwigner.numerics import _axis_reflect, _shift_spectrum, conjugate_grid


def gaussian_field(n=256, extent=10.0, width=1.0):
    g = Grid2D.square(n, extent)
    x0, x1 = g.meshgrid()
    return ComplexField2D(g, np.exp(-(x0 ** 2 + x1 ** 2) / (2 * width ** 2)))


class TestIntegrate2D:
    def test_constant_exact(self):
        g = Grid2D(Grid1D(17, 0.0, 1.0 / 16), Grid1D(33, 0.0, 1.0 / 32))
        f = ComplexField2D(g, np.ones(g.shape))
        assert integrate_2d(f) == pytest.approx(1.0, abs=1e-15)

    def test_normalized_gaussian(self):
        g = Grid2D.square(128, 8.0)
        x0, x1 = g.meshgrid()
        f = ComplexField2D(g, np.exp(-(x0 ** 2 + x1 ** 2)) / math.pi)
        assert integrate_2d(f) == pytest.approx(1.0, abs=1e-10)

    def test_linearity(self):
        g = Grid2D.square(32, 3.0)
        rng = np.random.default_rng(0)
        fa = ComplexField2D(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        fb = ComplexField2D(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        a, b = 1.3 - 0.2j, -0.8 + 0.5j
        comb = ComplexField2D(g, a * fa.values + b * fb.values)
        lhs = integrate_2d(comb)
        rhs = a * integrate_2d(fa) + b * integrate_2d(fb)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    def test_trapezoid_error_decreases_with_n(self):
        # coarse enough that discretisation (not tail truncation) dominates
        errs = []
        for n in (8, 12, 16):
            g = Grid2D.square(n, 6.0)
            x0, x1 = g.meshgrid()
            f = ComplexField2D(g, np.exp(-((x0 - 0.37) ** 2 + (x1 + 0.83) ** 2) / 0.5))
            errs.append(abs(integrate_2d(f) - 0.5 * math.pi))
        assert errs[0] > errs[1] > errs[2]


class TestContinuousFT:
    def test_gaussian_self_dual(self):
        f = gaussian_field(256, 10.0)
        F = cont_ft_2d(f, -1)
        k0, k1 = F.grid.meshgrid()
        assert np.max(np.abs(F.values - np.exp(-(k0 ** 2 + k1 ** 2) / 2))) <= 1e-10

    def test_parseval(self):
        f = gaussian_field(128, 9.0)
        F = cont_ft_2d(f, -1)
        assert abs(F.norm() - f.norm()) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        g = Grid2D.square(64, 6.0)
        x0, x1 = g.meshgrid()
        base = np.exp(-(x0 ** 2 + x1 ** 2) / 2)
        f = ComplexField2D(g, base * (rng.standard_normal(g.shape)
                                      + 1j * rng.standard_normal(g.shape)))
        back = cont_ft_2d(cont_ft_2d(f, -1), +1)
        assert np.max(np.abs(back.values - f.values)) <= 1e-10

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            cont_ft_2d(gaussian_field(32, 4.0), 2)

    def test_conjugate_grid_centers_zero(self):
        g = Grid1D.symmetric(64, 5.0)
        k = conjugate_grid(g)
        assert k.coords()[64 // 2] == 0.0
        assert k.step == pytest.approx(2 * math.pi / (64 * g.step))


class TestAxisFT:
    def test_separable_gaussian(self):
        g = Grid2D.square(256, 10.0)
        x0, x1 = g.meshgrid()
        other = np.exp(-(x1 - 1.0) ** 2)
        f = ComplexField2D(g, np.exp(-x0 ** 2 / 2) * other)
        F = cont_ft_axis(f, 0, -1)
        k0 = F.grid.axis0.coords()[:, None]
        expect = np.exp(-k0 ** 2 / 2) * other
        assert np.max(np.abs(F.values - expect)) <= 1e-10

    def test_two_axis_transforms_equal_2d(self):
        f = gaussian_field(64, 6.0)
        via_axes = cont_ft_axis(cont_ft_axis(f, 0, -1), 1, -1)
        direct = cont_ft_2d(f, -1)
        assert np.max(np.abs(via_axes.values - direct.values)) <= 1e-12

    def test_parseval_per_axis(self):
        f = gaussian_field(128, 8.0)
        F = cont_ft_axis(f, 1, -1)
        assert abs(F.norm() - f.norm()) <= 1e-10


class TestShifts:
    def test_zero_shift_identity(self):
        f = gaussian_field(64, 6.0)
        out = shift_field(f, 0.0, 0.0)
        assert np.max(np.abs(out.values - f.values)) <= 1e-14

    def test_integer_shift_matches_index_translation(self):
        f = gaussian_field(128, 8.0)
        h = f.grid.axis0.step
        out = shift_field(f, 3 * h, -2 * h)
        ref = np.zeros_like(f.values)
        ref[:-3, 2:] = f.values[3:, :-2]   # f(r + d) sits at index j + d/step
        assert out.values.tobytes() == ref.tobytes()
        spec = _shift_spectrum(np.fft.fft(f.values, axis=0), 3.0, 0)
        spec = _shift_spectrum(np.fft.fft(spec, axis=1), -2.0, 1)
        assert np.max(np.abs(spec - out.values)) <= 1e-10

    def test_each_axis_chooses_alone(self):
        # a whole number of steps on axis 0 is an index shift even when
        # axis 1 is off the lattice, and axis 1 is Fourier-shifted alone
        f = gaussian_field(32, 4.0)
        h = f.grid.axis0.step
        out = shift_field(f, 3 * h, 0.4 * h)
        ref = np.zeros_like(f.values)
        ref[:-3, :] = f.values[3:, :]
        ref = _shift_spectrum(np.fft.fft(ref, axis=1), 0.4, 1)
        assert out.values.tobytes() == ref.tobytes()

    def test_shift_round_trip(self):
        f = gaussian_field(128, 8.0)
        out = shift_field(shift_field(f, 0.37, -0.81), -0.37, 0.81)
        assert np.max(np.abs(out.values - f.values)) <= 1e-10

    def test_shift_values_are_samples_of_translated_function(self):
        f = gaussian_field(256, 10.0)
        out = shift_field(f, 0.3, -0.7)
        x0, x1 = f.grid.meshgrid()
        expect = np.exp(-((x0 + 0.3) ** 2 + (x1 - 0.7) ** 2) / 2)
        assert np.max(np.abs(out.values - expect)) <= 1e-12

    @pytest.mark.parametrize("d0, d1, name", [(math.nan, 0.0, "d0"), (0.0, math.inf, "d1"),
                                              (-math.inf, 0.5, "d0")])
    def test_non_finite_offset_refused(self, d0, d1, name):
        f = gaussian_field(16, 4.0)
        with pytest.raises(ValueError, match=f"^shift_field needs a finite {name}, got") as exc:
            shift_field(f, d0, d1)
        assert "\n" not in str(exc.value)

    def test_reflection(self):
        g = Grid2D.square(64, 7.0)
        x0, x1 = g.meshgrid()
        f = np.exp(-((x0 - 0.5) ** 2 + (x1 + 1.0) ** 2))
        r = _axis_reflect(_axis_reflect(f, g.axis0, 0), g.axis1, 1)
        expect = np.exp(-((-x0 - 0.5) ** 2 + (-x1 + 1.0) ** 2))
        # the lost +L edge row carries only tail mass
        assert np.max(np.abs(r - expect)) <= 1e-12
        with pytest.raises(ValueError, match="symmetric grid"):
            _axis_reflect(f, Grid1D(64, -6.9, 7.0 / 32), 0)


class TestScaledRepresentations:
    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.5, -1.5])
    def test_round_trip(self, scale):
        f = gaussian_field(128, 10.0)
        fhat = momentum_representation(f, scale)
        back = position_representation(fhat, scale)
        assert abs(fhat.norm() - f.norm()) <= 1e-10
        assert np.max(np.abs(back.values - f.values)) <= 1e-10

    def test_unit_scale_matches_plain_ft(self):
        f = gaussian_field(128, 10.0)
        fhat = momentum_representation(f, 1.0)
        F = cont_ft_2d(f, -1)
        assert np.max(np.abs(fhat.values - F.values)) == 0.0

    def test_default_grid(self):
        g = default_state_grid()
        assert g.axis0.n == 128 and g.axis0.origin == -10.0
        assert g.axis0.coords()[64] == 0.0
