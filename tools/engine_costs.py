"""Micro-benchmarks of the phase-integral engine's fixed costs, layer by layer.

    python -m pytest tools/engine_costs.py --benchmark-only

Run it from the repository root; it imports ncwigner from this checkout's
``src/``.  pytest-benchmark prints each case's min, median and rounds; with
``--benchmark-autosave`` it also keeps them under ``.benchmarks/``.  The
tier-1 run does not collect this file (``testpaths = tests``).

Cases, on a 128^2 state over [-10, 10) (seeded random Hermite-Gaussian
combinations):

- one-point ``wigner_generic``, ``wigner_tau0`` and ``wigner_qm_orbit``
  calls, with the centre on the state lattice (windows only) and off it
  (one Fourier shift per axis), at off-lattice frequencies;
- ``_centre_groups`` on one node and on the theta-side Prop-4.2 cloud of
  perfbench's params_cloud (32 x 32 x 32 x 48 = 1,572,864 points, 2,048
  centres);
- the tail check on a 128^2 integrand with mass: one whose row at t0 = 0
  decides, and one whose row stays under the cut, so that the full pass
  over the integrand decides.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import ncwigner as nw  # noqa: E402
from ncwigner import wigner  # noqa: E402
from ncwigner.core import Grid1D  # noqa: E402

ORBIT = {"wigner_generic": (1.0, -1.0, 1.0), "wigner_tau0": (1.0, 1.0, 0.0),
         "wigner_qm_orbit": (1.0, 0.0, 0.0)}


@pytest.fixture(scope="module")
def state():
    rng = np.random.default_rng(26)
    grid = nw.default_state_grid(128, 10.0)
    op = nw.RankOneOperator(*(nw.random_hermite_gaussian(rng, grid, rep="momentum")
                              for _ in range(2)))
    # one call builds the fields' memos (reflected ket, peaks), which every
    # later call reads, so that the first case times what the others do
    nw.wigner_qm_orbit(op, np.zeros((1, 4)), nw.make_orbit_label(*ORBIT["wigner_qm_orbit"]))
    return op


@pytest.mark.parametrize("centre", ["lattice", "off_lattice"])
@pytest.mark.parametrize("name", list(ORBIT))
def test_one_point_call(benchmark, state, name, centre):
    label = nw.make_orbit_label(*ORBIT[name])
    step = state.ket.grid.axis0.step
    dk = 2.0 * math.pi / (state.ket.grid.axis0.n * step)
    shift = 0.37 if centre == "off_lattice" else 0.0
    pt = wigner.orbit_from_wave_coords(label, 3.37 * dk / 2, -5.61 * dk / 2,
                                       (2 + shift) * step, (-4 + shift) * step)
    pts = np.array([pt.as_array()])
    fn = getattr(nw, name)
    assert np.isfinite(benchmark(fn, state, pts, label)).all()


def test_centre_groups_one_node(benchmark):
    w0, w1, c0, c1 = (np.array([x]) for x in (0.3, -0.2, 0.25, -0.5))
    out = np.empty(1, dtype=np.complex128)
    assert benchmark(wigner._centre_groups, w0, w1, c0, c1, out).c0.size == 1


def test_centre_groups_theta_cloud(benchmark):
    params = nw.nc_params_from_label(nw.make_orbit_label(1.0, -1.0, 1.0))
    hb, th, e = params.hbar, params.vartheta, params.det
    out = Grid1D(32, -3.5 + 0.03, 7.0 / 32)
    k1, k2, k3, c0 = np.meshgrid(out.coords(), out.coords(), Grid1D.symmetric(32, 5.76).coords(),
                                 Grid1D(48, -8.0, 1.0 / 3.0).coords(), indexing="ij")
    pts = np.stack([k1.ravel(), k2.ravel(), k3.ravel(),
                    ((e * c0 - hb ** 2 * k1) / (hb * th)).ravel()], axis=1)
    del k1, k2, k3, c0
    k1s, k2s, k3s, k4s = pts.T   # the maps of wigner_nc_params
    waves = (k3s, (hb * k4s + params.bfield * k1s) / e, (hb ** 2 * k1s + hb * th * k4s) / e, k2s)
    vals = np.empty(len(pts), dtype=np.complex128)
    plan = benchmark.pedantic(wigner._centre_groups, args=(*waves, vals), rounds=5)
    assert plan.c0.size == 2048


@pytest.mark.parametrize("decides", ["row", "full_pass"])
def test_tail_check(benchmark, state, decides):
    # at c0 = c1 = 0 both integrands fill all 128^2 samples; bra and ket
    # displaced to +-4 along axis 0 (widths 0.5) leave the t0 = 0 row under
    # the cut, so the full pass decides
    if decides == "full_pass":
        grid = state.ket.grid
        bra, ket = (nw.gaussian_state(grid, widths=(0.5, 0.5), center=(x, 0.0, 0.0, 0.0),
                                      rep="momentum") for x in (4.0, -4.0))
    else:
        bra, ket = state.bra, state.ket
    ev = wigner._GroupEvaluator(ket, bra, 1.0, 1.0)
    h, core = ev.integrand(ev.row(0.0, [0.0]), 0.0, None)
    assert core.shape == h.shape
    assert not benchmark(ev.in_tail, h, core)
