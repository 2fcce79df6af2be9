"""Command-line front end.

Subcommands compute Wigner transforms, marginals and star products for
built-in Gaussian states or field files, run the verification suites, and
run the commutative-limit study.  Output files are plain text (csv,
gnuplot blocks or json) with 17-significant-digit (csv, gnuplot) or
shortest round-trip (json) floats, reproducible byte for byte for
identical flags and seed.  Non-finite values are refused on writing.
:func:`read_field_file` reads all three formats, bit for bit with signed
zeros, and ends every malformed file in one ValueError line.

Each ``wigner`` variant and ``star`` kind has its own parser with only the
flags it reads; ``star`` takes (hbar, vartheta, B) from the orbit label when
``--k1`` is given, else from ``--hbar/--vartheta/--bfield``.

Exit codes: 0 success; 2 argument errors, an --out path that cannot be
written and a flag the command does not read among them; 3 invalid labels,
sector mismatches and singular parameters; 4 grid guards (too coarse, too
large).  Every run prints the resolved label, the derived noncommutativity
parameters and grid metadata to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from .core import (
    ComplexField2D,
    CoadjointPoint,
    DegenerateParams,
    DimensionalConstants,
    Domain4D,
    Grid1D,
    Grid2D,
    GridTooCoarse,
    GridTooLarge,
    InvalidLabel,
    NCParams,
    NC_COORDS,
    ORBIT_COORDS,
    OrbitLabel,
    PHASE_COORDS,
    RankOneOperator,
    SectorMismatch,
    _require_bytes,
    _square_is_normal,
    make_orbit_label,
    nc_domain,
    nc_params_from_label,
    orbit_domain,
    orbit_to_nc,
)
from ._suites import VerifyConfig, iter_verification_suites, qm_limit_study
from .oracles import format_report, gaussian_state, gaussian_state_momentum
from .starprod import (_require_star4d_bytes, marginal_momentum, marginal_position, star_B,
                       star_general, star_hbar, star_vartheta)
from .wigner import (
    _require_result_bytes,
    cross_wigner_standard,
    wigner_generic,
    wigner_nc,
    wigner_nc_params,
    wigner_qm_orbit,
    wigner_tau0,
)

_FMT = "%.17g"
_FIELD_MAGIC = "# ncwigner-field 1"
_CSV_COLUMNS = "x0,x1,re,im"
_GNUPLOT_COLUMNS = "x0 x1 re im (blank line between x0 blocks)"
# a built-in state is charged at four complex arrays: 4096^2 points fit 2^30 bytes
_STATE_POINT_BYTES = 4 * 16
# largest |grid norm - 1| of a built-in state: beyond it the grid cuts it off
_STATE_NORM_TOL = 1e-6
# the orbit-label flags after --k1 and their defaults
_LABEL_DEFAULTS = {"k2": 0.0, "k3": 0.0, "alpha": 1.0, "beta": 1.0, "gamma": 1.0}


def _fnum(x: float) -> str:
    return _FMT % x


# ---------------------------------------------------------------------------
# field file format
# ---------------------------------------------------------------------------

def write_field_file(path: str, grids: tuple[Grid1D, Grid1D], values: np.ndarray,
                     meta: dict[str, str], fmt: str = "csv"):
    """Write a 2D complex field: '#'-prefixed metadata, then row-major
    samples with axis0 varying fastest (csv, json) or axis1 varying fastest
    in blank-line separated axis0 blocks (gnuplot).  Non-finite values,
    values whose shape is not the grids', and metadata that would not read
    back alike from every format (a key holding ':' or a line break, a value
    holding a line break, either with leading or trailing whitespace, which
    the text formats strip) raise ValueError before the file is opened."""
    g0, g1 = grids
    v = np.asarray(values, dtype=np.complex128)
    if fmt not in ("csv", "gnuplot", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    for key, val in meta.items():
        key, val = f"{key}", f"{val}"
        if (any(c in key for c in ":\r\n") or any(c in val for c in "\r\n")
                or key != key.strip() or val != val.strip()):
            raise ValueError(f"field file {path}: metadata {key!r}: {val!r} would not read "
                             "back; a key may hold no ':' or line break, a value no line "
                             "break, and neither may start or end with whitespace")
    if v.shape != (g0.n, g1.n):
        raise ValueError(f"field file {path}: values shape {v.shape} != grid shape "
                         f"{(g0.n, g1.n)}")
    if not np.isfinite(v).all():
        raise ValueError(f"field file {path}: values must be finite")
    if fmt == "json":
        text = json.dumps({
            "format": "ncwigner-field",
            "version": 1,
            "meta": meta,
            "axes": [
                {"n": g.n, "origin": g.origin, "step": g.step} for g in (g0, g1)
            ],
            "layout": "axis0-fastest",
            "re": [],
            "im": [],
        }, indent=1, sort_keys=True)
        # json.dump(indent=1) runs the pure-Python encoder sample by sample;
        # splicing float.__repr__ lists in gives the same bytes for finite values
        for key, part in (("re", v.real), ("im", v.imag)):
            items = ",\n  ".join(map(float.__repr__, part.ravel(order="F").tolist()))
            text = text.replace(f'\n "{key}": []', f'\n "{key}": [\n  {items}\n ]', 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    lines = [_FIELD_MAGIC]
    for key, val in meta.items():
        lines.append(f"# {key}: {val}")
    for name, g in (("axis0", g0), ("axis1", g1)):
        lines.append(f"# {name}: n={g.n} origin={_fnum(g.origin)} step={_fnum(g.step)}")
    # each coordinate is formatted once into a row template that one %
    # fills with the samples, re and im interleaved in row order
    xs0 = [_fnum(x) for x in g0.coords()]
    xs1 = [_fnum(x) for x in g1.coords()]
    if fmt == "csv":
        lines += ["# layout: axis0-fastest", f"# columns: {_CSV_COLUMNS}"]
        order = "F"
        rows = "".join(tail.join(xs0) + tail
                       for tail in (f",{b},{_FMT},{_FMT}\n" for b in xs1))
    else:
        lines += ["# layout: axis1-fastest", f"# columns: {_GNUPLOT_COLUMNS}"]
        order = "C"
        rows = "".join(f"{a} " + f" {_FMT} {_FMT}\n{a} ".join(xs1) + f" {_FMT} {_FMT}\n\n"
                       for a in xs0)
    samples = v.ravel(order=order).view(np.float64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + rows % tuple(samples))


def read_field_file(path: str) -> ComplexField2D:
    """Read a field file in any of the formats :func:`write_field_file`
    writes (csv, gnuplot or json); the values round-trip bit for bit,
    signed zeros included.  A malformed file (no magic first line, a bad
    axis header, a bad row, a wrong row or column count, a non-finite
    sample, x0/x1 columns off the header grids in the file's row order,
    or no samples at all) raises ValueError with a one-line message."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith("{"):
        grids, re, im, order, meta = _parse_json_field(path, text)
    else:
        grids, re, im, order, meta = _parse_text_field(path, text)
    shape = (grids[0].n, grids[1].n)
    values = np.empty(shape, dtype=np.complex128)
    # filled part by part: re + 1j*im would turn a -0.0 real part into +0.0
    values.real = re.reshape(shape, order=order)
    values.imag = im.reshape(shape, order=order)
    return ComplexField2D(Grid2D(*grids), values, rep=meta.get("representation", "position"))


def _axis_grid(path: str, name: str, header, fields: dict) -> Grid1D:
    """The Grid1D of an axis header with fields n (a whole number or its
    decimal string), origin and step (finite)."""
    n = fields.get("n")
    try:
        return Grid1D(n=int(n) if isinstance(n, str) else operator.index(n),
                      origin=float(fields.get("origin")), step=float(fields.get("step")))
    except (TypeError, ValueError):
        raise ValueError(f"field file {path}: malformed {name} header {header!r}") from None


def _parse_text_field(path: str, text: str):
    """csv and gnuplot files: the '#' block after the magic line is the
    metadata, every later line that is not blank or a comment is a sample
    row x0,x1,re,im."""
    lines = text.split("\n")
    if lines[0].strip() != _FIELD_MAGIC:
        raise ValueError(f"field file {path}: first line is not {_FIELD_MAGIC!r}")
    first = 1
    while first < len(lines) and (not lines[first].strip()
                                  or lines[first].lstrip().startswith("#")):
        first += 1
    meta: dict[str, str] = {}
    for line in lines[1:first]:
        key, sep, val = line.strip()[1:].partition(":")
        if sep:
            meta[key.strip()] = val.strip()
    grids = []
    for name in ("axis0", "axis1"):
        if name not in meta:
            raise ValueError(f"field file {path} lacks the {name} header")
        grids.append(_axis_grid(path, name, meta[name],
                                dict(tok.partition("=")[::2] for tok in meta[name].split())))
    expected = grids[0].n * grids[1].n
    if first == len(lines):
        raise ValueError(f"field file {path}: no sample rows (expected {expected})")
    gnuplot = meta.get("columns") == _GNUPLOT_COLUMNS
    delim, what = (None, "whitespace") if gnuplot else (",", "comma")
    body = lines[first:]
    try:
        data = np.loadtxt(body, delimiter=delim, comments="#", ndmin=2)
        error = None
    except ValueError as exc:
        data, error = None, str(exc).partition("\n")[0]
    if data is None or data.shape[1] != 4 or not np.isfinite(data).all():
        bad = _first_bad_row(body, delim)
        if bad is None:
            raise ValueError(f"field file {path}: {error}")
        raise ValueError(f"field file {path}, line {first + bad + 1}: expected four "
                         f"{what}-separated finite numbers x0,x1,re,im")
    if data.shape[0] != expected:
        raise ValueError(f"field file {path}: expected {expected} rows, got {data.shape[0]}")
    order = "C" if gnuplot else "F"
    # row r must sit at its grid point in the file's layout; within 1e-9 of
    # a step, which the writer's 17 significant digits meet exactly
    want = [x.ravel(order=order) for x in np.meshgrid(*(g.coords() for g in grids),
                                                      indexing="ij")]
    off = np.zeros(expected, dtype=bool)
    for axis, g in enumerate(grids):
        off |= np.abs(data[:, axis] - want[axis]) > 1e-9 * g.step
    if off.any():
        k = int(np.argmax(off))
        line = next(itertools.islice(_sample_rows(body, delim), k, None))[0]
        raise ValueError(f"field file {path}, line {first + line + 1}: x0,x1 should be "
                         f"{_fnum(want[0][k])},{_fnum(want[1][k])} in this row")
    return grids, data[:, 2], data[:, 3], order, meta


def _sample_rows(body: list[str], delim: str | None):
    """(index in body, text before any comment) of each sample row.  Rows
    are skipped where np.loadtxt skips them: empty once the comment is
    cut, and for whitespace-separated rows also when only whitespace is
    left."""
    for i, line in enumerate(body):
        line = line.partition("#")[0]
        if line.strip() if delim is None else line:
            yield i, line


def _first_bad_row(body: list[str], delim: str | None) -> int | None:
    """Index in body of the first sample row that is not four finite
    numbers; only run once the vectorised parse has failed, to name it."""
    for i, line in _sample_rows(body, delim):
        try:
            row = [float(t) for t in line.split(delim)]
        except ValueError:
            return i
        if len(row) != 4 or not all(map(math.isfinite, row)):
            return i
    return None


def _parse_json_field(path: str, text: str):
    """json files: the document write_field_file writes, axis0 fastest."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"field file {path}: not valid json ({exc})") from None
    if not (isinstance(doc, dict) and doc.get("format") == "ncwigner-field"
            and doc.get("version") == 1 and doc.get("layout") == "axis0-fastest"
            and isinstance(doc.get("meta", {}), dict)
            and isinstance(doc.get("axes"), list) and len(doc["axes"]) == 2
            and all(isinstance(ax, dict) for ax in doc["axes"])):
        raise ValueError(f"field file {path}: not an ncwigner-field version 1 json "
                         "document with two axes, axis0 fastest")
    grids = [_axis_grid(path, f"axis{i}", ax, ax) for i, ax in enumerate(doc["axes"])]
    expected = grids[0].n * grids[1].n
    re, im = np.asarray(doc.get("re")), np.asarray(doc.get("im"))
    if (re.shape != (expected,) or im.shape != (expected,)
            or re.dtype.kind not in "if" or im.dtype.kind not in "if"
            or not (np.isfinite(re).all() and np.isfinite(im).all())):
        raise ValueError(f"field file {path}: expected {expected} finite numbers "
                         "in each of re and im")
    return grids, re, im, "F", doc.get("meta", {})


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _state_file(path: str, rep: str) -> ComplexField2D:
    """read_field_file for --state file:<path>; a missing or malformed file,
    or one not tagged ``rep``, is an argument error."""
    try:
        f = read_field_file(path)
    except (OSError, ValueError) as exc:
        raise _CliFailure(2, f"--state file: {exc}") from None
    if f.rep != rep:
        raise _CliFailure(2, f"--state file must carry representation: {rep} "
                             "for this transform")
    return f


def _parse_state_spec(spec: str):
    """'gaussian:n0,n1[,q01,p01|,q01,q02,p01,p02]' or 'file:<path>'."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        if not rest:
            raise _CliFailure(2, "--state file: requires a path")
        return ("file", rest)
    if kind != "gaussian":
        raise _CliFailure(2, f"--state: unknown source {kind!r} (use gaussian: or file:)")
    parts = rest.split(",")
    if len(parts) not in (2, 4, 6):
        raise _CliFailure(2, "--state gaussian: needs n0,n1[,q01,p01|,q01,q02,p01,p02]")
    try:
        n0, n1, *xs = int(parts[0]), int(parts[1]), *map(float, parts[2:])
        ok = min(n0, n1) >= 0 and all(map(math.isfinite, xs))
    except ValueError:
        ok = False
    if not ok:
        raise _CliFailure(2, f"--state gaussian: {rest!r} needs whole n0,n1 >= 0 and "
                             "finite centre coordinates")
    center = [xs[0], 0.0, xs[1], 0.0] if len(xs) == 2 else xs or [0.0] * 4
    return ("gaussian", (n0, n1), tuple(center))


def _label_from_args(args) -> OrbitLabel:
    consts = DimensionalConstants(args.alpha, args.beta, args.gamma)
    return make_orbit_label(args.k1, args.k2, args.k3, consts)


def _parse_slice(spec: str | None, names) -> dict[str, float]:
    fixed = {}
    if not spec:
        return fixed
    for item in spec.split(","):
        if not item:
            continue
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in names:
            raise _CliFailure(2, f"--slice: unknown coordinate {name!r}; expected one of {names}")
        try:
            v = float(val)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise _CliFailure(2, f"--slice: {name}={val!r} is not a finite number")
        if name in fixed:
            raise _CliFailure(2, f"--slice: {name} is pinned twice")
        fixed[name] = v
    return fixed


def _build_domain(names, fixed: dict[str, float], n: int, extent: float) -> Domain4D:
    """The 2D output slice, checked before any state or transform is built."""
    spec = {}
    for name in names:
        if name in fixed:
            spec[name] = fixed[name]
        else:
            spec[name] = Grid1D.symmetric(n, extent)
    try:
        domain = Domain4D.build(names, **spec)
    except ValueError as exc:
        raise _CliFailure(2, f"--slice: {exc}") from None
    if len(domain.varying) != 2:
        raise _CliFailure(2, "--slice must pin all but two coordinates for file output")
    return domain


def _meta_lines(label: OrbitLabel | None, params: NCParams | None, extra: dict[str, str]):
    meta = {}
    if label is not None:
        c = label.consts
        meta["label"] = (f"k1={_fnum(label.k1)} k2={_fnum(label.k2)} k3={_fnum(label.k3)} "
                         f"alpha={_fnum(c.alpha)} beta={_fnum(c.beta)} gamma={_fnum(c.gamma)} "
                         f"sector={label.sector.value}")
    if params is not None:
        meta["params"] = (f"hbar={_fnum(params.hbar)} vartheta={_fnum(params.vartheta)} "
                          f"bfield={_fnum(params.bfield)}")
    meta.update(extra)
    return meta


def _log_run(meta: dict[str, str]):
    for key, val in meta.items():
        print(f"[ncwig] {key}: {val}", file=sys.stderr)


def _write_out(args, *field, text=None):
    """Write --out: a field file from (grids, values, meta), else ``text``.
    A path it cannot write, or a field the writer refuses, is an argument
    error."""
    try:
        if field:
            write_field_file(args.out, *field, fmt=args.format)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ValueError) as exc:
        raise _CliFailure(2, f"--out: {exc}") from None
    print(f"[ncwig] wrote {args.out}", file=sys.stderr)


def _momentum_state_for_output(args, label: OrbitLabel, domain: Domain4D, state) -> ComplexField2D:
    """Build the momentum-side field; gaussian sources go on a grid fine
    enough to resolve every requested output phase."""
    if state[0] == "file":
        return _state_file(state[1], "momentum")
    center = state[2]
    a = label.k1 * label.consts.alpha
    # frequency bound for the requested points
    if domain.names == ORBIT_COORDS:
        # orbit frequencies are the q^nc coordinates, which mix the axes
        omega = abs(label.consts.alpha)
        w0, w1 = orbit_to_nc(CoadjointPoint(*np.ix_(*domain.axes())), label).qnc
    else:
        omega = abs(a)
        w0, w1 = domain.axes()[:2]  # the q^nc axes are the frequencies
    kmax = 2.0 * omega * max(float(np.max(np.abs(w0))),
                             float(np.max(np.abs(w1))), 1e-9)
    # The integrand conj(f)(c + t) f(c - t) carries the state's phase as
    # exp(2i a q0.t) under a Gaussian envelope whose spectrum, the state's
    # Wigner profile along q, reaches ``tails`` (the Hermite turning point
    # plus 6 widths, where exp(-6^2) < 1e-15) around q0.  Summed over t at
    # step h its phase frequencies repeat with period 2 pi/h, so the window
    # [-kmax, kmax] stays clear of that band's images when 2 pi/h covers
    # kmax + 2|a| (|q0| + tails); the tails carry their own margin, so the
    # 5% margin stays on the window alone.
    tails = 6.0 + math.sqrt(2 * max(state[1]) + 1)
    band = max(1.05 * kmax, kmax / 2 + abs(a) * (max(abs(center[0]), abs(center[1])) + tails))
    # extent covers the state's momentum support; the step is refined until
    # the conjugate band covers every requested output phase and the state's
    # band (each doubling charged)
    extent = max(12.0, abs(center[2]) + 10.0, abs(center[3]) + 10.0) / abs(a)
    n = args.state_grid
    while math.pi * n / (2.0 * extent) <= band:
        n *= 2
        _require_bytes(f"the output frequencies and the state's band need more than {n // 2} "
                       f"state points per axis; states on {n}x{n} points",
                       _STATE_POINT_BYTES * n * n)
    return _gaussian(state, "momentum", n, extent, a)


def _position_state(args, state) -> ComplexField2D:
    if state[0] == "file":
        return _state_file(state[1], "position")
    return _gaussian(state, "position", args.state_grid, args.state_extent, 1.0)


def _gaussian(state, rep: str, n: int, extent: float, scale: float) -> ComplexField2D:
    """A parsed gaussian spec on the n x n grid of half-extent ``extent``
    (momentum samples at ``scale`` = k1 a), charged before it is built;
    GridTooCoarse where floats or the grid cannot hold it."""
    _, hermite, center = state
    _require_bytes(f"built-in states on {n}x{n} points", _STATE_POINT_BYTES * n * n)
    grid = Grid2D.square(n, extent)
    spec = "gaussian:{},{}".format(*hermite)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if rep == "momentum":
                f = gaussian_state_momentum(grid, scale, center=center, hermite=hermite)
            else:
                f = gaussian_state(grid, center=center, hermite=hermite)
    except (OverflowError, ValueError):
        # 2^n n! overflows above Hermite index 170; a ValueError here is a
        # non-finite sample, the spec having been validated already
        raise GridTooCoarse(f"built-in state {spec} cannot be evaluated in floating point "
                            f"on its {n}x{n} grid; lower the Hermite indices or the "
                            "grid extent") from None
    norm = f.norm()
    if not abs(norm - 1.0) <= _STATE_NORM_TOL:
        raise GridTooCoarse(f"built-in state {spec} has grid norm {norm:.6g} on its {n}x{n} "
                            f"grid, more than {_STATE_NORM_TOL:g} away from 1; use a finer "
                            "or wider state grid")
    return f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# ncwig wigner <variant> -> (transform, output coordinates)
_WIGNER_VARIANTS = {
    "generic": (wigner_generic, ORBIT_COORDS),
    "nc": (wigner_nc, NC_COORDS),
    "tau0": (wigner_tau0, ORBIT_COORDS),
    "qm": (wigner_qm_orbit, ORBIT_COORDS),
    "standard": (cross_wigner_standard, PHASE_COORDS),
}


def _cmd_wigner(args) -> int:
    state = _parse_state_spec(args.state)
    transform, names = _WIGNER_VARIANTS[args.variant]
    label = params = None
    extra = {"transform": args.variant}
    if args.variant == "standard":
        extra["planck_h"] = _fnum(args.planck_h)
    else:
        label = _label_from_args(args)
        params = nc_params_from_label(label)
    domain = _build_domain(names, _parse_slice(args.slice, names), args.grid, args.extent)
    _require_result_bytes(domain.shape)
    meta = _meta_lines(label, params, extra | {
        "state": args.state,
        "axes": ",".join(domain.varying),
        "fixed": " ".join(f"{k}={_fnum(v)}" for k, v in domain.fixed),
    })
    _log_run(meta)
    if label is None:
        psi = _position_state(args, state)
        field = transform(psi, psi, domain, args.planck_h)
    else:
        fhat = _momentum_state_for_output(args, label, domain, state)
        g0 = fhat.grid.axis0
        print(f"[ncwig] state-grid: n={g0.n} origin={_fnum(g0.origin)} "
              f"step={_fnum(g0.step)} rep={fhat.rep}", file=sys.stderr)
        for name, g in zip(domain.varying, domain.grids):
            print(f"[ncwig] output-grid {name}: n={g.n} origin={_fnum(g.origin)} "
                  f"step={_fnum(g.step)}", file=sys.stderr)
        field = transform(RankOneOperator(ket=fhat, bra=fhat), domain, label)
    _write_out(args, tuple(domain.grids), field.values, meta)
    return 0


def _cmd_marginal(args) -> int:
    label = _label_from_args(args)
    params = nc_params_from_label(label)
    state = _parse_state_spec(args.state)
    out = Grid1D.symmetric(args.grid, args.extent)
    integ = Grid1D.symmetric(args.int_grid, args.int_extent)
    # the integrated pair takes the int-grid, the other pair the output grid
    q, p, marginal = ((integ, out, marginal_momentum) if args.which == "momentum"
                      else (out, integ, marginal_position))
    dom = nc_domain(q1nc=q, q2nc=q, p1nc=p, p2nc=p)
    fhat = _momentum_state_for_output(args, label, dom, state)
    op = RankOneOperator(ket=fhat, bra=fhat)
    w4 = wigner_nc(op, dom, label)
    marg = marginal(w4, label)
    meta = _meta_lines(label, params, {
        "transform": f"marginal-{args.which}",
        "state": args.state,
        "coords": marg.coords,
        "residual_imag": _fnum(marg.residual_imag),
    })
    _log_run(meta)
    _write_out(args, (marg.grid.axis0, marg.grid.axis1), marg.values, meta)
    return 0


def _cmd_star(args) -> int:
    # --k1 reads the label flags, else the parameter flags; the others must be unset
    with_k1 = args.k1 is not None
    sets = (_LABEL_DEFAULTS, {"hbar": 1.0, "vartheta": 0.0, "bfield": 0.0})
    read, unread = sets if with_k1 else sets[::-1]
    given = [f"--{name}" for name in unread if name in vars(args)]
    if given:
        raise _CliFailure(2, f"{', '.join(given)}: not read with{'' if with_k1 else 'out'} --k1")
    args = argparse.Namespace(**(read | vars(args)))  # the defaults of those not given
    label = _label_from_args(args) if with_k1 else None
    params = (nc_params_from_label(label) if with_k1
              else NCParams(args.hbar, args.vartheta, args.bfield))
    state = _parse_state_spec(args.state)
    kind = args.kind
    out1d = Grid1D.symmetric(args.grid, args.extent)
    meta = _meta_lines(label, params, {"transform": f"star-{kind}", "state": args.state})
    _log_run(meta)
    if kind in ("vartheta", "b"):
        need_mom = kind == "b"
        if state[0] == "file":
            f = _state_file(state[1], "momentum" if need_mom else "position")
        else:
            center = state[2]
            scale = 1.0 if label is None else label.k1 * label.consts.alpha
            # sample finely enough for the chirp guard
            coupling = params.bfield if need_mom else params.vartheta
            supp = max(abs(center[0]), abs(center[1])) + 8.0
            n = args.state_grid
            if coupling != 0.0:
                h_needed = 0.45 * math.pi / (2.0 / abs(coupling) * (args.extent + supp))
                # an extent near the float maximum or a subnormal coupling sends it to 0
                need = 2 * (supp + 2) / h_needed if h_needed > 0 else math.inf
                count = math.ceil(need) if need < 1e12 else f"{need:.3g}"
                _require_bytes(f"star {kind}: the kernel chirp needs {count} state points per "
                               "axis, which", _STATE_POINT_BYTES * need * need)
                n = max(n, math.ceil(need))
                n += n % 2
            f = _gaussian(state, "momentum" if need_mom else "position", n, supp + 2.0, scale)
        fc = f.with_values(np.conj(f.values))
        fn = star_vartheta if kind == "vartheta" else star_B
        res = fn(fc, f, params, out=Grid2D(out1d, out1d))
        _write_out(args, (out1d, out1d), res.values, meta)
    else:
        _require_star4d_bytes((args.grid,) * 4)
        dom = orbit_domain(k1s=out1d, k2s=out1d, k3s=out1d, k4s=out1d)
        psi = _position_state(args, state)
        w = wigner_nc_params(psi, dom, params)
        fn = star_hbar if kind == "hbar" else star_general
        res = fn(w, w, params)
        # write the central 2D slice of the 4D result
        mid = args.grid // 2
        at = _fnum(out1d.coords()[mid])
        meta["slice"] = f"k3s={at} k4s={at}"
        _write_out(args, (out1d, out1d), res.values[:, :, mid, mid], meta)
    return 0


def _cmd_verify(args) -> int:
    suites = None if args.suite == "all" else tuple(s for s in args.suite.split(",") if s)
    try:
        config = VerifyConfig(suites=suites, seed=args.seed)
    except ValueError as exc:
        raise _CliFailure(2, f"--suite: {exc}") from None
    reports = []
    for name, suite_reports, seconds in iter_verification_suites(config):
        reports.extend(suite_reports)
        print(f"[ncwig] {name}: {seconds:.2f}s", file=sys.stderr)
    lines = [format_report(r) for r in reports]
    body = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(body)
    if args.out:
        if args.out.endswith(".json"):
            # structured variant; runtimes are volatile and stay out
            body = json.dumps([{"name": r.name, "metric": r.metric, "tolerance": r.tolerance,
                                "passed": r.passed, "details": dict(r.details)}
                               for r in reports], indent=1, sort_keys=True) + "\n"
        _write_out(args, text=body)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_limit(args) -> int:
    consts = DimensionalConstants(args.alpha, args.beta, args.gamma)
    labels = [make_orbit_label(args.k1, args.c * 2.0 ** -m, args.c * 2.0 ** -m, consts)
              for m in range(args.halvings + 1)]
    state = _parse_state_spec(args.state)
    psi = _position_state(args, state)
    meta = _meta_lines(labels[0], nc_params_from_label(labels[0]), {
        "transform": "limit", "halvings": str(args.halvings), "c": _fnum(args.c),
    })
    _log_run(meta)
    dists, decreasing = qm_limit_study(psi, labels)
    for d in dists:
        print(_fnum(d))
    ok = decreasing and dists[-1] < args.tolerance
    if not ok:
        print(f"[ncwig] limit study failed: decreasing={decreasing} "
              f"final={dists[-1]:.3g} tolerance={args.tolerance:.3g}", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, what):
    """argparse type= that converts a value and refuses it unless ok(value)."""
    def parse(text):
        try:
            v = convert(text)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_POINTS = _checked(int, lambda v: v >= 2, "a whole number >= 2")
# grids span 2 * extent, which must stay finite
_EXTENT = _checked(float, lambda v: 0 < v <= sys.float_info.max / 2,
                   f"a number in (0, {sys.float_info.max / 2:.3g}]")
_NONZERO = _checked(float, lambda v: math.isfinite(v) and v != 0, "a finite nonzero number")
_COUNT = _checked(int, lambda v: v >= 0, "a whole number >= 0")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
# the test cross_wigner_standard applies to h
_PLANCK_H = _checked(float, _square_is_normal,
                     "a number whose square is a normal float (|h| from about 1.5e-154 "
                     "to 1.3e154)")


def _add_label_args(p, names=tuple(_LABEL_DEFAULTS), unset=False):
    # unset: --k1 optional, and the other flags absent from args unless given
    p.add_argument("--k1", type=float, required=not unset, default=None)
    for name in names:
        p.add_argument(f"--{name}", type=float,
                       default=argparse.SUPPRESS if unset else _LABEL_DEFAULTS[name])


def _add_state_args(p, extent=True):
    p.add_argument("--state", default="gaussian:0,0", type=str.strip,
                   help="gaussian:n0,n1[,q01,p01|,q01,q02,p01,p02] or file:<path>; "
                        "leading and trailing whitespace is dropped")
    p.add_argument("--state-grid", type=_POINTS, default=128)
    if extent:
        p.add_argument("--state-extent", type=_EXTENT, default=10.0)


def _add_output_args(p):
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "gnuplot", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncwig",
                                 description="Wigner functions, marginals and star "
                                             "products on coadjoint orbits")
    sub = ap.add_subparsers(dest="command", required=True)

    variants = sub.add_parser("wigner", help="compute a Wigner transform slice")
    variants = variants.add_subparsers(dest="variant", required=True)
    for variant in _WIGNER_VARIANTS:
        pw = variants.add_parser(variant)
        if variant == "standard":
            pw.add_argument("--planck-h", type=_PLANCK_H, default=2.0 * math.pi)
        else:
            _add_label_args(pw)
        # the label variants size the state grid to the output frequencies
        _add_state_args(pw, extent=variant == "standard")
        pw.add_argument("--grid", type=_POINTS, default=128, help="output points per axis")
        pw.add_argument("--extent", type=_EXTENT, default=10.0, help="output half-extent")
        pw.add_argument("--slice", help="fixed coordinates, e.g. k3s=0,k4s=0")
        _add_output_args(pw)
        pw.set_defaults(func=_cmd_wigner)

    pm = sub.add_parser("marginal", help="marginal distribution of the nc Wigner function")
    pm.add_argument("which", choices=("momentum", "position"))
    _add_label_args(pm)
    _add_state_args(pm, extent=False)
    pm.add_argument("--grid", type=_POINTS, default=32)
    pm.add_argument("--extent", type=_EXTENT, default=5.0)
    pm.add_argument("--int-grid", type=_POINTS, default=64,
                    help="points per axis for the integrated pair")
    pm.add_argument("--int-extent", type=_EXTENT, default=5.0)
    _add_output_args(pm)
    pm.set_defaults(func=_cmd_marginal)

    kinds = sub.add_parser("star", help="star products")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    for kind in ("vartheta", "b", "hbar", "general"):
        ps = kinds.add_parser(kind)
        four = kind in ("hbar", "general")
        _add_label_args(ps, unset=True)
        for name in ("--hbar", "--vartheta", "--bfield"):
            ps.add_argument(name, type=float, default=argparse.SUPPRESS)
        _add_state_args(ps, extent=four)  # the 2D kinds size it to the kernel chirp
        ps.add_argument("--grid", type=_POINTS, default=32, help="output points per axis" + (
            " and per 4D axis, within the 1 GiB byte budget" if four else ""))
        # 2.5 keeps the 4D kernels' cell phase inside its limit
        ps.add_argument("--extent", type=_EXTENT, default=2.5 if four else 3.0,
                        help="output half-extent")
        _add_output_args(ps)
        ps.set_defaults(func=_cmd_star)

    pv = sub.add_parser("verify", help="run the verification suites")
    pv.add_argument("--suite", default="all",
                    help="'all' or comma-separated suite names ('' for none)")
    pv.add_argument("--seed", type=_COUNT, default=7)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify)

    pl = sub.add_parser("limit", help="commutative-limit study")
    _add_label_args(pl, names=("alpha", "beta", "gamma"))
    pl.add_argument("--c", type=_NONZERO, default=0.25, help="k2 = k3 = c * 2^-m")
    pl.add_argument("--halvings", type=_COUNT, default=4)
    pl.add_argument("--tolerance", type=_POSITIVE, default=1e-3)
    _add_state_args(pl)
    pl.set_defaults(func=_cmd_limit)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # refused before any state, transform or suite runs
        out_dir = os.path.dirname(getattr(args, "out", None) or "") or "."
        if not os.path.isdir(out_dir):
            raise _CliFailure(2, f"--out: no directory {out_dir!r}")
        return args.func(args)
    except _CliFailure as exc:
        print(f"ncwig: error: {exc}", file=sys.stderr)
        return exc.code
    except (InvalidLabel, SectorMismatch) as exc:
        print(f"ncwig: error: {exc}", file=sys.stderr)
        return 3
    except DegenerateParams as exc:
        print(f"ncwig: error: singular parameters: {exc}", file=sys.stderr)
        return 3
    except (GridTooCoarse, GridTooLarge) as exc:
        print(f"ncwig: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
