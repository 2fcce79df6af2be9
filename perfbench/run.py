"""ncwigner benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ./src.  A run
times SETUP_REPEATS fresh interpreters importing ncwigner and sets the
workload up SETUP_REPEATS times; set-up time is the sum of the two medians.
It then repeats rounds of ops back to back while --seconds lasts, and stops
only at the end of a cycle, in which every op list ran equally often; the
last cycle may overrun --seconds.  Each op is timed alone; its check
against an independent reference runs outside the timed region, and a
raised error or a missed tolerance counts as a failed op.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op list
twice in a row, untraced and then traced (spans around every library call
the benchmark makes), for 2/3 of --seconds, repeats the traced rounds for
the last third in a child process with one engine worker and one BLAS
thread, and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
CHILD_SETUP_ALLOWANCE_S = 60.0
WORKLOADS = ("grid_marginals", "params_cloud", "star4d", "probe_calls")
WIGNER_FNS = ("wigner_nc", "wigner_nc_params", "wigner_generic", "wigner_tau0",
              "wigner_qm_orbit")
STAR_KERNELS = ("marginal", "star2d", "star4d")
CLI_FNS = ("write_field_file", "read_field_file")
SINGLE_THREAD_ENV = {"NCWIG_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_library():
    """Import ncwigner from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import numpy as np
    import ncwigner

    if not os.path.abspath(ncwigner.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ncwigner resolved to {ncwigner.__file__}, not under {SRC}")
    return np


def _import_times(repeats: int) -> list[float]:
    """Wall time from starting a fresh interpreter to having ncwigner
    imported, once per repeat.  No timeout: with one, Popen.wait polls in
    steps of up to 50 ms, which would show in the times."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import ncwigner"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_info(np) -> tuple[str, str]:
    """BLAS library name/version and its current thread count."""
    import ctypes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def _environment(np, seed: int) -> dict:
    from ncwigner import wigner

    blas, blas_threads = _blas_info(np)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "engine_workers": wigner._worker_count(),
        "NCWIG_THREADS": os.environ.get("NCWIG_THREADS", "unset"),
        "blas": blas,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class PassResult:
    def __init__(self):
        self.round_s: list[float] = []      # timed wall per round
        self.round_traced: list[bool] = []
        self.round_list: list[int] = []     # index of the op list each round ran
        self.call_s: list[float] = []       # timed wall per op
        self.outputs = 0
        self.attempted = 0
        self.failed = 0
        self.op_ids: list[int] = []         # ids of the traced ops
        self.digest = hashlib.sha256()      # outputs of each op list's first round
        self.round_counts: dict = {}        # computed counts, per round of a cycle


def _setup(workloads, name, np, tr, seed, workdir):
    rng = np.random.default_rng(seed)
    with tr.span("bench", "setup"):
        return workloads.SETUPS[name](rng, tr, workdir)


def run_pass(wl, tr, budget_s: float, alternate: bool = False) -> PassResult:
    """Rounds of ops back to back while the budget lasts.  The pass ends only
    after a whole cycle, in which every op list ran equally often, so the
    last cycle may overrun the budget.  With ``alternate``, each op list runs
    twice in a row, untraced and then traced, so both rounds see the same ops
    in the same warm state and their difference is the tracing overhead."""
    import numpy as np

    res = PassResult()
    reported = set()
    per_list = 2 if alternate else 1
    n_lists = len(wl.rounds)
    start = time.perf_counter()
    r = 0
    while True:
        k = (r // per_list) % n_lists
        first = k not in res.round_list
        timed = 0.0
        if alternate:
            tr.enabled = r % 2 == 1
        for op in wl.rounds[k]:
            if tr.enabled:
                tr.op_id = len(res.op_ids)
                res.op_ids.append(tr.op_id)
            res.attempted += 1
            with tr.span("bench", op.name):
                out = error = None
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:  # a failed op is counted, never a crash
                    error = traceback.format_exc()
                dt = time.perf_counter() - t0
                if error is None:
                    with tr.span("oracles", "check"):
                        try:
                            err, tol = op.check(out)
                            if not err <= tol:
                                error = f"{op.name}: error {err:.3g} > tolerance {tol:.3g}"
                        except Exception:
                            error = traceback.format_exc()
                if first and out is not None:
                    for arr in out:
                        res.digest.update(np.ascontiguousarray(arr).tobytes())
            timed += dt
            res.call_s.append(dt)
            res.outputs += op.outputs
            if error is not None:
                res.failed += 1
                if op.name not in reported:
                    reported.add(op.name)
                    print(f"# FAILED op {op.name}: {error.strip()}", file=sys.stderr)
            if first and out is not None:
                counts = {key: v() if callable(v) else v for key, v in op.counts.items()}
                counts["groups_x_fft"] = counts.get("groups", 0) * counts.pop("fft_size", 0)
                for key, val in counts.items():
                    res.round_counts[key] = res.round_counts.get(key, 0) + val / n_lists
        tr.op_id = None
        res.round_s.append(timed)
        res.round_traced.append(tr.enabled)
        res.round_list.append(k)
        r += 1
        if r % (per_list * n_lists) == 0 and time.perf_counter() - start >= budget_s:
            return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end_metrics(res: PassResult, setup_s: float) -> tuple[dict, list[str]]:
    calls_ms = [1e3 * c for c in res.call_s]
    p90 = _percentile(calls_ms, 90)
    beyond = sum(1 for c in calls_ms if c > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": (statistics.median(res.round_s), "s"),
        "outputs_per_s": (res.outputs / sum(res.round_s), "1/s"),
        "call_ms_p50": (statistics.median(calls_ms), "ms"),
        "call_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"run_s: median over {len(res.round_s)} rounds",
        f"outputs_per_s: {res.outputs} output samples in {sum(res.round_s):.3f} s of timed ops",
        f"call_ms_p50/p90: {len(calls_ms)} calls pooled over rounds, {beyond} beyond p90"
        + ("" if beyond >= 10 else " (fewer than 10: p90 is under-sampled here)"),
        f"fail_ratio: {res.failed}/{res.attempted} = {res.failed / res.attempted:.6g}",
    ]
    return metrics, notes


def _busy_totals(busy, layer):
    wall = sum(v[0] for (lay, _), v in busy.items() if lay == layer)
    cpu = sum(v[1] for (lay, _), v in busy.items() if lay == layer)
    return wall, cpu


def layer_metrics(tracing, spans, res: PassResult) -> dict:
    """Per-round layer metrics of one traced pass."""
    roots = tracing.op_roots(spans, set(res.op_ids))
    busy = tracing.library_busy(spans, roots)
    acct = tracing.op_accounting(spans, roots)
    n = sum(res.round_traced)
    m = {}
    for fn in WIGNER_FNS:
        wall, _, calls = busy.get(("wigner", fn), (0.0, 0.0, 0))
        m[f"wigner.{fn}.busy_s"] = (wall / n, "s")
        m[f"wigner.{fn}.calls"] = (calls / n, "count")
    for kern in STAR_KERNELS:
        wall, _, calls = busy.get(("starprod", kern), (0.0, 0.0, 0))
        m[f"starprod.{kern}.busy_s"] = (wall / n, "s")
        m[f"starprod.{kern}.calls"] = (calls / n, "count")
    for fn in CLI_FNS:
        wall, _, calls = busy.get(("cli", fn), (0.0, 0.0, 0))
        m[f"cli.{fn}.busy_s"] = (wall / n, "s")
        m[f"cli.{fn}.calls"] = (calls / n, "count")
    for layer in ("wigner", "starprod", "cli"):
        wall, cpu = _busy_totals(busy, layer)
        m[f"{layer}.busy_s"] = (wall / n, "s")
        if layer != "cli":
            m[f"{layer}.cpu_util"] = (cpu / wall if wall > 0 else 0.0, "ratio")
    c = res.round_counts
    points, groups = c.get("points", 0), c.get("groups", 0)
    m["wigner.points"] = (points, "count")
    m["wigner.centre_groups"] = (groups, "count")
    m["wigner.points_per_group"] = (points / groups if groups else 0.0, "count")
    m["wigner.fft_use_ratio"] = (points / c["groups_x_fft"] if c.get("groups_x_fft")
                                 else 0.0, "ratio")
    m["starprod.star4d.ops_computed"] = (c.get("star4d_ops", 0), "count")
    m["cli.bytes_written"] = (c.get("bytes_written", 0), "bytes")
    m["oracles.check_s"] = (acct["check_s"] / n, "s")
    m["bench.self_s"] = (acct["self_s"] / n, "s")
    m["bench.op_wall_s"] = (acct["op_wall_s"] / n, "s")
    m["bench.rounds"] = (n, "count")
    return m


def setup_layer_metrics(tracing, spans) -> dict:
    roots = tracing.setup_roots(spans)
    per = [tracing.setup_busy(spans, r) for r in roots]

    def med(key):
        return statistics.median(p.get(key, 0.0) for p in per)
    return {
        "numerics.busy_s": (med("numerics"), "s"),
        "core.busy_s": (med("core"), "s"),
        "oracles.states_s": (med("oracles"), "s"),
        "bench.warmup_s": (med("warmup"), "s"),
        "bench.setup_wall_s": (med("wall"), "s"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _why(workload: str) -> str:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return next(w["why"] for w in doc["workloads"] if w["name"] == workload)


def _emit(correct, attempted, failed, metrics):
    doc = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(doc), flush=True)


def _run_child(args, budget_s, cycle_s) -> dict | None:
    """The traced rounds again in a child process with one engine worker and
    one BLAS thread; None if the child fails or overruns its timeout, which
    allows for its set-up and for a three times slower cycle."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(budget_s), "--trace", "1",
           "--single-thread-child"]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = CHILD_SETUP_ALLOWANCE_S + 3.0 * max(budget_s, cycle_s)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("# single-thread child timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"# single-thread child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--single-thread-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        np = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import ncwigner from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.single_thread_child:
            return _child_main(args, np, tracing, workloads, workdir)
        return _parent_main(args, np, tracing, workloads, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child_main(args, np, tracing, workloads, workdir) -> int:
    tr = tracing.Tracer(True)
    wl = _setup(workloads, args.workload, np, tr, args.seed, workdir)
    res = run_pass(wl, tr, args.seconds)
    m = layer_metrics(tracing, tr.spans, res)
    print(json.dumps({"run_s": statistics.median(res.round_s),
                      "busy": {k: v for k, (v, _) in m.items()},
                      "digest": res.digest.hexdigest(),
                      "attempted": res.attempted, "failed": res.failed}))
    return 0


def _parent_main(args, np, tracing, workloads, workdir, out_dir) -> int:
    env = _environment(np, args.seed)
    print(f"# workload {args.workload}: {_why(args.workload)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# load: closed loop, one caller, ops back to back; checks untimed")

    imports = _import_times(SETUP_REPEATS)
    tr = tracing.Tracer(bool(args.trace))
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = None  # at most one set of inputs is alive, for peak_rss_mb
        t0 = time.perf_counter()
        wl = _setup(workloads, args.workload, np, tr, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    def fmt(times):
        return ", ".join(f"{t:.4f}" for t in times)
    print(f"# inputs: {wl.inputs}")
    print(f"# setup: median of {SETUP_REPEATS} fresh-interpreter imports ({fmt(imports)} s) "
          f"+ median of {SETUP_REPEATS} set-ups ({fmt(setups)} s)")

    if not args.trace:
        res = run_pass(wl, tr, args.seconds)
        metrics, notes = end_to_end_metrics(res, setup_s)
        for note in notes:
            print(f"# {note}")
        print(f"# digest sha256 (first round of each op list): {res.digest.hexdigest()}")
        for k, (v, u) in metrics.items():
            print(f"metric {k} {v:.6g} {u}")
        print(f"metric fail_ratio {res.failed / res.attempted:.6g} - "
              f"({res.failed} failed / {res.attempted} attempted)")
        _emit(res.failed == 0, res.attempted, res.failed, metrics)
        return 0

    res = run_pass(wl, tr, 2.0 * args.seconds / 3.0, alternate=True)
    tr.enabled = False
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    m = layer_metrics(tracing, tr.spans, res)
    m.update(setup_layer_metrics(tracing, tr.spans))
    plain, traced = res.round_s[0::2], res.round_s[1::2]
    run_traced = statistics.median(traced)
    m["bench.run_s_untraced"] = (statistics.median(plain), "s")
    m["bench.run_s_traced"] = (run_traced, "s")
    m["bench.trace_overhead_s"] = (statistics.median(t - p for p, t in zip(plain, traced)), "s")

    wl = None  # free the inputs before the child builds its own
    cycle_s = statistics.fmean(traced) * len(set(res.round_list))
    child = _run_child(args, args.seconds / 3.0, cycle_s)
    if child is None:
        print("perfbench: the single-thread run gave no result", file=sys.stderr)
        return 1
    attempted = res.attempted + child["attempted"]
    failed = res.failed + child["failed"]
    digest = res.digest.hexdigest()
    m["bench.run_s_1t"] = (child["run_s"], "s")
    m["bench.thread_scaling"] = (child["run_s"] / run_traced, "ratio")
    for layer in ("wigner", "starprod", "cli"):
        one = child["busy"].get(f"{layer}.busy_s", 0.0)
        default = m[f"{layer}.busy_s"][0]
        m[f"{layer}.busy_s_1t"] = (one, "s")
        m[f"{layer}.thread_scaling"] = (one / default if default > 0 else 0.0, "ratio")
    m["bench.digest_match"] = (int(child["digest"] == digest), "bool")

    print(f"# digest sha256 (first round of each op list): default threads {digest}, "
          f"1 thread {child['digest']}")
    layers = sum(m[f"{lay}.busy_s"][0] for lay in ("wigner", "starprod", "cli"))
    print(f"# op accounting per round: layers {layers:.6f} s + checks "
          f"{m['oracles.check_s'][0]:.6f} s + bench self {m['bench.self_s'][0]:.6f} s "
          f"= op wall {m['bench.op_wall_s'][0]:.6f} s")
    print("# counts (wigner.points, centre_groups, points_per_group, fft_use_ratio, "
          "star4d.ops_computed) are computed from input sizes; cli.bytes_written is "
          "counted from the written files")
    for k, (v, u) in m.items():
        print(f"layer {k} {v:.6g} {u}")
    _emit(failed == 0, attempted, failed, m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
