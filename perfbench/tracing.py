"""In-memory spans around the benchmark's calls into ncwigner.

A span records its layer, name, wall and process-CPU start/end, the index
of its parent span and the op id it belongs to.  Spans stay in memory and
are written out once, when the run ends.  With tracing off, ``call`` is a
plain call and ``span`` a no-op, so untraced runs pay one Python call per
library call and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# starprod functions grouped into the kernels the per-layer metrics name
STARPROD_KERNELS = {
    "marginal_momentum": "marginal",
    "marginal_position": "marginal",
    "star_vartheta": "star2d",
    "star_B": "star2d",
    "star_hbar": "star4d",
    "star_general": "star4d",
}

# record layout: [layer, name, t0, t1, cpu0, cpu1, parent, op_id]
_LAYER, _NAME, _T0, _T1, _C0, _C1, _PARENT, _OP = range(8)


def layer_and_name(fn) -> tuple[str, str]:
    """Layer = the ncwigner module defining ``fn``; starprod calls are named
    after their kernel family."""
    layer = fn.__module__.rpartition(".")[2]
    name = fn.__name__
    if layer == "starprod":
        name = STARPROD_KERNELS.get(name, name)
    return layer, name


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id: int | None = None

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(*layer_and_name(fn)):
            return fn(*args, **kwargs)

    def span(self, layer: str, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(layer, name)

    @contextlib.contextmanager
    def _span(self, layer, name):
        parent = self._open[-1] if self._open else None
        rec = [layer, name, time.perf_counter(), None, time.process_time(), None,
               parent, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[_C1] = time.process_time()
            rec[_T1] = time.perf_counter()
            self._open.pop()

    def write(self, path: str):
        keys = ("layer", "name", "start", "end", "cpu_start", "cpu_end", "parent", "op_id")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _duration(rec) -> float:
    return rec[_T1] - rec[_T0]


def op_roots(spans, op_ids) -> list[int]:
    """Indices of the top-level spans of the given ops."""
    return [i for i, rec in enumerate(spans) if rec[_PARENT] is None and rec[_OP] in op_ids]


def setup_roots(spans) -> list[int]:
    return [i for i, rec in enumerate(spans)
            if rec[_PARENT] is None and rec[_LAYER] == "bench" and rec[_NAME] == "setup"]


def library_busy(spans, roots) -> dict:
    """Busy wall and CPU time per (layer, name) of the library spans directly
    below the given root spans, with their call counts."""
    roots = set(roots)
    busy = defaultdict(lambda: [0.0, 0.0, 0])
    for rec in spans:
        if rec[_PARENT] in roots and rec[_LAYER] not in ("bench", "oracles"):
            acc = busy[(rec[_LAYER], rec[_NAME])]
            acc[0] += _duration(rec)
            acc[1] += rec[_C1] - rec[_C0]
            acc[2] += 1
    return busy


def op_accounting(spans, op_roots) -> dict:
    """Split the op spans' wall time into library busy time, check time and
    the benchmark's own (self) time."""
    op_wall = check = children = 0.0
    op_roots = list(op_roots)
    kids = set(op_roots)
    for root in op_roots:
        op_wall += _duration(spans[root])
    for rec in spans:
        if rec[_PARENT] in kids:
            d = _duration(rec)
            children += d
            if rec[_LAYER] == "oracles":
                check += d
    return {"op_wall_s": op_wall, "check_s": check, "self_s": op_wall - children}


def setup_busy(spans, setup_root: int) -> dict:
    """Wall time of one set-up span and of its direct children: library calls
    by layer, the benchmark's own sub-spans (warm-up) by name."""
    out = defaultdict(float)
    out["wall"] = _duration(spans[setup_root])
    for rec in spans[setup_root + 1:]:
        if rec[_PARENT] is None:
            break
        if rec[_PARENT] == setup_root:
            key = rec[_NAME] if rec[_LAYER] == "bench" else rec[_LAYER]
            out[key] += _duration(rec)
    return out
