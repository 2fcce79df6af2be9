"""Alternating parent/change pairs of perfbench runs, summarised in one file.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \
        --plan probe_calls:10 --plan grid_marginals:3 [--seconds 20] [--first-seed 21]

Run it from the repository root.  The parent is the tree of git revision REV,
extracted with ``git archive`` into a temporary directory; the change is the
working tree.  ``--plan NAME:PAIRS`` runs PAIRS pairs of workload NAME: pair k
runs ``perfbench/run.py --workload NAME --seed FIRST_SEED+k --seconds S
--trace 0`` once on each side, one run at a time, with the parent first in
even pairs and the change first in odd ones.

The output holds every run's final JSON line, nproc, the ``# env`` line of
the first run and, per workload and end-to-end metric of BENCHMARK.json, the
first quartile, median and third quartile of each side (linear
interpolation), the pairs the change won (ties count for neither), the
change's median over the parent's less one, the parent's IQR over its
median and a verdict against the metric's bound:

    gain            at least 10 pairs, the change wins at least 9 in 10 of
                    them, and its median is better than the parent's by more
                    than the parent's IQR
    worse           the change's median is worse than the parent's by more
                    than the bound
    unresolved      the parent's IQR over its median exceeds the bound, and
                    some change run reads no better than some parent run
    within bound    anything else

Each workload also holds each side's failed-op share over its counted pairs
(ops that raised or missed their check, over ops attempted): perfbench exits
0 on such runs.  Each run keeps the sha256 digest of its outputs (perfbench's
``# digest sha256`` line), and each workload counts the pairs whose parent
and change digests are equal: both sides of a pair run the same seed, so a
change that keeps the bits reads ``digest_equal_pairs`` = ``pairs``.  A run that exits non-zero is kept with its exit code and the
tail of its stderr, and its pair is left out of the metrics.  The file is
always written; the script exits 1 when a run exited non-zero or when, on
some workload, the change's failed-op share exceeds the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.getcwd()


_DIGEST = "# digest sha256 (first round of each op list): "


def _run(tree: str, workload: str, seed: int, seconds: float):
    """(record, env line) of one perfbench run in tree: the record holds the
    exit code and, for a run that exits 0, its output digest and final JSON
    result, else the tail of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((ln[len("# env "):] for ln in lines if ln.startswith("# env ")), "")
    if proc.returncode:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}, env
    digest = next((ln[len(_DIGEST):] for ln in lines if ln.startswith(_DIGEST)), None)
    return {"exit_code": 0, "digest": digest, "result": json.loads(lines[-1])}, env


def _quartiles(xs):
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def _verdict(entry, bound, vals):
    """The verdict (module docstring) on one metric's summary entry, whose
    pairs' values per side are ``vals``."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    par, chg, wins = entry["parent"], entry["change"], entry["change_wins"]
    pairs = len(vals["parent"])
    if (pairs >= 10 and wins >= 0.9 * pairs
            and sign * (par["median"] - chg["median"]) > par["q3"] - par["q1"]):
        return "gain"
    if sign * entry["median_change_rel"] > bound:
        return "worse"
    worst_change = max(sign * v for v in vals["change"])
    if entry["parent_iqr_rel"] > bound and worst_change >= min(sign * v for v in vals["parent"]):
        return "unresolved"
    return "within bound"


def _summary(runs, metrics):
    """Per-metric quartiles, wins, spread and verdict over one workload's
    pairs; a pair with a failed run counts in ``failed_runs`` alone."""
    failed = [r for r in runs if r["exit_code"]]
    pairs = sorted({r["pair"] for r in runs} - {r["pair"] for r in failed})
    side = {(r["pair"], r["side"]): r["result"] for r in runs if not r["exit_code"]}
    digest = {(r["pair"], r["side"]): r.get("digest") for r in runs if not r["exit_code"]}
    out = {
        "pairs": len(pairs),
        "digest_equal_pairs": sum(digest[p, "parent"] is not None
                                  and digest[p, "parent"] == digest[p, "change"] for p in pairs),
        "failed_runs": len(failed),
        "seeds": sorted({r["seed"] for r in runs}),
        **{f"{k}_{s}": sum(side[p, s][k] for p in pairs)
           for k in ("failed", "attempted") for s in ("parent", "change")},
        "metrics": {},
    }
    for s in ("parent", "change"):
        out[f"failed_share_{s}"] = out[f"failed_{s}"] / max(out[f"attempted_{s}"], 1)
    for name, m in metrics.items():
        if not pairs or any(name not in side[p, s]["metrics"]
                            for p in pairs for s in ("parent", "change")):
            continue
        vals = {s: [side[p, s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        diffs = [sign * (a - b) for a, b in zip(vals["parent"], vals["change"])]
        par, chg = _quartiles(vals["parent"]), _quartiles(vals["change"])
        entry = out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "parent": par, "change": chg,
            "change_wins": sum(d > 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "median_change_rel": chg["median"] / par["median"] - 1.0,
            "parent_iqr_rel": (par["q3"] - par["q1"]) / par["median"],
        }
        entry["verdict"] = _verdict(entry, m["bound"], vals)
    return out


def _exit_status(runs, summary) -> int:
    """1 when a run exited non-zero or the change's failed-op share exceeds
    the parent's on some workload of summary, else 0."""
    return int(any(r["exit_code"] for r in runs)
               or any(w["failed_share_change"] > w["failed_share_parent"]
                      for w in summary.values()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--plan", action="append", required=True, help="WORKLOAD:PAIRS")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=21)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", args.parent], capture_output=True, text=True,
                            check=True, cwd=ROOT).stdout.strip()
    runs, env = [], ""
    with tempfile.TemporaryDirectory() as parent_tree:
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tempfile.TemporaryFile() as fh:
            fh.write(archive)
            fh.seek(0)
            with tarfile.open(fileobj=fh) as tar:
                tar.extractall(parent_tree, filter="data")
        trees = {"parent": parent_tree, "change": ROOT}
        for spec in args.plan:
            workload, count = spec.split(":")
            for pair in range(int(count)):
                seed = args.first_seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for s in order:
                    record, line = _run(trees[s], workload, seed, args.seconds)
                    env = env or line
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": s,
                                 **record})
                    print(f"{workload} seed {seed} {s}: " + (" ".join(
                        f"{k}={v['value']:.4g}" for k, v in record["result"]["metrics"].items())
                        if not record["exit_code"] else f"exit {record['exit_code']}"),
                        file=sys.stderr, flush=True)
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    doc = {
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "nproc": os.cpu_count(),
        "env": env,
        "note": "parent and change ran as alternating pairs on the same machine, one run at "
                "a time, with the parent first in even pairs; \"runs\" holds every run's final "
                "JSON line; per metric: quartiles and median per side over the pairs, the "
                "pairs the change won (ties count for neither), the parent's own IQR "
                "relative to its median and a verdict against the metric's bound; a pair "
                "with a failed run is left out of the metrics; failed_share_<side> is the "
                "share of failed ops over the counted pairs; digest_equal_pairs counts the "
                "pairs whose two runs gave the same output digest",
        "parent": {"commit": commit},
        "change": {"commit": "the commit that adds this file"},
        "summary": {w: _summary([r for r in runs if r["workload"] == w], metrics)
                    for w in workloads},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return _exit_status(runs, doc["summary"])


if __name__ == "__main__":
    sys.exit(main())
