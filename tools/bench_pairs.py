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
change's median over the parent's less one, and the parent's IQR over its
median.
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


def _run(tree: str, workload: str, seed: int, seconds: float):
    """(final JSON result, env line) of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((ln[len("# env "):] for ln in lines if ln.startswith("# env ")), "")
    return json.loads(lines[-1]), env


def _quartiles(xs):
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def _summary(runs, metrics):
    """Per-metric quartiles, wins and spread over one workload's pairs."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r["result"] for r in runs}
    out = {
        "pairs": len(pairs),
        "seeds": sorted({r["seed"] for r in runs}),
        **{f"{k}_{s}": sum(side[p, s][k] for p in pairs)
           for k in ("failed", "attempted") for s in ("parent", "change")},
        "metrics": {},
    }
    for name, m in metrics.items():
        if any(name not in side[p, s]["metrics"] for p in pairs for s in ("parent", "change")):
            continue
        vals = {s: [side[p, s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        diffs = [sign * (a - b) for a, b in zip(vals["parent"], vals["change"])]
        par, chg = _quartiles(vals["parent"]), _quartiles(vals["change"])
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "parent": par, "change": chg,
            "change_wins": sum(d > 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "median_change_rel": chg["median"] / par["median"] - 1.0,
            "parent_iqr_rel": (par["q3"] - par["q1"]) / par["median"],
        }
    return out


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
                    result, line = _run(trees[s], workload, seed, args.seconds)
                    env = env or line
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": s,
                                 "result": result})
                    print(f"{workload} seed {seed} {s}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
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
                "pairs the change won (ties count for neither) and the parent's own IQR "
                "relative to its median",
        "parent": {"commit": commit},
        "change": {"commit": "the commit that adds this file"},
        "summary": {w: _summary([r for r in runs if r["workload"] == w], metrics)
                    for w in workloads},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
