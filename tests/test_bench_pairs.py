"""tools/bench_pairs.py: the per-workload summary on synthetic runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"run_s": {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
           "outputs_per_s": {"name": "outputs_per_s", "unit": "1/s", "better": "higher",
                             "bound": 0.25}}


def runs(parent, change, failed=(), failed_ops=None, digests=None):
    """Synthetic runs of one workload: pair k has run_s parent[k] and
    change[k] (outputs_per_s their inverses) and digest "d<k>" on both sides;
    (pair, side) in ``failed`` exited 3 instead, (pair, side) -> n in
    ``failed_ops`` had n of its 10 ops fail, and (pair, side) -> d in
    ``digests`` had digest d."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, v in zip(("parent", "change"), values):
            run = {"workload": "w", "seed": 21 + pair, "pair": pair, "side": side}
            if (pair, side) in failed:
                run.update(exit_code=3, stderr_tail="Traceback ...")
            else:
                run.update(exit_code=0, digest=(digests or {}).get((pair, side), f"d{pair}"),
                           result={"failed": (failed_ops or {}).get((pair, side), 0),
                                   "attempted": 10,
                                   "metrics": {"run_s": {"value": v},
                                               "outputs_per_s": {"value": 1.0 / v}}})
            out.append(run)
    return out


def verdicts(parent, change, failed=()):
    s = bench_pairs._summary(runs(parent, change, failed), METRICS)
    return {name: m["verdict"] for name, m in s["metrics"].items()}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_gain_needs_nine_wins_in_ten_and_the_parent_iqr():
    change = [v * 0.8 for v in PARENT]
    assert verdicts(PARENT, change) == {"run_s": "gain", "outputs_per_s": "gain"}
    # eight wins in ten: no gain, though the medians differ
    change[0], change[1] = 1.1, 1.1
    assert verdicts(PARENT, change)["run_s"] == "within bound"
    # ten wins by less than the parent's IQR: no gain
    assert verdicts(PARENT, [v - 0.001 for v in PARENT])["run_s"] == "within bound"


def test_gain_needs_ten_pairs():
    change = [v * 0.8 for v in PARENT]
    assert verdicts(PARENT[:9], change[:9]) == {"run_s": "within bound",
                                                "outputs_per_s": "within bound"}
    assert verdicts(PARENT[:5], change[:5])["run_s"] == "within bound"


def test_worse_beyond_the_bound_in_either_direction():
    change = [v * 1.4 for v in PARENT]
    assert verdicts(PARENT, change) == {"run_s": "worse", "outputs_per_s": "worse"}
    assert verdicts(PARENT, [v * 1.2 for v in PARENT])["run_s"] == "within bound"


def test_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 1.0, 0.9, 1.1]
    assert verdicts(wide, [v * 1.01 for v in wide])["run_s"] == "unresolved"
    # winning every pair leaves it open while runs of the two sides overlap
    assert verdicts(wide, [v * 0.99 for v in wide]) == {"run_s": "unresolved",
                                                        "outputs_per_s": "unresolved"}
    # every change run better than every parent run resolves it; by less
    # than the parent's IQR (0.5) in the medians, that is no gain
    assert verdicts(wide, [0.59] * 10)["run_s"] == "within bound"


def test_failed_runs_are_counted_and_their_pairs_left_out():
    parent = PARENT + [1.0, 1.02]
    change = [v * 0.8 for v in parent]
    s = bench_pairs._summary(runs(parent, change, failed={(2, "change"), (5, "parent")}),
                             METRICS)
    assert s["failed_runs"] == 2 and s["pairs"] == 10
    assert s["attempted_parent"] == s["attempted_change"] == 100
    assert s["metrics"]["run_s"]["change_wins"] == 10
    assert s["metrics"]["run_s"]["verdict"] == "gain"


def test_a_workload_whose_runs_all_failed_has_no_metrics():
    every = {(p, s) for p in range(3) for s in ("parent", "change")}
    s = bench_pairs._summary(runs(PARENT[:3], PARENT[:3], failed=every), METRICS)
    assert s["failed_runs"] == 6 and s["pairs"] == 0 and s["metrics"] == {}


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_win_nothing(better):
    m = {"run_s": {**METRICS["run_s"], "better": better}}
    s = bench_pairs._summary(runs(PARENT, PARENT), m)["metrics"]["run_s"]
    assert s["change_wins"] == 0 and s["ties"] == 10 and s["verdict"] == "within bound"


def test_a_higher_failed_op_share_fails_the_comparison():
    parent = change = PARENT[:5]
    s = bench_pairs._summary(runs(parent, change), METRICS)
    assert s["failed_share_parent"] == s["failed_share_change"] == 0.0
    assert bench_pairs._exit_status(runs(parent, change), {"w": s}) == 0
    # the runs exit 0 either way: only the share tells a failing change apart
    more = runs(parent, change, failed_ops={(1, "parent"): 1, (3, "change"): 2})
    s = bench_pairs._summary(more, METRICS)
    assert (s["failed_share_parent"], s["failed_share_change"]) == (0.02, 0.04)
    assert bench_pairs._exit_status(more, {"w": s}) == 1
    # an equal or lower share passes, and a run that exits non-zero still fails it
    fewer = runs(parent, change, failed_ops={(1, "parent"): 2, (3, "change"): 2})
    assert bench_pairs._exit_status(fewer, {"w": bench_pairs._summary(fewer, METRICS)}) == 0
    crashed = runs(parent, change, failed={(0, "parent")})
    assert bench_pairs._exit_status(crashed,
                                    {"w": bench_pairs._summary(crashed, METRICS)}) == 1


def test_pairs_with_equal_digests_are_counted():
    s = bench_pairs._summary(runs(PARENT[:4], PARENT[:4]), METRICS)
    assert s["pairs"] == s["digest_equal_pairs"] == 4
    # a changed digest, a missing one and a failed pair count for nothing
    mixed = runs(PARENT[:4], PARENT[:4], failed={(3, "change")},
                 digests={(1, "change"): "other", (2, "parent"): None, (2, "change"): None})
    s = bench_pairs._summary(mixed, METRICS)
    assert s["pairs"] == 3 and s["digest_equal_pairs"] == 1


def test_a_run_keeps_its_digest_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'print("# env nproc=2")\n'
        'print("# digest sha256 (first round of each op list): 0123abcd")\n'
        'print(\'{"attempted": 1, "failed": 0, "metrics": {}}\')\n')
    record, env = bench_pairs._run(str(tmp_path), "w", 21, 1.0)
    assert env == "nproc=2"
    assert record == {"exit_code": 0, "digest": "0123abcd",
                      "result": {"attempted": 1, "failed": 0, "metrics": {}}}
