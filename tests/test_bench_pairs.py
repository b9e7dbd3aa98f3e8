"""The paired-run driver's summary (`tools/bench_pairs.py`), on canned run
records: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_ms_p50", "better": "lower", "bound": 0.25}]


def run(ops_per_s, op_ms_p50, digest="d0", correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": ops_per_s, "op_ms_p50": op_ms_p50},
            "outputs_digest": digest, "speed_ms_median": 1.6}


def pair(seed, base, change):
    return {"seed": seed, "order": ["base", "change"], "base": base, "change": change,
            "digests_match": base["outputs_digest"] == change["outputs_digest"]}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_each_metric_direction():
    """A faster change has more ops/s (higher is better) and a shorter p50
    (lower is better): both count as wins, and neither is worse."""
    pairs = [pair(i, run(100.0, 10.0), run(110.0, 9.0)) for i in range(9)]
    pairs.append(pair(9, run(100.0, 10.0), run(90.0, 11.0)))
    summary = bench_pairs.summarize(pairs, END_TO_END)
    ops, p50 = summary["metrics"]["ops_per_s"], summary["metrics"]["op_ms_p50"]
    assert (ops["wins"], p50["wins"]) == (9, 9)
    assert ops["median_gap"] == pytest.approx(10.0) and p50["median_gap"] == pytest.approx(1.0)
    assert ops["worse_by"] == pytest.approx(-0.1) and p50["worse_by"] == pytest.approx(-0.1)
    assert ops["within_bound"] and p50["within_bound"]
    assert ops["ratio_median"] == pytest.approx(1.1) and p50["ratio_median"] == pytest.approx(0.9)
    # every base run is equal, so the base IQR is 0 and the gap exceeds it
    assert ops["gain_rule_holds"] and p50["gain_rule_holds"]
    slower = bench_pairs.summarize([pair(i, run(100.0, 10.0), run(70.0, 14.0))
                                    for i in range(4)], END_TO_END)["metrics"]
    assert slower["ops_per_s"]["wins"] == slower["op_ms_p50"]["wins"] == 0
    assert not slower["ops_per_s"]["within_bound"] and not slower["op_ms_p50"]["within_bound"]
    assert not slower["ops_per_s"]["gain_rule_holds"]


def test_ties_count_for_neither_side():
    pairs = [pair(i, run(100.0, 10.0), run(100.0, 10.0)) for i in range(10)]
    for m in bench_pairs.summarize(pairs, END_TO_END)["metrics"].values():
        assert m["wins"] == 0 and not m["gain_rule_holds"]


def test_ratio_interval_is_deterministic_and_holds_the_median():
    base = [100.0, 104.0, 97.0, 101.0, 99.0, 103.0, 98.0, 102.0, 96.0, 105.0]
    change = [103.0, 101.0, 104.0, 99.0, 106.0, 102.0, 100.0, 108.0, 97.0, 107.0]
    pairs = [pair(i, run(b, 1.0), run(c, 1.0)) for i, (b, c) in enumerate(zip(base, change))]
    first = bench_pairs.summarize(pairs, END_TO_END)
    again = bench_pairs.summarize(pairs, END_TO_END)
    assert json.dumps(first) == json.dumps(again)
    ops = first["metrics"]["ops_per_s"]
    low, high = ops["ratio_ci95"]
    assert low <= ops["ratio_median"] <= high and low < high
    assert min(c / b for b, c in zip(base, change)) <= low


def test_a_digest_mismatch_and_a_failed_run_are_reported():
    pairs = [pair(0, run(100.0, 10.0), run(100.0, 10.0)),
             pair(1, run(100.0, 10.0), run(100.0, 10.0, digest="d1", failed=2))]
    assert [p["digests_match"] for p in pairs] == [True, False]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["digests_match"] is False and summary["all_correct"] is False
    assert "digests DIFFER" in bench_pairs.report(summary)[0]
    clean = bench_pairs.summarize(pairs[:1], END_TO_END)
    assert clean["digests_match"] and "digests match" in bench_pairs.report(clean)[0]


def test_pairs_with_a_missing_run_are_left_out_of_the_statistics():
    pairs = [pair(0, run(100.0, 10.0), run(120.0, 8.0)),
             {"seed": 1, "order": ["change", "base"], "base": run(1.0, 1.0), "change": None,
              "digests_match": False}]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert (summary["pairs_complete"], summary["pairs_run"]) == (1, 2)
    assert summary["metrics"]["ops_per_s"]["base"]["median"] == 100.0


def test_every_set_is_kept_beside_the_root_file(tmp_path):
    """Two sets of one workload with different first seeds: the root file
    holds the second, and each set keeps a file of its own."""
    sha = "ab" * 20
    for first_seed, ops_per_s in ((101, 100.0), (201, 90.0)):
        pairs = [pair(first_seed, run(ops_per_s, 1.0), run(ops_per_s, 1.0))]
        document = {"workload": "retrieve-random", "revisions": {"base": sha},
                    "seeds": [first_seed], "pairs": pairs}
        out, kept = bench_pairs.write_document(tmp_path, document)
        assert out == tmp_path / "BENCH_retrieve-random.json"
        assert json.loads(kept.read_text(encoding="utf-8")) == document
    sets = sorted((tmp_path / ".bench_build" / "pairs" / "sets").iterdir())
    assert [path.name for path in sets] == [f"BENCH_retrieve-random-{sha}-101.json",
                                            f"BENCH_retrieve-random-{sha}-201.json"]
    assert json.loads(out.read_text(encoding="utf-8"))["seeds"] == [201]
