"""Paired runs of the benchmark: a base revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD~1 --workload retrieve-random \\
        --pairs 10 --seconds 20 --first-seed 41001

Run it from anywhere in a checkout; it needs only the standard library, git
and tar. The base revision is extracted with `git archive` under
`.bench_build/pairs/<sha>/` and kept there, so later sets reuse its tree and
its retrieve-trained fixture. Pair i runs `benchmarks/run.py --trace 0`, as
it is in each tree, on seed first-seed + i in both trees; even pairs run the
base first and odd pairs the working tree first. Each run's end-to-end
metrics come from its last line of output, and its outputs digest and
speed-kernel median from its results file; its work directory is then
removed.

`BENCH_<workload>.json` at the root of the checkout holds both revisions,
the seeds and run order, every run's end-to-end metrics, `correct` and
`failed`, the digests and whether they match, and per metric the medians
and quartiles of both sides, the median per-pair ratio (change / base) with
a bootstrap 95 % interval, the wins in the direction `BENCHMARK.json` gives
and the change's median against the metric's bound. The workload's next set
replaces it, so each set's document is also kept as
`.bench_build/pairs/sets/BENCH_<workload>-<base sha>-<first seed>.json`.
The printed summary shows the gain rule (wins in 9 of 10 pairs, and a
median gap above the base's interquartile range) beside the ratio interval,
and decides nothing: the exit status is 1 only when a run produced no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0  # a fixed seed: the same runs give the same file
WIN_SHARE = 0.9  # the gain rule's share of pairs the change must win


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def base_tree(root: Path, sha: str) -> Path:
    """The source tree of `sha` under `.bench_build/pairs/`, extracted once."""
    tree = root / ".bench_build" / "pairs" / sha
    if not tree.is_dir():
        partial = tree.with_name(sha + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=root,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive, check=True)
        partial.rename(tree)
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced benchmark run in `tree`: its summary, or None when it
    produced no result. Its work directory is removed afterwards."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    out_dir = tree / ".bench_build" / "gere"
    shutil.rmtree(out_dir / "work" / f"{workload}-s{seed}", ignore_errors=True)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if proc.returncode != 0 or last is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    record = json.loads((out_dir / "results" / f"{workload}-s{seed}-t0.json").read_text(
        encoding="utf-8"))
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "outputs_digest": record["outputs_digest"],
            "speed_ms_median": record["speed"]["ms_median"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bootstrap_interval(ratios: list[float]) -> tuple[float, float]:
    """A 95 % percentile-bootstrap interval of the median of `ratios`, drawn
    with a fixed-seed generator."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric statistics over the pairs in which both runs gave a result.
    `end_to_end` is `BENCHMARK.json`'s list of {name, better, bound}."""
    complete = [p for p in pairs if p["base"] and p["change"]]
    summary = {"pairs_complete": len(complete), "pairs_run": len(pairs),
               "digests_match": all(p["digests_match"] for p in complete),
               "all_correct": all(p[side]["correct"] and p[side]["failed"] == 0
                                  for p in complete for side in ("base", "change")),
               "metrics": {}}
    if not complete:
        return summary
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in complete]
        change = [p["change"]["metrics"][name] for p in complete]
        ratios = [c / b for b, c in zip(base, change)]
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        gain = (c_med - b_med) if higher else (b_med - c_med)  # > 0: the change is better
        worse_by = -gain / b_med  # relative to the base median
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        low, high = bootstrap_interval(ratios)
        summary["metrics"][name] = {
            "better": spec["better"], "bound": spec["bound"],
            "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "ratio_median": statistics.median(ratios), "ratio_ci95": [low, high],
            "wins": wins, "pairs": len(complete),
            "worse_by": worse_by, "within_bound": worse_by <= spec["bound"],
            "median_gap": gain, "base_iqr": b_q3 - b_q1,
            "gain_rule_holds": (wins >= math.ceil(WIN_SHARE * len(complete))
                                and gain > b_q3 - b_q1),
        }
    return summary


def report(summary: dict) -> list[str]:
    lines = [f"{summary['pairs_complete']} of {summary['pairs_run']} pairs complete; "
             f"digests {'match' if summary['digests_match'] else 'DIFFER'}; "
             f"runs {'all correct' if summary['all_correct'] else 'NOT all correct'}"]
    for name, m in summary["metrics"].items():
        low, high = m["ratio_ci95"]
        lines.append(
            f"  {name:<12} base {m['base']['median']:.6g} [{m['base']['q1']:.6g}, "
            f"{m['base']['q3']:.6g}]  change {m['change']['median']:.6g}  "
            f"ratio {m['ratio_median']:.4f} ({low:.4f}-{high:.4f})  "
            f"wins {m['wins']}/{m['pairs']} ({m['better']} is better)  "
            f"gap {m['median_gap']:.4g} vs base IQR {m['base_iqr']:.4g}: gain rule "
            f"{'holds' if m['gain_rule_holds'] else 'does not hold'}; "
            f"worse by {m['worse_by']:+.3f} against bound {m['bound']}")
    return lines


def write_document(root: Path, document: dict) -> tuple[Path, Path]:
    """Write a set's document to `BENCH_<workload>.json` at `root`, which the
    workload's next set replaces, and to a file of its own under
    `.bench_build/pairs/sets/`, named by the base revision and first seed,
    which no set of other seeds or base replaces. Returns both paths."""
    text = json.dumps(document, indent=1) + "\n"
    workload = document["workload"]
    kept = (root / ".bench_build" / "pairs" / "sets" /
            f"BENCH_{workload}-{document['revisions']['base']}-{document['seeds'][0]}.json")
    kept.parent.mkdir(parents=True, exist_ok=True)
    out = root / f"BENCH_{workload}.json"
    for path in (kept, out):
        path.write_text(text, encoding="utf-8")
    return out, kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    sha = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    sides = {"base": base_tree(root, sha), "change": root}
    revisions = {"base": sha, "change": git(root, "rev-parse", "HEAD"),
                 "change_has_uncommitted_edits": bool(git(root, "status", "--porcelain"))}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + (json.dumps(pair[side]["metrics"]) if pair[side] else "NO RESULT"),
                  flush=True)
        pair["digests_match"] = bool(pair["base"] and pair["change"] and
                                     pair["base"]["outputs_digest"]
                                     == pair["change"]["outputs_digest"])
        pairs.append(pair)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = summarize(pairs, spec["end_to_end"])
    document = {"workload": args.workload, "seconds": args.seconds, "revisions": revisions,
                "seeds": [p["seed"] for p in pairs], "summary": summary, "pairs": pairs}
    out, kept = write_document(root, document)
    print("\n".join(report(summary)))
    print(f"written: {out.name}, and kept as {kept.relative_to(root)}")
    return 0 if all(p["base"] and p["change"] for p in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
