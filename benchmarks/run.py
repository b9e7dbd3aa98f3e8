"""The gere benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload train-a2 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports `gere` from `./src` and reads
the metric list from `./BENCHMARK.json`. Files it makes go under
`./.bench_build/gere/`. With `--trace 0` the last line of standard output is
a JSON object holding the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run, between two untraced passes of the same
operations that give the tracing overhead. The lines before it say the same
for a reader, plus the environment, the sample counts, the quality figures
and the outputs digest. README.md in this directory describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a 2-core box it gave faster and steadier updates and
# claims than two (README.md, "BLAS threads"). Set before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The machine's speed drifts over seconds (README.md, "Noise and the
# reference speed"), so set-ups are spread over the whole run, one per
# SETUP_EVERY_S of timed ops, rather than bunched at its ends; setup_s is
# their median.
SETUP_EVERY_S = 1.0
MIN_SETUPS = 11  # also the traced set-ups that the per-set-up layer metrics average


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the gere pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS[:2]},
        "machine": platform.machine(),
    }


def _metrics(op_ms: list[float], setup_s: list[float], window_s: float) -> dict:
    import numpy as np
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(op_ms) / window_s,
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p95": float(np.percentile(op_ms, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _scaled(workload, meter, out) -> tuple[list[float], float]:
    """Op times and window at the reference speed (speed.py)."""
    op_ms = [ms * meter.scale(t, workload.ELASTICITY) for t, ms in zip(out.op_t, out.op_ms)]
    return op_ms, out.window_s * sum(op_ms) / sum(out.op_ms)


def untraced(workload, prep: dict, seconds: float):
    """The end-to-end metrics: the timed operations on the state of a first
    set-up, with a further set-up after every SETUP_EVERY_S of operations and
    after the last one (at least MIN_SETUPS in all), and speed samples between
    them. Set-ups and samples between operations are outside the window.
    The values are scaled to the reference speed; the raw ones go with them."""
    import speed
    meter = speed.Speedometer()
    setups = []  # (perf_counter() at the start, seconds)

    def set_up():
        t0 = perf_counter()
        state = workload.setup(prep)
        setups.append((t0, perf_counter() - t0))
        meter.sample()
        return state

    due = 0.0

    def between() -> float:
        nonlocal due
        t0 = perf_counter()
        meter.between()
        if perf_counter() >= due:
            set_up()
            due = perf_counter() + SETUP_EVERY_S
        return perf_counter() - t0

    for _ in range(speed.NEAR // 2 + 1):
        meter.sample()
    state = set_up()
    due = perf_counter() + SETUP_EVERY_S
    out = workload.run(state, seconds, None, None, between)
    checks, info = workload.check(state, out)
    for _ in range(max(1, MIN_SETUPS - len(setups))):
        set_up()
    op_ms, window_s = _scaled(workload, meter, out)
    setup_s = [s * meter.scale(t, workload.ELASTICITY) for t, s in setups]
    values = _metrics(op_ms, setup_s, window_s)
    raw = _metrics(out.op_ms, [s for _, s in setups], out.window_s)
    return values, out, checks, info, {
        "raw_metrics": raw,
        "speed": {"samples": len(meter.ms), "ms_min": min(meter.ms),
                  "ms_median": statistics.median(meter.ms), "ms_max": max(meter.ms),
                  "t": meter.t, "ms": meter.ms},
        "setups": setups}


def traced(workload, prep: dict, seconds: float, spans_path: Path):
    """The per-layer metrics: the same operations untraced, traced, and
    untraced again, each pass from a set-up of its own. The tracing overhead
    is the traced window over the mean of the untraced windows around it,
    each scaled to the reference speed, so that drift in the machine's speed
    touches both sides alike."""
    import speed
    import tracing
    meter = speed.Speedometer()
    for _ in range(speed.NEAR // 2 + 1):
        meter.sample()

    def plain(limit):
        state = workload.setup(prep)
        out = workload.run(state, seconds / 2, limit, None, meter.between)
        return out, workload.check(state, out)[1]["outputs_digest"]

    before, digest_before = plain(None)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        for _ in range(MIN_SETUPS):
            state = workload.setup(prep)
        tracer.phase = "op"
        out = workload.run(state, 0.0, before.attempted, tracer, meter.between)
        tracer.phase = "check"
        checks, info = workload.check(state, out)
    finally:
        tracer.restore()
    tracer.write_spans(spans_path)
    after, digest_after = plain(before.attempted)
    meter.sample()
    checks["tracing leaves outputs unchanged"] = (
        info["outputs_digest"] == digest_before == digest_after)
    windows = [_scaled(workload, meter, o)[1] for o in (before, out, after)]
    values = tracing.per_layer_metrics(tracer, out.attempted, MIN_SETUPS, workload.op_kind,
                                       windows[1] / ((windows[0] + windows[2]) / 2))
    values["checkpoint.bytes"] = info["checkpoint.bytes"]
    return values, out, checks, info, {"tracing": {"scaled_windows_s": windows,
                                                   "raw_windows_s": [o.window_s for o in
                                                                     (before, out, after)],
                                                   "spans": len(tracer.spans)}}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    root = Path.cwd()
    import fixture
    fixture.use_source_tree(root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_build" / "gere"
    work = out_dir / "work" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (out_dir / "results").mkdir(exist_ok=True)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    env = environment()
    print(f"gere benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    # Every workload builds the fixture if the checkout has none, so that the
    # build falls on the first run in a checkout, whichever workload that is,
    # and no later run of retrieve-trained pays it.
    try:
        fixture.ensure_fixture(root)
    except fixture.FixtureFailure as exc:
        if workload.name == "retrieve-trained":
            print(f"{workload.name}: fixture failure, no numbers: {exc}", file=sys.stderr)
            return 3
        print(f"retrieve-trained fixture failure (not used here): {exc}", file=sys.stderr)
    # A traced run makes three passes over the same operations; each does
    # the work of half an untraced run, which keeps the traced run short.
    seconds = args.seconds / 2 if args.trace else args.seconds
    prep = workload.prepare(work, args.seed, seconds, root)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        values, out, checks, info, extra = traced(
            workload, prep, seconds, out_dir / "results" / f"{tag}.spans.jsonl")
    else:
        values, out, checks, info, extra = untraced(workload, prep, args.seconds)
    record.update(extra)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if names != values.keys():
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = all(checks.values()) and out.failed == 0

    noun = workload.op_kind + "s"
    print(f"{noun}: {out.attempted} attempted, {out.failed} failed, "
          f"failed_frac {out.failed / out.attempted:g}, window {out.window_s:.3f} s")
    if not args.trace:
        raw, sp, kind = extra["raw_metrics"], extra["speed"], workload.op_kind
        print(f"  at the reference speed, raw in brackets; reference kernel "
              f"{sp['ms_min']:.2f}-{sp['ms_max']:.2f} ms, median {sp['ms_median']:.2f} ms "
              f"over {sp['samples']} samples")
        for label, name, unit, note in (
                ("setup_s", "setup_s", "s", f", median of {len(extra['setups'])}"),
                (f"{kind}s_per_s", "ops_per_s", "1/s", ""),
                (f"{kind}_ms_p50", "op_ms_p50", "ms", ""),
                (f"{kind}_ms_p95", "op_ms_p95", "ms", f", {out.attempted} samples"),
                ("peak_rss_mb", "peak_rss_mb", "MiB", "")):
            print(f"  {label:<15} {values[name]:10.4f} {unit:<4} [{raw[name]:10.4f}]  "
                  f"({name}{note})")
    else:
        before, during, after = extra["tracing"]["scaled_windows_s"]
        print(f"  trace overhead {values['trace.overhead_ratio']:.3f}x "
              f"({during:.3f} s traced / mean of {before:.3f} and {after:.3f} s untraced, "
              f"same {noun}, at the reference speed); {extra['tracing']['spans']} spans")
    for key in ("loss_at_end", "doc_f1", "sent_f1"):
        if key in info:
            print(f"  {key:<14} {info[key]:.6f}")
    print(f"  outputs digest {info['outputs_digest']} ({info['digest_of']})")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for failure in out.failures[:5]:
        print(f"  failure: {failure}")

    record.update({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                   "failures": out.failures, "checks": checks, "metrics": metrics,
                   "op_ms": out.op_ms, "op_t": out.op_t, "window_s": out.window_s,
                   **info})
    results = out_dir / "results" / f"{tag}.json"
    results.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"  results: {results.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
