"""The trained checkpoint that the retrieve-trained workload reads.

The fixture is the A2 run of the acceptance suite: a 200-document synthetic
corpus with 300 claims (generator seed 42), put through `gere build-trie` and
a 2,000-update `gere train`, then checked with `gere retrieve` over all 300
claims. It is built by the code under test, in a child process, and cached
under `.bench_build/gere/` keyed by the source tree and the recipe, so runs of
one source tree share it. Building it takes minutes; that time is recorded in
the fixture's manifest and kept out of every metric.

Run directly, this file builds the fixture:

    python3 benchmarks/fixture.py --root .
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

RECIPE = {
    "corpus_seed": 42, "n_docs": 200, "sentence_range": [3, 8], "n_claims": 300,
    "docs_range": [1, 2], "sents_range": [1, 3],
    "config": [
        "seed=0", "d_model=64", "n_heads=4", "n_layers_enc=2", "n_layers_dec=2",
        "d_ff=256", "max_positions=128", "train.total_updates=2000",
        "train.peak_lr=2e-3", "train.max_tokens=256", "train.checkpoint_every=0",
        "decode.beam_size=5", "decode.max_titles=5", "decode.max_evidence_steps=10",
    ],
}
MIN_DOC_F1 = 0.95  # the A2 acceptance level
BUILD_TIMEOUT_S = 840  # below the 900 s a first run may take
CHECKPOINT = "checkpoint_final.gereckpt"


def source_tree(root: Path) -> Path:
    """The package sources of the checkout; exits if the checkout has none."""
    src = root / "src"
    if not (src / "gere" / "__init__.py").is_file():
        sys.exit(f"benchmark: no gere source tree under {root}; run from a checkout root")
    return src


def use_source_tree(root: Path) -> None:
    """Import `gere` from the checkout, never from an installed copy."""
    src = source_tree(root).resolve()
    sys.path.insert(0, str(src))
    import gere
    if Path(gere.__file__).resolve().parent != src / "gere":
        sys.exit(f"benchmark: imported gere from {gere.__file__}, not from {src}")


def fixture_dir(root: Path) -> Path:
    digest = hashlib.sha256(json.dumps(RECIPE, sort_keys=True).encode())
    for path in sorted((source_tree(root) / "gere").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return root / ".bench_build" / "gere" / f"fixture-{digest.hexdigest()[:16]}"


def _die_with_parent() -> None:
    """Child-process hook: the kernel kills the child if the benchmark dies."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class FixtureFailure(Exception):
    """The fixture could not be built or is below the A2 quality level."""


def ensure_fixture(root: Path) -> tuple[Path, dict]:
    """Return (fixture directory, manifest), building the fixture if absent.
    A failed build is recorded in the manifest too, so that later runs of the
    same source tree report it at once instead of building again; raises
    FixtureFailure for a failed build or a fixture below MIN_DOC_F1."""
    out = fixture_dir(root)
    manifest = out / "manifest.json"
    if not manifest.is_file():
        print(f"building the retrieve-trained fixture in {out} ...", file=sys.stderr)
        try:
            subprocess.run([sys.executable, __file__, "--root", str(root)], check=True,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                           preexec_fn=_die_with_parent)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            out.mkdir(parents=True, exist_ok=True)
            manifest.write_text(json.dumps({"ok": False, "error": str(exc)}) + "\n",
                                encoding="utf-8")
    data = json.loads(manifest.read_text(encoding="utf-8"))
    if not data["ok"]:
        raise FixtureFailure(data.get("error") or
                             f"doc F1 {data['doc_f1']:.4f} < {data['min_doc_f1']}")
    return out, data


def build(root: Path) -> None:
    use_source_tree(root)
    import numpy as np
    from gere import evalkit
    from gere.cli import EXIT_OK, main
    from gere.corpus import load_claims
    from gere.decoding import read_predictions
    from gere.synthetic import make_claims, make_corpus, write_dataset

    out = fixture_dir(root)
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    rng = np.random.default_rng(RECIPE["corpus_seed"])
    corpus = make_corpus(rng, RECIPE["n_docs"], sentence_range=tuple(RECIPE["sentence_range"]))
    claims = make_claims(rng, corpus, RECIPE["n_claims"], docs_range=tuple(RECIPE["docs_range"]),
                         sents_range=tuple(RECIPE["sents_range"]))
    wiki, claims_path = write_dataset(corpus, claims, tmp)
    vocab, trie = tmp / "vocab.txt", tmp / "titles.trie"
    if main(["build-trie", "--wiki", str(wiki), "--claims", str(claims_path),
             "--vocab-out", str(vocab), "--trie-out", str(trie)]) != EXIT_OK:
        sys.exit("fixture: gere build-trie failed")
    cfg = tmp / "run.cfg"
    cfg.write_text("\n".join([f"wiki={wiki}", f"claims={claims_path}", f"vocab={vocab}",
                              f"trie={trie}", f"output_dir={tmp}",
                              f"checkpoint={tmp / CHECKPOINT}", *RECIPE["config"]]) + "\n",
                   encoding="utf-8")
    if main(["train", "--config", str(cfg)]) != EXIT_OK:
        sys.exit("fixture: gere train failed")
    trained = time.perf_counter()
    predictions = tmp / "predictions.jsonl"
    if main(["retrieve", "--config", str(cfg), "--set", f"predictions={predictions}"]) != EXIT_OK:
        sys.exit("fixture: gere retrieve failed")
    report = evalkit.evaluate(read_predictions(predictions), load_claims(claims_path))
    done = time.perf_counter()
    manifest = {
        "recipe": RECIPE,
        "ok": report["doc"]["f1"] >= MIN_DOC_F1,
        "min_doc_f1": MIN_DOC_F1,
        "doc_f1": report["doc"]["f1"],
        "sent_f1": report["sent"]["f1"],
        "train_s": trained - start,
        "check_s": done - trained,
        "fixture_s": done - start,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    try:
        os.replace(tmp, out)
    except OSError:  # another run finished the same fixture first
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"fixture: doc F1 {manifest['doc_f1']:.4f}, built in {manifest['fixture_s']:.0f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="checkout root holding src/gere")
    build(Path(parser.parse_args().root).resolve())
