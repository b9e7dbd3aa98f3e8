import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gere.cli import (
    EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, RunConfig, load_run_config, main,
)
from gere.synthetic import make_claims, make_corpus, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rng = np.random.default_rng(5)
    corpus = make_corpus(rng, 12, sentence_range=(2, 4), pool_size=30)
    claims = make_claims(rng, corpus, 10, nei_fraction=0.2)
    wiki, claims_path = write_dataset(corpus, claims, root)
    return root, wiki, claims_path


def build_artifacts(dataset, tmp_path):
    root, wiki, claims_path = dataset
    vocab_path = tmp_path / "vocab.txt"
    trie_path = tmp_path / "trie.bin"
    rc = main(["build-trie", "--wiki", str(wiki), "--claims", str(claims_path),
               "--vocab-out", str(vocab_path), "--trie-out", str(trie_path)])
    assert rc == EXIT_OK
    return vocab_path, trie_path


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


# -- defaults --------------------------------------------------------------------


def test_runconfig_defaults_match_reference_settings():
    cfg = RunConfig()
    assert cfg.train.peak_lr == 3e-5
    assert cfg.label_smoothing == 0.1
    assert cfg.train.warmup_frac == 0.10
    assert cfg.train.max_tokens == 4096
    assert cfg.decode.beam_size == 5


def test_load_run_config_overrides(tmp_path):
    path = write_config(tmp_path / "c.cfg", wiki="w", **{"train.total_updates": 50})
    cfg = load_run_config(str(path), ["decode.beam_size=7", "seed=3"])
    assert cfg.wiki == "w" and cfg.train.total_updates == 50
    assert cfg.decode.beam_size == 7 and cfg.seed == 3
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(str(path), ["nonsense=1"])
    with pytest.raises(UsageError):
        load_run_config(str(path), ["train.total_updates=soon"])


@pytest.mark.parametrize("setting", ["decode.max_titles=0", "decode.max_titles=-3",
                                     "decode.max_evidence_steps=-1"])
def test_out_of_range_decode_settings_are_usage_errors(setting):
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(None, [setting])
    assert main(["retrieve", "--set", setting]) == EXIT_USAGE


@pytest.mark.parametrize("setting", ["n_heads=0", "n_heads=-2", "d_model=-4", "d_ff=0",
                                     "n_layers_enc=-1", "n_layers_dec=-1", "seed=-1"])
def test_out_of_range_model_sizes_are_usage_errors(setting, capsys):
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(None, [setting])
    for command in ("train", "retrieve"):
        assert main([command, "--set", setting]) == EXIT_USAGE
        assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_eval_max_evidence_below_one_is_usage_error(tmp_path, capsys, value):
    # Raised before any file is read: the paths do not exist.
    assert main(["eval", "--pred", str(tmp_path / "none.jsonl"),
                 "--gold", str(tmp_path / "none.jsonl"), "--max-evidence", value]) == EXIT_USAGE
    assert "--max-evidence" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "run.cfg"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    cfg = load_run_config(str(path), [])
    assert cfg.train.peak_lr == 0.002 and cfg.train.max_tokens == 1024


# -- build-trie -------------------------------------------------------------------


def test_build_trie_round_trip_and_determinism(dataset, tmp_path, capsys):
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    out = capsys.readouterr().out
    assert "nodes" in out and "titles" in out and "bytes" in out
    first = trie_path.read_bytes()

    from gere.tokenizer import load_vocab
    from gere.trie import TitleTrie
    vocab = load_vocab(vocab_path)
    trie = TitleTrie.load(trie_path, vocab)
    assert trie.title_count == 12

    rc = main(["build-trie", "--wiki", str(dataset[1]), "--claims", str(dataset[2]),
               "--vocab-out", str(vocab_path), "--trie-out", str(trie_path)])
    assert rc == EXIT_OK
    assert trie_path.read_bytes() == first  # byte-identical rerun


def test_build_trie_too_small_max_vocab_is_usage_error(dataset, tmp_path, capsys):
    rc = main(["build-trie", "--wiki", str(dataset[1]), "--vocab-out", str(tmp_path / "v.txt"),
               "--trie-out", str(tmp_path / "t.bin"), "--max-vocab", "3"])
    assert rc == EXIT_USAGE
    assert "--max-vocab" in capsys.readouterr().err
    assert not (tmp_path / "v.txt").exists()


def test_build_trie_corrupt_wiki_exits_with_data_error(tmp_path, capsys):
    wiki = tmp_path / "bad.jsonl"
    wiki.write_text('{"id": "A", "lines": "0\\tok"}\n{"id": "B", "lines": "x\\tbad"}\n')
    rc = main(["build-trie", "--wiki", str(wiki), "--vocab-out",
               str(tmp_path / "v.txt"), "--trie-out", str(tmp_path / "t.bin")])
    assert rc == EXIT_DATA
    assert "bad.jsonl:2" in capsys.readouterr().err


# -- train / retrieve / eval ---------------------------------------------------------


def run_training(dataset, tmp_path, out_name, total_updates=12, resume=None, seed=0,
                 peak_lr=1e-3, expect=EXIT_OK):
    root, wiki, claims_path = dataset
    tmp_path.mkdir(parents=True, exist_ok=True)
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    out_dir = tmp_path / out_name
    cfg_path = write_config(
        tmp_path / f"{out_name}.cfg",
        wiki=wiki, claims=claims_path, vocab=vocab_path, trie=trie_path,
        output_dir=out_dir, seed=seed,
        **{"train.total_updates": total_updates, "train.peak_lr": peak_lr,
           "train.max_tokens": 256, "train.checkpoint_every": 6,
           "d_model": 32, "d_ff": 64, "n_heads": 2,
           "n_layers_enc": 1, "n_layers_dec": 1})
    argv = ["train", "--config", str(cfg_path)]
    if resume:
        argv += ["--resume", str(resume)]
    assert main(argv) == expect
    return out_dir, cfg_path


def read_log(out_dir):
    return [json.loads(line) for line in (out_dir / "train_log.jsonl").read_text().splitlines()]


def test_train_writes_artifacts_and_is_resumable(dataset, tmp_path):
    out_a, cfg_a = run_training(dataset, tmp_path, "run_a", total_updates=12)
    log_a = read_log(out_a)
    assert [rec["step"] for rec in log_a] == list(range(1, 13))
    assert load_run_config(str(out_a / "config_resolved.txt"), []) == \
        load_run_config(str(cfg_a), [])
    assert (out_a / "checkpoint_final.gereckpt").exists()
    assert all(rec["loss_total"] == rec["loss_title"] + rec["loss_evidence"]
               for rec in log_a)

    # Resume from run_a's mid-run checkpoint (same schedule/config): the
    # continuation reproduces the uninterrupted tail of TrainStats exactly.
    mid = out_a / "checkpoint_step6.gereckpt"
    assert mid.exists()
    out_c, _ = run_training(dataset, tmp_path / "c", "run_c", total_updates=12,
                            resume=mid)
    log_c = read_log(out_c)
    assert log_c == log_a[6:]


def test_resume_in_same_output_dir_keeps_log_exact(dataset, tmp_path):
    out_a, _ = run_training(dataset, tmp_path, "run_a", total_updates=12)
    log_bytes = (out_a / "train_log.jsonl").read_bytes()
    ckpt_bytes = (out_a / "checkpoint_final.gereckpt").read_bytes()
    # Resuming from the step-6 checkpoint into the same output dir rewrites
    # steps 7..12 in place instead of appending them after the full log.
    run_training(dataset, tmp_path, "run_a", total_updates=12,
                 resume=out_a / "checkpoint_step6.gereckpt")
    assert [rec["step"] for rec in read_log(out_a)] == list(range(1, 13))
    assert (out_a / "train_log.jsonl").read_bytes() == log_bytes
    assert (out_a / "checkpoint_final.gereckpt").read_bytes() == ckpt_bytes


def test_resume_from_a_finished_run_runs_no_update(dataset, tmp_path, capsys):
    out_a, _ = run_training(dataset, tmp_path, "done", total_updates=2)
    log_bytes = (out_a / "train_log.jsonl").read_bytes()
    ckpt_bytes = (out_a / "checkpoint_final.gereckpt").read_bytes()
    capsys.readouterr()
    run_training(dataset, tmp_path, "done", total_updates=2,
                 resume=out_a / "checkpoint_final.gereckpt")
    assert "no update ran" in capsys.readouterr().out
    assert (out_a / "train_log.jsonl").read_bytes() == log_bytes
    assert (out_a / "checkpoint_final.gereckpt").read_bytes() == ckpt_bytes


def test_train_rerun_is_idempotent(dataset, tmp_path):
    out_a, cfg = run_training(dataset, tmp_path, "idem", total_updates=5)
    log_bytes = (out_a / "train_log.jsonl").read_bytes()
    ckpt_bytes = (out_a / "checkpoint_final.gereckpt").read_bytes()
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert (out_a / "train_log.jsonl").read_bytes() == log_bytes
    assert (out_a / "checkpoint_final.gereckpt").read_bytes() == ckpt_bytes


def test_train_seed_changes_losses(dataset, tmp_path):
    out_a, _ = run_training(dataset, tmp_path / "s1", "seed1", total_updates=5, seed=1)
    out_b, _ = run_training(dataset, tmp_path / "s2", "seed2", total_updates=5, seed=2)
    assert [r["loss_total"] for r in read_log(out_a)] != \
        [r["loss_total"] for r in read_log(out_b)]


def test_train_rejects_bad_config_before_training(dataset, tmp_path, capsys):
    root, wiki, claims_path = dataset
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path / "bad.cfg", wiki=wiki, claims=claims_path,
                            vocab=vocab_path, trie=trie_path, output_dir=out_dir,
                            **{"train.total_updates": 2, "d_model": 32, "d_ff": 64,
                               "n_heads": 2, "n_layers_enc": 1, "n_layers_dec": 1})
    # Each bad value is a usage error naming its key, raised before any output.
    for override in ("train.warmup_frac=2.0", "n_heads=3", "dropout_rate=1.5",
                     "train.max_vocab=7"):
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--set", override]) == EXIT_USAGE
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stops_at_a_non_finite_update(dataset, tmp_path, capsys):
    """A step size that blows the parameters up: `gere train` exits 3 naming the
    update, keeps the log of the updates before it and saves no final checkpoint."""
    out_dir, _ = run_training(dataset, tmp_path, "blowup", total_updates=12, peak_lr=1e30,
                              expect=EXIT_INTERNAL)
    err = capsys.readouterr().err
    # Update 1 starts from the finite initialisation; its step leaves every
    # parameter near +-1e30, and update 2 overflows.
    assert [rec["step"] for rec in read_log(out_dir)] == [1]
    assert "update 2: non-finite" in err
    assert not (out_dir / "checkpoint_final.gereckpt").exists()


def test_train_missing_inputs_is_data_error(dataset, tmp_path):
    cfg_path = write_config(tmp_path / "missing.cfg", wiki="/nope/wiki.jsonl",
                            claims="x", vocab="y", trie="z")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA


def test_retrieve_and_eval_pipeline(dataset, tmp_path, capsys):
    root, wiki, claims_path = dataset
    out_dir, cfg_path = run_training(dataset, tmp_path, "pipe", total_updates=8)
    ckpt = out_dir / "checkpoint_final.gereckpt"
    rc = main(["retrieve", "--config", str(cfg_path),
               "--set", f"checkpoint={ckpt}",
               "--set", f"predictions={out_dir / 'pred.jsonl'}",
               "--set", "decode.beam_size=3", "--set", "decode.max_titles=2",
               "--set", "decode.max_evidence_steps=3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "avg titles" in out and "avg evidence" in out and "<=5" in out

    pred_path = out_dir / "pred.jsonl"
    first = pred_path.read_bytes()
    records = [json.loads(l) for l in pred_path.read_text().splitlines()]
    assert len(records) == 10
    ids = [r["claim_id"] for r in records]
    assert ids == sorted(ids)

    # Determinism: rerun writes identical bytes.
    rc = main(["retrieve", "--config", str(cfg_path),
               "--set", f"checkpoint={ckpt}",
               "--set", f"predictions={pred_path}",
               "--set", "decode.beam_size=3", "--set", "decode.max_titles=2",
               "--set", "decode.max_evidence_steps=3"])
    assert rc == EXIT_OK and pred_path.read_bytes() == first

    report_path = out_dir / "metrics.json"
    rc = main(["eval", "--pred", str(pred_path), "--gold", str(claims_path),
               "--oracle-labels", "--out", str(report_path)])
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert set(report) == {"doc", "sent", "la", "fever", "n", "settings"}
    assert report["fever"] <= report["la"]


def test_retrieve_blank_claim_is_data_error_naming_it(dataset, tmp_path, capsys):
    out_dir, cfg_path = run_training(dataset, tmp_path, "blank", total_updates=1)
    claims = dataset[2].read_text(encoding="utf-8").splitlines()
    record = json.loads(claims[0])
    record["claim"] = "   "
    blank_path = tmp_path / "blank_claims.jsonl"
    blank_path.write_text("\n".join([json.dumps(record)] + claims[1:]) + "\n")
    capsys.readouterr()
    rc = main(["retrieve", "--config", str(cfg_path), "--set", f"claims={blank_path}",
               "--set", f"checkpoint={out_dir / 'checkpoint_final.gereckpt'}"])
    assert rc == EXIT_DATA
    assert f"claim {record['id']} has no tokens" in capsys.readouterr().err


def test_retrieve_missing_checkpoint_is_data_error(dataset, tmp_path):
    root, wiki, claims_path = dataset
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    cfg_path = write_config(tmp_path / "r.cfg", wiki=wiki, claims=claims_path,
                            vocab=vocab_path, trie=trie_path,
                            checkpoint=tmp_path / "missing.gereckpt",
                            output_dir=tmp_path / "out")
    assert main(["retrieve", "--config", str(cfg_path)]) == EXIT_DATA


def test_eval_perfect_and_empty_fixtures(dataset, tmp_path, capsys):
    root, wiki, claims_path = dataset
    from gere.corpus import load_claims
    golds = load_claims(claims_path)
    perfect = []
    empty = []
    for claim in golds:
        docs = list(dict.fromkeys(d for g in claim.evidence_groups for d, _ in g))
        pairs = [[d, i] for g in claim.evidence_groups for d, i in g]
        perfect.append({"claim_id": claim.claim_id, "predicted_titles": docs,
                        "predicted_evidence": pairs, "predicted_label": claim.label.value})
        empty.append({"claim_id": claim.claim_id, "predicted_titles": [],
                      "predicted_evidence": [], "predicted_label": claim.label.value})
    p_path = tmp_path / "perfect.jsonl"
    e_path = tmp_path / "empty.jsonl"
    for path, recs in ((p_path, perfect), (e_path, empty)):
        with open(path, "w") as fh:
            for rec in recs:
                fh.write(json.dumps(rec) + "\n")
    assert main(["eval", "--pred", str(p_path), "--gold", str(claims_path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["doc"]["f1"] == 1.0 and report["sent"]["f1"] == 1.0
    assert report["la"] == 1.0 and report["fever"] == 1.0

    assert main(["eval", "--pred", str(e_path), "--gold", str(claims_path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["doc"]["f1"] == 0.0 and report["sent"]["f1"] == 0.0
    assert report["la"] == 1.0  # labels all correct, evidence all missing
    nei = sum(1 for c in golds if not c.evidence_groups)
    assert report["fever"] == pytest.approx(nei / len(golds))


@pytest.mark.parametrize("field, value", [("predicted_evidence", [["x"]]),
                                          ("predicted_titles", "Some_doc")])
def test_eval_rejects_malformed_prediction_fields(dataset, tmp_path, capsys, field, value):
    from gere.corpus import load_claims
    claim = next(c for c in load_claims(dataset[2]) if c.evidence_groups)
    rec = {"claim_id": claim.claim_id, "predicted_titles": [], "predicted_evidence": [],
           field: value}
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    assert main(["eval", "--pred", str(path), "--gold", str(dataset[2])]) == EXIT_DATA
    assert f"claim_id {claim.claim_id}: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ['"claim_id"', '{"claim_id": [1]}', '{"claim_id": 1.5}',
                                  '{"claim_id": true}', '{"claim_id": "1"}'])
def test_eval_rejects_malformed_prediction_lines(dataset, tmp_path, capsys, line):
    path = tmp_path / "pred.jsonl"
    path.write_text("\n" + line + "\n")
    assert main(["eval", "--pred", str(path), "--gold", str(dataset[2])]) == EXIT_DATA
    assert f"{path}:2:" in capsys.readouterr().err


def test_inspect_trie(dataset, tmp_path, capsys):
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    from gere.tokenizer import load_vocab
    from gere.trie import TitleTrie
    vocab = load_vocab(vocab_path)
    trie = TitleTrie.load(trie_path, vocab)
    # Find a full title to inspect.
    from gere.corpus import load_wiki_pages
    corpus = load_wiki_pages(dataset[1])
    title = next(iter(sorted(corpus.title_index)))
    rc = main(["inspect-trie", "--trie", str(trie_path), "--vocab", str(vocab_path),
               "--prefix", title])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "allowed continuations" in out and "<eot>" in out
    rc = main(["inspect-trie", "--trie", str(trie_path), "--vocab", str(vocab_path),
               "--prefix", "zzzz unknown prefix zzzz"])
    assert rc == EXIT_OK
    assert "off-trie" in capsys.readouterr().out


def test_usage_errors_exit_one():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["build-trie"]) == EXIT_USAGE  # missing required args
    assert main([]) == EXIT_USAGE


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "gere.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build-trie" in proc.stdout
