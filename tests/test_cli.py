import json
import logging
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from gere.checkpoint import load_checkpoint
from gere.cli import (
    EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, RunConfig, load_run_config, main,
)
from gere.decoding import DecodeParams
from gere.errors import DataError
from gere.model import ModelConfig
from gere.synthetic import make_claims, make_corpus, write_dataset
from gere.training import Trainer, TrainParams

from oracles import build_vocab_reference, trie_v3_bytes


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
    assert cfg.model.label_smoothing == 0.1
    assert cfg.train.warmup_frac == 0.10
    assert cfg.train.max_tokens == 4096
    assert cfg.decode.beam_size == 5


@pytest.mark.parametrize("settings", [RunConfig(), ModelConfig(vocab_size=8), TrainParams(),
                                      DecodeParams()], ids=lambda s: type(s).__name__)
def test_settings_are_frozen(settings):
    """A check made when a settings object is built holds while it lives:
    every field of every settings class refuses assignment."""
    for f in fields(settings):
        with pytest.raises(FrozenInstanceError):
            setattr(settings, f.name, getattr(settings, f.name))


def test_load_run_config_overrides(tmp_path):
    path = write_config(tmp_path / "c.cfg", wiki="w", **{"train.total_updates": 50})
    cfg = load_run_config(str(path), ["decode.beam_size=7", "seed=3"])
    assert cfg.wiki == "w" and cfg.train.total_updates == 50
    assert cfg.decode.beam_size == 7 and cfg.model.seed == 3
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(str(path), ["nonsense=1"])
    with pytest.raises(UsageError):
        load_run_config(str(path), ["train.total_updates=soon"])
    for text in ("0_2", "\u0665", "+3", "064"):  # `int` would read 2, 5, 3 and 64
        message = f"'train.total_updates': expected int, got '{text}'"
        with pytest.raises(UsageError, match=re.escape(message)):
            load_run_config(str(path), [f"train.total_updates={text}"])


def test_run_config_keys_are_the_paths_and_the_settings_fields():
    """The model keys are `ModelConfig`'s fields, without a copy on `RunConfig`."""
    paths = {"wiki", "claims", "vocab", "trie", "checkpoint", "output_dir", "predictions"}
    model = {f.name for f in fields(ModelConfig)} - {"vocab_size"}
    groups = {f"{group}.{f.name}" for group, cls in (("train", TrainParams),
                                                     ("decode", DecodeParams))
              for f in fields(cls)}
    keys = [line.split("=", 1)[0] for line in RunConfig().to_kv().splitlines()]
    assert len(keys) == 26 and set(keys) == paths | model | groups
    assert not {f.name for f in fields(RunConfig)} & model


@pytest.mark.parametrize("setting", ["decode.max_titles=0", "decode.max_titles=-3",
                                     "decode.max_evidence_steps=-1"])
def test_out_of_range_decode_settings_are_usage_errors(setting):
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(None, [setting])
    assert main(["retrieve", "--set", setting]) == EXIT_USAGE


@pytest.mark.parametrize("setting", ["n_heads=0", "n_heads=-2", "d_model=-4", "d_ff=0",
                                     "n_layers_enc=-1", "n_layers_dec=-1", "seed=-1",
                                     "init_std=nan", "init_std=inf", "init_std=-1"])
def test_out_of_range_model_sizes_are_usage_errors(setting, capsys):
    from gere.cli import UsageError
    with pytest.raises(UsageError):
        load_run_config(None, [setting])
    for command in ("train", "retrieve"):
        assert main([command, "--set", setting]) == EXIT_USAGE
        assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["train.peak_lr=nan", "train.peak_lr=inf", "train.peak_lr=-1",
                                     "train.peak_lr=0", "train.clip_norm=nan",
                                     "train.clip_norm=inf", "train.clip_norm=0",
                                     "train.clip_norm=-1"])
def test_non_finite_or_negative_train_settings_are_usage_errors(setting, capsys):
    """Rejected before any input is read: a NaN step size would take a NaN
    step, a negative one would ascend the loss and a NaN, zero or negative
    clip norm would turn clipping off."""
    from gere.cli import UsageError
    with pytest.raises(UsageError, match=setting.split("=")[0]):
        load_run_config(None, [setting])
    assert main(["train", "--set", setting]) == EXIT_USAGE
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


def test_build_trie_outputs_are_the_reference_vocab_and_its_trie(dataset, tmp_path):
    """`gere build-trie` writes, byte for byte, the vocab of the per-text
    reference count and the trie built over it."""
    from gere.corpus import load_claims, load_wiki_pages
    from gere.tokenizer import save_vocab
    from gere.trie import TitleTrie
    vocab_path, trie_path = build_artifacts(dataset, tmp_path)
    corpus = load_wiki_pages(dataset[1])
    vocab = build_vocab_reference(corpus, load_claims(dataset[2]), 50000)
    save_vocab(vocab, tmp_path / "reference_vocab.txt")
    assert vocab_path.read_bytes() == (tmp_path / "reference_vocab.txt").read_bytes()
    assert trie_path.read_bytes() == TitleTrie.build(corpus.titles(), vocab).to_bytes(vocab)


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


@pytest.mark.parametrize("kind", ["wiki", "claims"])
def test_build_trie_lone_surrogate_exits_with_data_error(dataset, tmp_path, capsys, kind):
    """`\\ud800` alone is valid JSON but no UTF-8 text: the read names its line
    instead of the vocab write failing as an internal error."""
    _, wiki, _ = dataset
    bad = tmp_path / "bad.jsonl"
    if kind == "wiki":
        bad.write_text('{"id": "A", "lines": "0\\tok"}\n'
                       '{"id": "B", "lines": "0\\tbad \\ud800 word"}\n')
        inputs = ["--wiki", str(bad)]
    else:
        bad.write_text('{"id": 1, "claim": "ok", "label": "NOT ENOUGH INFO"}\n'
                       '{"id": 2, "claim": "bad \\ud800", "label": "NOT ENOUGH INFO"}\n')
        inputs = ["--wiki", str(wiki), "--claims", str(bad)]
    rc = main(["build-trie", *inputs, "--vocab-out", str(tmp_path / "v.txt"),
               "--trie-out", str(tmp_path / "t.bin")])
    assert rc == EXIT_DATA
    assert "bad.jsonl:2: lone surrogate" in capsys.readouterr().err
    assert not (tmp_path / "v.txt").exists()


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


def test_resume_rejects_a_log_with_a_gap(dataset, tmp_path, capsys, caplog):
    """Resuming from update 6 into a directory whose log does not start with
    the records of updates 1 .. 6 (a log cut short, or one whose third
    record is another update's) exits 2 naming the log, where it falls
    short and the checkpoint's update, before the log is rewritten or any
    update runs."""
    out_a, _ = run_training(dataset, tmp_path, "run_a", total_updates=12)
    log = out_a / "train_log.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    final = out_a / "checkpoint_final.gereckpt"
    final_bytes = final.read_bytes()
    for bad, message in ((lines[:3], f"{log}: 3 records"),
                         (lines[:2] + lines[3:], f"{log}:3: not the record of update 3")):
        log.write_bytes(b"".join(bad))
        capsys.readouterr()
        run_training(dataset, tmp_path, "run_a", total_updates=12,
                     resume=out_a / "checkpoint_step6.gereckpt", expect=EXIT_DATA)
        err = capsys.readouterr().err
        assert f"{message}, but the resume checkpoint is at update 6" in err
        assert "Traceback" not in err + caplog.text
        assert log.read_bytes() == b"".join(bad)
        assert final.read_bytes() == final_bytes


def test_train_builds_its_trainer_from_the_run_settings(dataset, tmp_path, monkeypatch):
    """`gere train` hands `Trainer` the run's `TrainParams` whole: the batch
    budget and checkpoint interval it holds are the run's, not the defaults."""
    built = []

    class RecordingTrainer(Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("gere.cli.Trainer", RecordingTrainer)
    _, cfg_path = run_training(dataset, tmp_path, "settings", total_updates=2)
    want = load_run_config(str(cfg_path), []).train
    assert want.max_tokens != TrainParams.max_tokens
    assert want.checkpoint_every != TrainParams.checkpoint_every
    assert [trainer.settings for trainer in built] == [want]


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
    # Each bad value or unknown key is a usage error naming its key, raised
    # before any output.
    for override in ("train.warmup_frac=2.0", "n_heads=3", "dropout_rate=1.5",
                     "train.max_vocab=7", "train.max_tokens=0", "train.checkpoint_every=-5"):
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


def test_train_rejects_gold_evidence_longer_than_the_decoder(tmp_path, capsys, caplog):
    """A claim citing 6 sentences needs 7 evidence decoder positions: at
    max_positions 5 `gere train` exits 2 naming it, before any update."""
    from gere.corpus import Claim, Corpus, Label
    from conftest import make_doc
    corpus = Corpus()
    corpus.add(make_doc("Gamma", [f"key{i} gamma holds ." for i in range(7)]))
    corpus.add(make_doc("Delta", ["key7 delta holds ."]))
    claims = [Claim(1, "key7 delta", Label.SUPPORTS, ((("Delta", 0),),)),
              Claim(2, "key0 gamma", Label.SUPPORTS, (tuple(("Gamma", i) for i in range(6)),))]
    wiki, claims_path = write_dataset(corpus, claims, tmp_path)
    vocab_path, trie_path = build_artifacts((tmp_path, wiki, claims_path), tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path / "run.cfg", wiki=wiki, claims=claims_path,
                            vocab=vocab_path, trie=trie_path, output_dir=out_dir,
                            max_positions=5, d_model=16, d_ff=32, n_heads=2,
                            **{"train.total_updates": 2})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "claim 2: gold evidence longer than max_positions" in err
    assert "Traceback" not in err + caplog.text
    assert not (out_dir / "train_log.jsonl").exists()


@pytest.mark.parametrize("max_tokens", [4096, 1])
def test_train_rejects_a_verifiable_claim_without_gold_evidence(tmp_path, capsys, caplog,
                                                                max_tokens):
    """A SUPPORTS claim whose evidence elements all have a null page loads
    with no evidence group: `gere train` exits 2 naming it, before any
    update, however the claims are batched."""
    from gere.corpus import Corpus, save_wiki_pages
    from conftest import make_doc
    corpus = Corpus()
    corpus.add(make_doc("Delta", ["key7 delta holds ."]))
    wiki, claims_path = tmp_path / "wiki.jsonl", tmp_path / "claims.jsonl"
    save_wiki_pages(corpus, wiki)
    claims_path.write_text("".join(json.dumps(rec) + "\n" for rec in (
        {"id": 1, "claim": "key7 delta", "label": "SUPPORTS",
         "evidence": [[[1, 2, "Delta", 0]]]},
        {"id": 2, "claim": "key7 holds", "label": "REFUTES",
         "evidence": [[[1, 2, None, None]]]})))
    vocab_path, trie_path = build_artifacts((tmp_path, wiki, claims_path), tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path / "run.cfg", wiki=wiki, claims=claims_path,
                            vocab=vocab_path, trie=trie_path, output_dir=out_dir,
                            d_model=16, d_ff=32, n_heads=2,
                            **{"train.total_updates": 2, "train.max_tokens": max_tokens})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "claim 2: no gold evidence" in err
    assert "Traceback" not in err + caplog.text
    assert not (out_dir / "train_log.jsonl").exists()


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


def test_retrieve_reports_the_memo_sizes(trained_run, tmp_path, capsys):
    """After its summary, `gere retrieve` prints the sentence memo's vector
    count and each decoder's prefix-table rows, MiB and hits."""
    assert main(_argv("retrieve", trained_run, tmp_path)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("retrieved 10 claims")
    memo = re.fullmatch(r"sentence memo: (\d+) vectors", lines[-3])
    assert memo and int(memo[1]) > 0
    for line, name in zip(lines[-2:], ("title_dec", "evid_dec")):
        table = re.fullmatch(rf"prefix table {name}: (\d+) rows, (\d+\.\d\d) MiB; "
                             r"(\d+)/(\d+) steps and (\d+)/(\d+) rows hit", line)
        assert table, line
        rows, _, full_hits, steps, row_hits, row_count = map(float, table.groups())
        assert 0 < rows <= row_count and 0 < full_hits <= steps <= row_count
        assert full_hits <= row_hits <= row_count


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


def test_eval_checks_the_prediction_records_once(dataset, tmp_path, monkeypatch, capsys):
    """One `check_predictions` pass over the file's records per `gere eval`,
    through whichever module calls it."""
    from gere import decoding, evalkit
    from gere.corpus import load_claims
    check, passes = evalkit.check_predictions, []

    def spy(located):
        passes.append(0)
        for item in located:
            passes[-1] += 1
            yield item

    for module in (evalkit, decoding):
        monkeypatch.setattr(module, "check_predictions", lambda located: check(spy(located)))
    golds = load_claims(dataset[2])
    path = tmp_path / "pred.jsonl"
    path.write_text("".join(json.dumps({"claim_id": c.claim_id, "predicted_titles": [],
                                        "predicted_evidence": []}) + "\n" for c in golds))
    assert main(["eval", "--pred", str(path), "--gold", str(dataset[2])]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"]["predicted"] == len(golds)
    assert passes == [len(golds)]


@pytest.mark.parametrize("field, value", [("predicted_evidence", [["x"]]),
                                          ("predicted_titles", "Some_doc"),
                                          ("predicted_evidence", [["x", -1]])])
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


@pytest.mark.parametrize("second, message", [
    ({"claim_id": 2, "predicted_titles": [7]}, "claim_id 2: predicted_titles"),
    ({"claim_id": 1}, "duplicate prediction for claim_id 1"),
])
def test_eval_record_errors_name_path_and_line(dataset, tmp_path, capsys, second, message):
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps({"claim_id": 1}) + "\n" + json.dumps(second) + "\n")
    assert main(["eval", "--pred", str(path), "--gold", str(dataset[2])]) == EXIT_DATA
    assert f"{path}:2: {message}" in capsys.readouterr().err


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


def _without_an_uncited_page(dataset, tmp_path):
    """A copy of the dataset's wiki that lacks one page no claim cites, and
    that page's doc_id."""
    from gere.corpus import load_claims, load_wiki_pages, save_wiki_pages
    corpus = load_wiki_pages(dataset[1])
    cited = {doc_id for claim in load_claims(dataset[2]) for group in claim.evidence_groups
             for doc_id, _ in group}
    doc_id = sorted(corpus.documents.keys() - cited)[0]
    del corpus.documents[doc_id]
    wiki = tmp_path / "smaller_wiki.jsonl"
    save_wiki_pages(corpus, wiki)
    return wiki, doc_id


@pytest.mark.parametrize("command", ["train", "retrieve"])
def test_a_trie_doc_id_missing_from_the_wiki_is_data_error(trained_run, dataset, tmp_path,
                                                           capsys, caplog, command):
    """A trie built from another wiki fails at load, naming the trie, the
    doc_id and the wiki, before any update or claim runs."""
    wiki, doc_id = _without_an_uncited_page(dataset, tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_argv(command, dict(trained_run, wiki=wiki), out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trained_run['trie']}: doc_id {doc_id!r} is not a page of {wiki}" in err
    assert "Traceback" not in err + caplog.text
    assert not out.exists()  # no log, checkpoint or predictions


def _rejected_naming_the_file(run, name, path, message, capsys, caplog):
    """Loading the `name` input ("trie" or "checkpoint") at `path`, and each
    command that reads it, fail with a data error `message` that names it,
    and leave no output directory."""
    from gere.tokenizer import load_vocab
    from gere.trie import TitleTrie
    with pytest.raises(DataError, match=re.escape(message)):
        if name == "trie":
            TitleTrie.load(path, load_vocab(run["vocab"]))
        else:
            load_checkpoint(path)
    out = path.parent / "out"
    for command in ("retrieve", "inspect-trie" if name == "trie" else "train"):
        capsys.readouterr()
        assert main(_argv(command, dict(run, **{name: path}), out)) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"gere: data error: {message}" in err
        assert "internal error" not in err + caplog.text and "Traceback" not in err + caplog.text
    assert not out.exists()


def test_a_version_1_trie_is_rejected_naming_the_file(trained_run, tmp_path, capsys, caplog):
    """A trie whose header says format version 1 or 2 fails with a data
    error naming it; `gere build-trie` writes version 3."""
    data = trained_run["trie"].read_bytes()
    assert data[8:12] == (3).to_bytes(4, "little")  # the version, after the magic
    for version in (1, 2):
        path = tmp_path / f"v{version}.trie"
        path.write_bytes(data[:8] + version.to_bytes(4, "little") + data[12:])
        _rejected_naming_the_file(trained_run, "trie", path,
                                  f"{path}: unsupported trie version {version}", capsys, caplog)


def test_a_root_only_trie_is_rejected_naming_the_file(trained_run, tmp_path, capsys, caplog):
    """A valid version 3 file of the root alone holds no title to decode."""
    from gere.tokenizer import load_vocab
    path = tmp_path / "root.trie"
    path.write_bytes(trie_v3_bytes(load_vocab(trained_run["vocab"]), [0], [], []))
    _rejected_naming_the_file(trained_run, "trie", path, f"{path}: a trie of zero titles",
                              capsys, caplog)


def test_a_version_1_checkpoint_is_rejected_naming_the_file(trained_run, tmp_path, capsys,
                                                            caplog):
    """A checkpoint whose header says format version 1 fails with a data
    error naming it, in `gere retrieve` and in `gere train --resume` before
    the run's output directory is made; `gere train` writes version 2."""
    data = trained_run["checkpoint"].read_bytes()
    assert data[8:12] == (2).to_bytes(4, "little")  # the version, after the magic
    path = tmp_path / "v1.gereckpt"
    path.write_bytes(data[:8] + (1).to_bytes(4, "little") + data[12:])
    _rejected_naming_the_file(trained_run, "checkpoint", path,
                              f"{path}: unsupported checkpoint version 1", capsys, caplog)


def test_usage_errors_exit_one():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["build-trie"]) == EXIT_USAGE  # missing required args
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize("level", ["BASIC_FORMAT", "nonsense", ""])
def test_log_level_must_be_a_level_name(level, capsys):
    argv = ["inspect-trie", "--trie", "none.trie", "--vocab", "none.txt"]
    assert main(["--log-level", level, *argv]) == EXIT_USAGE
    assert "--log-level" in capsys.readouterr().err
    assert main(["--log-level", "info", *argv]) == EXIT_DATA  # any case; then the read fails


def test_log_level_applies_on_every_in_process_call():
    """Each `main` call sets the `gere` logger's level, also once the root
    logger has a handler (a previous call's, or pytest's)."""
    argv = ["inspect-trie", "--trie", "none.trie", "--vocab", "none.txt"]
    for level in ("ERROR", "DEBUG", "WARNING"):
        assert main(["--log-level", level, *argv]) == EXIT_DATA
        assert logging.getLogger("gere").getEffectiveLevel() == getattr(logging, level)


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "gere.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build-trie" in proc.stdout


# -- unreadable inputs -----------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(dataset, tmp_path_factory):
    """A finished two-update run plus a predictions file: every input each
    reading command takes, by name."""
    root, wiki, claims_path = dataset
    tmp = tmp_path_factory.mktemp("trained")
    out_dir, cfg_path = run_training(dataset, tmp, "run", total_updates=2)
    from gere import binio
    from gere.corpus import load_claims
    binio.write_jsonl(tmp / "pred.jsonl", [
        {"claim_id": c.claim_id, "predicted_titles": [], "predicted_evidence": []}
        for c in load_claims(claims_path)])
    return {"config": cfg_path, "wiki": wiki, "claims": claims_path,
            "vocab": tmp / "vocab.txt", "trie": tmp / "trie.bin",
            "checkpoint": out_dir / "checkpoint_final.gereckpt",
            "log": out_dir / "train_log.jsonl", "pred": tmp / "pred.jsonl"}


def _argv(command, inputs, out):
    """`command` over `inputs` (name -> path), writing under `out`."""
    if command == "build-trie":
        return ["build-trie", "--wiki", str(inputs["wiki"]), "--claims", str(inputs["claims"]),
                "--vocab-out", str(out / "v.txt"), "--trie-out", str(out / "t.bin")]
    if command == "eval":
        return ["eval", "--pred", str(inputs["pred"]), "--gold", str(inputs["claims"]),
                "--out", str(out / "report.json")]
    if command == "inspect-trie":
        return ["inspect-trie", "--trie", str(inputs["trie"]), "--vocab", str(inputs["vocab"])]
    argv = [command, "--config", str(inputs["config"]), f"--set=output_dir={out}"]
    argv += [f"--set={key}={inputs[key]}" for key in ("wiki", "claims", "vocab", "trie")]
    if command == "train":
        return argv + ["--resume", str(inputs["checkpoint"])]
    return argv + [f"--set=checkpoint={inputs['checkpoint']}"]


_READS = [("build-trie", "wiki"), ("build-trie", "claims"),
          *(("train", name) for name in ("config", "wiki", "claims", "vocab", "trie",
                                         "checkpoint", "log")),
          *(("retrieve", name) for name in ("config", "wiki", "claims", "vocab", "trie",
                                            "checkpoint")),
          ("eval", "pred"), ("eval", "claims"),
          ("inspect-trie", "vocab"), ("inspect-trie", "trie")]
_TEXT = {"config", "wiki", "claims", "vocab", "log", "pred"}
_BAD_READS = [(command, name, bad) for command, name in _READS
              for bad in ("invalid_utf8", "directory") if bad == "directory" or name in _TEXT]


@pytest.mark.parametrize("command, name, bad", _BAD_READS,
                         ids=["-".join(case) for case in _BAD_READS])
def test_unreadable_input_exits_cleanly_naming_it(trained_run, tmp_path, capsys, caplog,
                                                  command, name, bad):
    """Invalid UTF-8 names the file and line, and a directory names its path.
    Both are data errors (exit 2), or usage errors (exit 1) in a config file.
    The `log` input is the `train_log.jsonl` that `train --resume` keeps."""
    out = tmp_path / "out"
    out.mkdir()
    path = out / "train_log.jsonl" if name == "log" else tmp_path / f"bad_{name}"
    if bad == "directory":
        path.mkdir()
        expect = f"{path}"
    else:
        lines = trained_run[name].read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        expect = f"{path}:2: invalid UTF-8"
    capsys.readouterr()
    rc = main(_argv(command, dict(trained_run, **{name: path}), out))
    err = capsys.readouterr().err
    assert rc == (EXIT_USAGE if name == "config" else EXIT_DATA), err
    assert expect in err
    assert "internal error" not in err + caplog.text and "Traceback" not in err + caplog.text


# -- unwritable outputs ----------------------------------------------------------


_UNWRITABLE = [("build-trie", "v.txt", "directory"), ("build-trie", "v.txt", "no_parent"),
               ("build-trie", "t.bin", "directory"), ("train", "", "file"),
               ("train", "train_log.jsonl", "directory"), ("retrieve", "", "file"),
               ("retrieve", "predictions.jsonl", "directory"),
               ("eval", "report.json", "directory"), ("eval", "report.json", "no_parent")]


@pytest.mark.parametrize("command, name, bad", _UNWRITABLE,
                         ids=["-".join(filter(None, case)) for case in _UNWRITABLE])
def test_unwritable_output_exits_two_naming_it(trained_run, tmp_path, capsys, caplog,
                                               command, name, bad):
    """An output that is a directory or lies in a missing one, or an
    `output_dir` that is a file: a data error (exit 2) naming the path."""
    out = tmp_path / ("missing" if bad == "no_parent" else "out")
    path = out / name if name else out
    if bad == "directory":
        path.mkdir(parents=True)
    elif bad == "file":
        path.write_text("")
    argv = _argv(command, trained_run, out)
    if command == "train":
        argv = argv[:-2]  # a fresh run, which writes train_log.jsonl from the start
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert f"cannot write {path}: " in err
    assert "internal error" not in err + caplog.text and "Traceback" not in err + caplog.text


def test_eval_oracle_labels_ignores_unknown_claim_records(dataset, tmp_path, capsys, caplog):
    from gere.corpus import load_claims
    golds = load_claims(dataset[2])
    records = [{"claim_id": c.claim_id, "predicted_titles": [], "predicted_evidence": []}
               for c in golds]
    extra_id = max(c.claim_id for c in golds) + 1
    records.append({"claim_id": extra_id, "predicted_titles": [], "predicted_evidence": []})
    path = tmp_path / "pred.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["eval", "--pred", str(path), "--gold", str(dataset[2]),
                 "--oracle-labels"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert f"predictions for unknown claim ids (ignored): [{extra_id}]" in caplog.text
    assert report["la"] == 1.0
    nei = sum(1 for c in golds if not c.evidence_groups)
    assert report["fever"] == pytest.approx(nei / len(golds))
    assert report["n"]["predicted"] == len(golds) + 1
