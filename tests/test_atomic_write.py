"""Every output file is replaced atomically: a write that fails midway leaves
the previous file byte-identical and no temp file behind."""

from pathlib import Path

import numpy as np
import pytest

from gere import binio
from gere.checkpoint import save_checkpoint
from gere.cli import RunConfig, _write_resolved_config
from gere.corpus import Claim, Corpus, Label, save_wiki_pages
from gere.decoding import RetrievalResult, write_predictions
from gere.evalkit import write_report
from gere.model import Seq2SeqModel
from gere.synthetic import write_dataset
from gere.tokenizer import build_vocab, save_vocab
from gere.trie import TitleTrie

from conftest import small_config


class _FailMidway:
    """A file whose write stores half of the data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def _first_docs(corpus, n):
    out = Corpus()
    for doc_id in sorted(corpus.documents)[:n]:
        out.add(corpus.documents[doc_id])
    return out


def _writers(corpus, vocab):
    """kind -> (names of the files written, write(path of the first, version))."""
    titles = corpus.titles()
    return {
        "checkpoint": ("checkpoint", lambda path, v: save_checkpoint(
            path, Seq2SeqModel(small_config(len(vocab), seed=v)))),
        "trie": ("trie", lambda path, v: TitleTrie.build(titles[v:], vocab).save(path, vocab)),
        "vocab": ("vocab", lambda path, v: save_vocab(build_vocab(corpus, [], 30 + v), path)),
        "predictions": ("predictions", lambda path, v: write_predictions(
            [RetrievalResult(claim_id=v, titles=[], evidence=[], title_log_prob=0.0)], path)),
        "config": ("config_resolved.txt", lambda path, v: _write_resolved_config(
            RunConfig(wiki=f"wiki{v}.jsonl"), path.parent)),
        "report": ("report.json", lambda path, v: write_report({"doc_f1": v / 2}, path)),
        "wiki": ("wiki.jsonl", lambda path, v: save_wiki_pages(_first_docs(corpus, 3 - v), path)),
        "claims": (("claims.jsonl", "wiki.jsonl"), lambda path, v: write_dataset(
            corpus, [Claim(v, "a claim", Label.NOT_ENOUGH_INFO, ())], path.parent)),
    }


def _failing_open(name):
    """`open` whose writes to the temp file of `name` fail midway."""
    def fake_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _FailMidway(fh) if Path(file).name.startswith(f".{name}.") else fh
    return fake_open


@pytest.mark.parametrize("kind", ["checkpoint", "trie", "vocab", "predictions", "config",
                                  "report", "wiki", "claims"])
def test_failed_write_keeps_old_file(kind, tiny_corpus, tiny_vocab, tmp_path, monkeypatch):
    names, write = _writers(tiny_corpus, tiny_vocab)[kind]
    names = (names,) if isinstance(names, str) else names
    path = tmp_path / names[0]
    files = sorted(tmp_path / name for name in names)
    write(path, 0)
    old = path.read_bytes()
    assert sorted(tmp_path.iterdir()) == files

    monkeypatch.setattr(binio, "open", _failing_open(names[0]), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == files

    monkeypatch.undo()
    write(path, 1)
    assert path.read_bytes() != old
    assert sorted(tmp_path.iterdir()) == files


def test_chunk_stream_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    binio.write_atomic(path, (b"old",))

    def chunks():
        yield b"new bytes "
        yield memoryview(b"then a failure")
        raise RuntimeError("the stream broke")

    with pytest.raises(RuntimeError, match="the stream broke"):
        binio.write_atomic(path, chunks())
    assert path.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [path]


def test_checkpoint_of_a_float64_model_keeps_old_file(tiny_vocab, tmp_path):
    """The float32 check runs inside the chunk stream, after the temp file
    is open: the failed save still leaves the old checkpoint and no temp."""
    path = tmp_path / "model.gereckpt"
    save_checkpoint(path, Seq2SeqModel(small_config(len(tiny_vocab))))
    old = path.read_bytes()
    with pytest.raises(ValueError, match="float32"):
        save_checkpoint(path, Seq2SeqModel(small_config(len(tiny_vocab), seed=5),
                                           dtype=np.float64))
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == [path]
