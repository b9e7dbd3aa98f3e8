"""Every output file is replaced atomically: a write that fails midway leaves
the previous file byte-identical and no temp file behind."""

import pytest

from gere import binio
from gere.checkpoint import save_checkpoint
from gere.cli import RunConfig, _write_resolved_config
from gere.decoding import write_predictions
from gere.evalkit import write_report
from gere.model import Seq2SeqModel
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


def _writers(corpus, vocab):
    """kind -> (file name, write(path, version))."""
    titles = corpus.titles()
    return {
        "checkpoint": ("checkpoint", lambda path, v: save_checkpoint(
            path, Seq2SeqModel(small_config(len(vocab), seed=v)))),
        "trie": ("trie", lambda path, v: TitleTrie.build(titles[v:], vocab).save(path, vocab)),
        "vocab": ("vocab", lambda path, v: save_vocab(build_vocab(corpus, [], 30 + v), path)),
        "predictions": ("predictions", lambda path, v: write_predictions(
            [{"claim_id": v, "predicted_titles": [], "predicted_evidence": []}], path)),
        "config": ("config_resolved.txt", lambda path, v: _write_resolved_config(
            RunConfig(seed=v), path.parent)),
        "report": ("report.json", lambda path, v: write_report({"doc_f1": v / 2}, path)),
    }


@pytest.mark.parametrize("kind", ["checkpoint", "trie", "vocab", "predictions", "config",
                                  "report"])
def test_failed_write_keeps_old_file(kind, tiny_corpus, tiny_vocab, tmp_path, monkeypatch):
    name, write = _writers(tiny_corpus, tiny_vocab)[kind]
    path = tmp_path / name
    write(path, 0)
    old = path.read_bytes()
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.setattr(binio, "open", lambda *a, **k: _FailMidway(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.undo()
    write(path, 1)
    assert path.read_bytes() != old
    assert list(tmp_path.iterdir()) == [path]
