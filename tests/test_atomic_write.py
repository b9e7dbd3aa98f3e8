"""Every output file is replaced atomically: a write that fails midway leaves
the previous file byte-identical and no temp file behind."""

import pytest

from gere import binio
from gere.checkpoint import save_checkpoint
from gere.decoding import write_predictions
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
    titles = corpus.titles()
    return {
        "checkpoint": lambda path, v: save_checkpoint(
            path, Seq2SeqModel(small_config(len(vocab), seed=v))),
        "trie": lambda path, v: TitleTrie.build(titles[v:], vocab).save(path, vocab),
        "vocab": lambda path, v: save_vocab(build_vocab(corpus, [], 30 + v), path),
        "predictions": lambda path, v: write_predictions(
            [{"claim_id": v, "predicted_titles": [], "predicted_evidence": []}], path),
    }


@pytest.mark.parametrize("kind", ["checkpoint", "trie", "vocab", "predictions"])
def test_failed_write_keeps_old_file(kind, tiny_corpus, tiny_vocab, tmp_path, monkeypatch):
    write = _writers(tiny_corpus, tiny_vocab)[kind]
    path = tmp_path / kind
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
