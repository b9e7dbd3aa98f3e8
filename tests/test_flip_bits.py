"""The single-bit mutant counter (`tools/flip_bits.py`) on a tiny trie and checkpoint."""

import importlib.util
import json
from pathlib import Path

from gere.checkpoint import save_checkpoint
from gere.model import Seq2SeqModel
from gere.tokenizer import save_vocab
from gere.trie import TitleTrie

from conftest import small_config

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("flip_bits", ROOT / "tools" / "flip_bits.py")
flip_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flip_bits)


def test_counts_the_mutants_that_load(tmp_path, capsys, tiny_corpus, tiny_vocab):
    """No mutant of a version 3 trie loads; many of a small float32
    checkpoint do, since its float sections have no check, and each file
    itself is left as it was."""
    vocab = tmp_path / "vocab.txt"
    save_vocab(tiny_vocab, vocab)
    trie, ckpt = tmp_path / "v3.trie", tmp_path / "small.gereckpt"
    TitleTrie.build(tiny_corpus.titles(), tiny_vocab).save(trie, tiny_vocab)
    config = small_config(len(tiny_vocab), d_model=4, n_heads=1, d_ff=4, max_positions=4)
    save_checkpoint(ckpt, Seq2SeqModel(config, vocab_checksum=tiny_vocab.checksum()))
    before = {path: path.read_bytes() for path in (trie, ckpt)}
    counts = {}
    for path in (trie, ckpt):
        assert flip_bits.main([str(path), "--vocab", str(vocab), "--flips", "200",
                               "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["mutants"] == 200 and report["bytes"] == len(before[path])
        counts[path] = report["loaded"]
    assert counts[trie] == 0
    assert counts[ckpt] > 0
    assert {path: path.read_bytes() for path in (trie, ckpt)} == before
