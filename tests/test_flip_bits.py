"""The single-bit mutant counter (`tools/flip_bits.py`) on a tiny trie."""

import importlib.util
import json
from pathlib import Path

from gere.tokenizer import save_vocab
from gere.trie import TitleTrie

from oracles import trie_v1_bytes

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("flip_bits", ROOT / "tools" / "flip_bits.py")
flip_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flip_bits)


def test_counts_the_mutants_that_load(tmp_path, capsys, tiny_corpus, tiny_vocab):
    """No mutant of a version 2 trie loads; many of a version 1 trie do, and
    the file itself is left as it was."""
    vocab = tmp_path / "vocab.txt"
    save_vocab(tiny_vocab, vocab)
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    v2, v1 = tmp_path / "v2.trie", tmp_path / "v1.trie"
    trie.save(v2, tiny_vocab)
    v1.write_bytes(trie_v1_bytes(trie, tiny_vocab))
    before = {path: path.read_bytes() for path in (v1, v2)}
    counts = {}
    for path in (v2, v1):
        assert flip_bits.main([str(path), "--vocab", str(vocab), "--flips", "200",
                               "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["mutants"] == 200 and report["bytes"] == len(before[path])
        counts[path] = report["loaded"]
    assert counts[v2] == 0
    assert counts[v1] > 0
    assert {path: path.read_bytes() for path in (v1, v2)} == before
