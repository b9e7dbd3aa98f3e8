"""Every reader of an input file either loads it or raises `DataError`.

Small valid vocab, wiki, claims, predictions, trie and checkpoint files get
random byte flips, overwrites, duplications and truncations (a few per file,
bounded in size); any exception but `DataError` escaping a reader fails the
test. The text formats also get their line and newline rules checked.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere import binio
from gere.checkpoint import load_checkpoint, save_checkpoint
from gere.corpus import Document, load_claims, load_wiki_pages, save_wiki_pages
from gere.decoding import read_predictions
from gere.errors import DataError
from gere.model import Seq2SeqModel
from gere.synthetic import claims_to_records
from gere.tokenizer import load_vocab, save_vocab
from gere.trie import TitleTrie

from conftest import small_config

_EDIT = st.tuples(st.sampled_from(["flip", "overwrite", "duplicate", "truncate"]),
                  st.integers(0, 1 << 20), st.integers(0, 255))
_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None)


def _mutate(data: bytes, edits) -> bytes:
    """Apply (kind, position, value) edits; a duplication copies at most 64 bytes."""
    out = bytearray(data)
    for kind, position, value in edits:
        if not out:
            break
        at = position % len(out)
        if kind == "flip":
            out[at] ^= 1 << (value % 8)
        elif kind == "overwrite":
            out[at] = value
        elif kind == "duplicate":
            out[at:at] = out[at:at + 1 + value % 64]
        else:
            del out[at:]
    return bytes(out)


@pytest.fixture
def valid_files(tmp_path, tiny_corpus, tiny_claims, tiny_vocab):
    """kind -> (path of a valid file, read(path)) for every file format gere reads."""
    paths = {kind: tmp_path / kind for kind in
             ("vocab", "wiki", "claims", "predictions", "trie", "checkpoint")}
    save_vocab(tiny_vocab, paths["vocab"])
    save_wiki_pages(tiny_corpus, paths["wiki"])
    binio.write_jsonl(paths["claims"], claims_to_records(tiny_claims))
    binio.write_jsonl(paths["predictions"], [
        {"claim_id": c.claim_id, "predicted_titles": ["Alpha_hill"],
         "predicted_evidence": [["Alpha_hill", 0]], "predicted_label": c.label.value}
        for c in tiny_claims])
    TitleTrie.build(tiny_corpus.titles(), tiny_vocab).save(paths["trie"], tiny_vocab)
    save_checkpoint(paths["checkpoint"], Seq2SeqModel(
        small_config(len(tiny_vocab), max_positions=16), vocab_checksum=tiny_vocab.checksum()))
    readers = {
        "vocab": load_vocab,
        "wiki": load_wiki_pages,
        "claims": lambda path: load_claims(path, tiny_corpus),
        "predictions": read_predictions,
        "trie": lambda path: TitleTrie.load(path, tiny_vocab),
        "checkpoint": lambda path: load_checkpoint(path, tiny_vocab.checksum()),
    }
    return {kind: (paths[kind], readers[kind]) for kind in paths}


@pytest.mark.parametrize("kind", ["vocab", "wiki", "claims", "predictions", "trie",
                                  "checkpoint"])
def test_mutated_file_loads_or_is_data_error(kind, valid_files):
    path, read = valid_files[kind]
    read(path)
    data, mutant = path.read_bytes(), path.with_name("mutant")

    @_SETTINGS
    @given(st.lists(_EDIT, min_size=1, max_size=3))
    def check(edits):
        mutant.write_bytes(_mutate(data, edits))
        try:
            read(mutant)
        except DataError:
            pass

    check()


@pytest.mark.parametrize("kind", ["vocab", "wiki", "claims", "predictions"])
def test_invalid_utf8_names_file_and_line(kind, valid_files):
    path, read = valid_files[kind]
    mutant = path.with_name("mutant")
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    mutant.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError, match=f"{mutant.name}:2: invalid UTF-8"):
        read(mutant)


@pytest.mark.parametrize("kind", ["vocab", "wiki", "claims", "predictions", "trie",
                                  "checkpoint"])
def test_unreadable_path_is_data_error(kind, valid_files, tmp_path):
    read = valid_files[kind][1]
    (tmp_path / "a_directory").mkdir()
    for path in (tmp_path / "a_directory", tmp_path / "missing"):
        with pytest.raises(DataError, match=f"{path.name}"):
            read(path)


@pytest.mark.parametrize("line", ["[" * 100_000, '{"n": ' + "9" * 5000 + "}"])
def test_json_the_decoder_cannot_hold_is_data_error(tmp_path, line):
    path = tmp_path / "p.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match="p.jsonl:1: invalid JSON"):
        list(binio.read_jsonl(path))


def test_lone_surrogate_escape_is_data_error_and_a_pair_loads(tmp_path):
    # Both are valid JSON; only the pair is a character UTF-8 can write.
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": "\\ud83d\\ude00"}\n{"b": ["x", {"\\ud800": 1}]}\n')
    records = binio.read_jsonl(path)
    assert next(records) == (f"{path}:1", {"a": "\U0001F600"})
    with pytest.raises(DataError, match="r.jsonl:2: lone surrogate"):
        next(records)


def test_jsonl_lines_split_as_text_mode_and_keep_u2028(tmp_path):
    # U+2028 is a line break to str.splitlines() but not to a text-mode read.
    path = tmp_path / "r.jsonl"
    path.write_bytes('{"a": 1}\r\n\r{"b": "x\u2028y"}\r{"c": 3}\n'.encode("utf-8"))
    assert list(binio.read_jsonl(path)) == [
        (f"{path}:1", {"a": 1}), (f"{path}:3", {"b": "x\u2028y"}), (f"{path}:4", {"c": 3})]


def test_wiki_round_trips_a_sentence_holding_u2028(tmp_path, tiny_corpus):
    tiny_corpus.add(Document("Gamma_vale", "Gamma vale", ((0, "one\u2028two"), (1, "three"))))
    path = tmp_path / "wiki.jsonl"
    save_wiki_pages(tiny_corpus, path)
    assert "\u2028" in path.read_text(encoding="utf-8")  # written raw, not escaped
    assert load_wiki_pages(path) == tiny_corpus
