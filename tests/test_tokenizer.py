import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere.corpus import Claim, Corpus, Document, Label
from gere.errors import DataError
from gere.tokenizer import (
    BOS, EOS, EOT, PAD, SEP, UNK, SPECIAL_TOKENS,
    Vocab, build_vocab, load_vocab, save_vocab, tokenize,
)


def corpus_of(texts):
    corpus = Corpus()
    for i, text in enumerate(texts):
        corpus.add(Document(doc_id=f"D{i}", title=f"D{i}", sentences=((0, text),)))
    return corpus


def test_special_ids_are_pinned():
    assert (PAD, BOS, EOS, SEP, UNK, EOT) == (0, 1, 2, 3, 4, 5)


def test_tokenize_keeps_punctuation_and_lowercases():
    assert tokenize("Foo (film)") == ["foo", "(", "film", ")"]
    assert tokenize("A  b\tC") == ["a", "b", "c"]
    assert tokenize("") == []


def test_build_vocab_frequency_order():
    corpus = corpus_of(["a b", "a"])
    vocab = build_vocab(corpus, [], 8)
    assert vocab.tokens == SPECIAL_TOKENS + ("a", "b")


def test_build_vocab_deterministic():
    corpus = corpus_of(["c a b b", "a"])
    claims = [Claim(1, "b d", Label.SUPPORTS, ((("D0", 0),),))]
    v1 = build_vocab(corpus, claims, 100)
    v2 = build_vocab(corpus, claims, 100)
    assert v1 == v2


def test_build_vocab_tie_breaks_lexicographically():
    # d0 (the title), x and y all occur once; ties order lexicographically.
    vocab = build_vocab(corpus_of(["y x"]), [], 9)
    assert vocab.tokens[6:] == ("d0", "x", "y")


def test_build_vocab_truncates_and_validates_max_size():
    corpus = corpus_of(["a a b c"])
    vocab = build_vocab(corpus, [], 7)
    assert vocab.tokens == SPECIAL_TOKENS + ("a",)
    with pytest.raises(ValueError):
        build_vocab(corpus, [], 5)


def test_encode_basics():
    vocab = build_vocab(corpus_of(["a b"]), [], 10)
    assert vocab.encode("") == []
    assert vocab.encode("a") == [vocab.ids["a"]]
    assert vocab.encode("zzz") == [UNK]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc de fgh i j2".split()), max_size=8))
def test_encode_round_trip_on_known_tokens(words):
    vocab = build_vocab(corpus_of(["abc de fgh i j2"]), [], 50)
    text = " ".join(words)
    assert [vocab.tokens[i] for i in vocab.encode(text)] == tokenize(text)


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab(corpus_of(["alpha beta ( x )"]), [], 50)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    lines = path.read_text().splitlines()
    assert lines[:6] == list(SPECIAL_TOKENS)
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.checksum() == vocab.checksum()


def test_vocab_rejects_bad_files(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<bos>\n")
    with pytest.raises(DataError):
        load_vocab(path)
    path.write_text("\n".join(SPECIAL_TOKENS + ("a", "a")) + "\n")
    with pytest.raises(DataError):
        load_vocab(path)


def test_checksum_changes_with_content():
    v1 = build_vocab(corpus_of(["a b"]), [], 10)
    v2 = build_vocab(corpus_of(["a c"]), [], 10)
    assert v1.checksum() != v2.checksum()
