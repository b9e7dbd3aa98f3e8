import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere.corpus import Claim, Corpus, Document, Label
from gere.errors import DataError
from gere.tokenizer import (
    BOS, EOS, EOT, PAD, SEP, UNK, SPECIAL_TOKENS,
    Vocab, build_vocab, load_vocab, save_vocab, tokenize,
)

from oracles import build_vocab_reference, tokenize_reference

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


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


def test_regex_classes_are_the_str_predicates_on_every_code_point():
    """The premise of `tokenize`'s split fast path: `\\s` matches exactly
    what `str.isspace()` accepts, and `\\w` what `str.isalnum()` accepts
    plus `_`."""
    assert re.findall(r"\s", EVERY_CODE_POINT) == [c for c in EVERY_CODE_POINT if c.isspace()]
    assert re.findall(r"\w", EVERY_CODE_POINT) == [
        c for c in EVERY_CODE_POINT if c.isalnum() or c == "_"]


# Characters on which a split-based tokenizer could part from the regex: the
# underscore (a word character that is not alphanumeric), combining marks
# (neither), digits and numerals outside ASCII (alphanumeric), characters
# whose lowercase is longer or combining (U+0130), and every whitespace.
_AWKWARD = ["_", "\u0301", "\u0903", "\u20dd", "\u0663", "\u0967", "\u00b2", "\u00bd",
            "\u216b", "\u0130", "\u1e9e", "\u03a3", "-", "(", "'"] + [
    c for c in EVERY_CODE_POINT if c.isspace()]


@settings(max_examples=400, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_AWKWARD)), max_size=40))
def test_tokenize_equals_the_regex_reference(text):
    assert tokenize(text) == tokenize_reference(text)


# Texts for the piece-counting oracles: random Unicode and the awkward
# characters, after an optional combining or case-ignorable start and before
# an optional capital sigma end (lowercased as final only when no cased
# letter follows, so a piece spanning two texts would change it), and
# empty or whitespace-only texts.
_TEXTS = st.one_of(
    st.builds(lambda start, body, end: start + body + end,
              st.sampled_from(["", "\u0301", "\u0345", "\u00ad", "'", "b"]),
              st.text(st.one_of(st.characters(), st.sampled_from(_AWKWARD)), max_size=24),
              st.sampled_from(["", "\u03a3", "A\u03a3", "\u03c3\u03a3\u0301", "-\u03a3"])),
    st.sampled_from(["", " ", "\n", "\t \u3000\u2028"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXTS.filter(bool), unique=True, max_size=5),
       st.lists(st.lists(_TEXTS, max_size=4), min_size=5, max_size=5),
       st.lists(_TEXTS, max_size=5), st.integers(6, 30))
def test_build_vocab_equals_the_per_text_reference(titles, sentences, claim_texts, max_size):
    corpus = Corpus()
    for i, (title, texts) in enumerate(zip(titles, sentences)):
        corpus.add(Document(doc_id=f"D{i}", title=title, sentences=tuple(enumerate(texts))))
    claims = [Claim(i, text, Label.NOT_ENOUGH_INFO, ()) for i, text in enumerate(claim_texts)]
    assert build_vocab(corpus, claims, max_size) == build_vocab_reference(
        corpus, claims, max_size)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_encode_through_the_piece_table_equals_the_reference(texts, random):
    known = sorted({tok for text in texts for tok in tokenize_reference(text)})
    vocab = Vocab(SPECIAL_TOKENS + tuple(random.sample(known, len(known) // 2)))
    expected = [[vocab.ids.get(tok, UNK) for tok in tokenize_reference(text)] for text in texts]
    assert [vocab.encode(text) for text in texts] == expected  # cold table
    assert [vocab.encode(text) for text in texts] == expected  # warm table
    for text, ids in zip(texts, expected):
        vocab.encode(text).append(EOT)
        assert vocab.encode(text) == ids
