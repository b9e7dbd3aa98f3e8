import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere.errors import DataError
from gere.tokenizer import EOT, SPECIAL_TOKENS, Vocab
from gere.trie import TitleTrie

from oracles import allowed_next_bruteforce


@pytest.fixture
def vocab():
    return Vocab(SPECIAL_TOKENS + ("a", "b", "c", "z"))


def test_single_title_three_nodes(vocab):
    trie = TitleTrie.build([("a", "doc-a")], vocab)
    assert trie.node_count == 3  # root -> "a" -> EOT terminal
    assert trie.title_count == 1
    assert trie.resolve(vocab.encode("a") + [EOT]) == "doc-a"


def test_prefix_title_shares_nodes(vocab):
    trie = TitleTrie.build([("a", "doc-a"), ("a b", "doc-ab")], vocab)
    a = vocab.ids["a"]
    b = vocab.ids["b"]
    assert trie.allowed_next([a]) == {EOT, b}
    assert trie.allowed_next([]) == {a}
    # root, a, EOT-terminal(a), b, EOT-terminal(a b)
    assert trie.node_count == 5


def test_zero_titles_rejected(vocab):
    with pytest.raises(DataError):
        TitleTrie.build([], vocab)


def test_off_trie_prefix_empty_set(vocab):
    trie = TitleTrie.build([("a", "doc-a")], vocab)
    assert trie.allowed_next([vocab.ids["z"]]) == set()


def test_root_children(vocab):
    trie = TitleTrie.build([("a", "doc-a"), ("b c", "doc-bc")], vocab)
    assert trie.allowed_next([]) == {vocab.ids["a"], vocab.ids["b"]}


def test_colliding_token_sequences_rejected():
    vocab = Vocab(SPECIAL_TOKENS + ("foo", "(", "film", ")"))
    # Distinct doc_ids, identical token sequences after tokenization.
    with pytest.raises(DataError) as err:
        TitleTrie.build([("foo (film)", "A"), ("Foo (Film)", "B")], vocab)
    assert "foo (film)" in str(err.value).lower()


def test_duplicate_doc_id_rejected(vocab):
    with pytest.raises(DataError):
        TitleTrie.build([("a", "X"), ("b", "X")], vocab)


def test_resolve_non_terminal_errors(vocab):
    trie = TitleTrie.build([("a b", "doc-ab")], vocab)
    with pytest.raises(DataError):
        trie.resolve(vocab.encode("a"))
    with pytest.raises(DataError):
        trie.resolve(vocab.encode("a") + [EOT])


def test_resolve_round_trips_every_title(tiny_corpus, tiny_vocab):
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    for title, doc_id in tiny_corpus.titles():
        assert trie.resolve(tiny_vocab.encode(title) + [EOT]) == doc_id


def test_insertion_order_irrelevant(vocab):
    titles = [("a", "1"), ("a b", "2"), ("b c", "3"), ("c", "4")]
    assert TitleTrie.build(titles, vocab) == TitleTrie.build(titles[::-1], vocab)
    assert (TitleTrie.build(titles, vocab).to_bytes(vocab)
            == TitleTrie.build(titles[::-1], vocab).to_bytes(vocab))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_allowed_next_matches_bruteforce(data):
    words = ["a", "b", "c"]
    vocab = Vocab(SPECIAL_TOKENS + tuple(words))
    n = data.draw(st.integers(1, 8))
    seen = set()
    titles = []
    for i in range(n):
        length = data.draw(st.integers(1, 3))
        toks = tuple(data.draw(st.sampled_from(words)) for _ in range(length))
        if toks in seen:
            continue
        seen.add(toks)
        titles.append((" ".join(toks), f"doc{i}"))
    if not titles:
        titles = [("a", "doc0")]
    trie = TitleTrie.build(titles, vocab)
    seqs = [vocab.encode(t) for t, _ in titles]
    prefix_len = data.draw(st.integers(0, 4))
    prefix = [data.draw(st.sampled_from([vocab.ids[w] for w in words] + [EOT]))
              for _ in range(prefix_len)]
    assert trie.allowed_next(prefix) == allowed_next_bruteforce(seqs, prefix)


def test_node_count_invariant(tiny_corpus, tiny_vocab):
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    bound = 1 + sum(len(tiny_vocab.encode(t)) + 1 for t, _ in tiny_corpus.titles())
    assert trie.node_count <= bound


def test_binary_round_trip(tmp_path, tiny_corpus, tiny_vocab):
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    path = tmp_path / "trie.bin"
    trie.save(path, tiny_vocab)
    loaded = TitleTrie.load(path, tiny_vocab)
    assert loaded == trie
    assert loaded.to_bytes(tiny_vocab) == trie.to_bytes(tiny_vocab)
    assert path.read_bytes()[:8] == b"GERETRIE"


def test_cached_child_tokens_and_heights(tmp_path, tiny_corpus, tiny_vocab):
    built = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    built.save(tmp_path / "trie.bin", tiny_vocab)
    loaded = TitleTrie.load(tmp_path / "trie.bin", tiny_vocab)
    longest = max(len(tiny_vocab.encode(t)) for t, _ in tiny_corpus.titles())

    def longest_path(trie, node):
        children = trie.children_of(node).values()
        return max((1 + longest_path(trie, c) for c in children), default=0)

    for trie in (built, loaded):
        assert trie.height(trie.root) == longest + 1
        for node in range(trie.node_count):
            assert trie.child_tokens(node).tolist() == sorted(trie.children_of(node))
            assert trie.child_tokens(node) is trie.child_tokens(node)
            assert trie.height(node) == longest_path(trie, node)


def test_load_rejects_wrong_vocab(tmp_path, tiny_corpus, tiny_vocab):
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    path = tmp_path / "trie.bin"
    trie.save(path, tiny_vocab)
    other = Vocab(SPECIAL_TOKENS + ("different",))
    with pytest.raises(DataError):
        TitleTrie.load(path, other)


def test_load_rejects_corruption(tmp_path, tiny_corpus, tiny_vocab):
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    data = trie.to_bytes(tiny_vocab)
    path = tmp_path / "trie.bin"
    path.write_bytes(data[:-3])
    with pytest.raises(DataError):
        TitleTrie.load(path, tiny_vocab)
    path.write_bytes(b"NOTATRIE" + data[8:])
    with pytest.raises(DataError):
        TitleTrie.load(path, tiny_vocab)
    assert data.count(b"Beta_ridge") == 1
    path.write_bytes(data.replace(b"Beta_ridge", b"\xffeta_ridge"))  # invalid UTF-8 doc_id
    with pytest.raises(DataError, match="UTF-8"):
        TitleTrie.load(path, tiny_vocab)


def test_huge_node_count_rejected_before_allocating(tiny_corpus, tiny_vocab):
    data = TitleTrie.build(tiny_corpus.titles(), tiny_vocab).to_bytes(tiny_vocab)
    # Header: magic (8 bytes), version, vocab checksum, node count, title count (u32 each).
    bad = data[:16] + struct.pack("<I", 1_000_000) + data[20:]
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="node count"):
            TitleTrie.from_bytes(bad, tiny_vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
