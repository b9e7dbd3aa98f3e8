import struct
import zlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gere.corpus import title_from_doc_id
from gere.errors import DataError
from gere.synthetic import make_doc_ids
from gere.tokenizer import EOT, PAD, SPECIAL_TOKENS, UNK, Vocab, tokenize
from gere.trie import TitleTrie

from oracles import allowed_next_bruteforce, trie_bfs_reference, trie_v3_bytes


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


def test_empty_doc_id_rejected(vocab):
    """A load rejects an empty doc_id, so a build writes none."""
    with pytest.raises(DataError, match="empty or duplicate doc_id ''"):
        TitleTrie.build([("a", "X"), ("b", "")], vocab)


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


def test_child_token_slices_and_heights(tmp_path, tiny_corpus, tiny_vocab):
    built = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    built.save(tmp_path / "trie.bin", tiny_vocab)
    loaded = TitleTrie.load(tmp_path / "trie.bin", tiny_vocab)
    longest = max(len(tiny_vocab.encode(t)) for t, _ in tiny_corpus.titles())

    def longest_path(trie, node):
        children = [trie.child(node, tok) for tok in trie.children_of(node).tolist()]
        return max((1 + longest_path(trie, c) for c in children), default=0)

    for trie in (built, loaded):
        assert trie.height[trie.root] == longest + 1
        for node in range(trie.node_count):
            tokens = trie.children_of(node)
            assert not tokens.flags.writeable
            assert tokens.tolist() == sorted(set(tokens.tolist()))  # strictly ascending
            assert trie.height[node] == longest_path(trie, node)


# Titles of one to four words, "unseen" outside the vocabulary (so UNK), and
# prefixes of each other ("a" and "a b") among them.
_WORD_LISTS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "unseen"]), min_size=1,
                                max_size=4), min_size=1, max_size=12, unique_by=tuple)


@settings(max_examples=60, deadline=None)
@given(_WORD_LISTS)
def test_child_and_children_of_match_a_scan_at_every_node(word_lists):
    """At every node, `children_of` is the continuation set that a scan of
    the titles gives for the node's path, and `child(node, t)` is the node
    whose parent (a scan of every node's child-id range) is `node` and whose
    edge token is t, for every id of the vocabulary and two above it; else
    None. `edges(node)` gives the same tokens, and its first child id plus j
    is that node for the j-th token."""
    vocab = Vocab(SPECIAL_TOKENS + ("a", "b", "c"))
    titles = [(" ".join(words), f"doc{i}") for i, words in enumerate(word_lists)]
    seqs = [vocab.encode(t) for t, _ in titles]
    assume(len(set(map(tuple, seqs))) == len(seqs))  # else rejected
    trie = TitleTrie.build(titles, vocab)
    first, count = trie.first_child.tolist(), trie.child_count.tolist()
    parent = [next((p for p in range(trie.node_count) if first[p] <= n < first[p] + count[p]),
                   None) for n in range(trie.node_count)]
    paths = [()]
    for n in range(1, trie.node_count):  # a child's id is larger than its parent's
        paths.append(paths[parent[n]] + (int(trie.token[n]),))
    probes = range(len(vocab) + 2)  # PAD .. EOT, every word, then two off-vocabulary ids
    for node in range(trie.node_count):
        tokens = trie.children_of(node).tolist()
        assert tokens == sorted(allowed_next_bruteforce(seqs, paths[node]))
        first, edge_tokens = trie.edges(node)
        assert edge_tokens.tolist() == tokens
        assert [first + j for j in range(len(tokens))] == [
            n for n in range(trie.node_count) if parent[n] == node]
        assert [int(trie.token[first + j]) for j in range(len(tokens))] == tokens
        for tok in probes:
            expected = next((n for n in range(trie.node_count)
                             if parent[n] == node and trie.token[n] == tok), None)
            assert trie.child(node, tok) == expected, (node, tok)
    for tok in (PAD, EOT, len(vocab), len(vocab) + 1):
        assert trie.child(trie.root, tok) is None
    assert (trie.child(trie.root, UNK) is None) == (UNK not in {seq[0] for seq in seqs})


@settings(max_examples=60, deadline=None)
@given(_WORD_LISTS, st.randoms(use_true_random=False))
def test_built_and_loaded_tries_hold_the_same_arrays(word_lists, random):
    """Prefix titles ("a" and "a b") and UNK tokens ("unseen") included, in
    any insertion order."""
    vocab = Vocab(SPECIAL_TOKENS + ("a", "b", "c"))
    titles = [(" ".join(words), f"doc{i}") for i, words in enumerate(word_lists)]
    assume(len({tuple(vocab.encode(t)) for t, _ in titles}) == len(titles))  # else rejected
    random.shuffle(titles)
    built = TitleTrie.build(titles, vocab)
    loaded = TitleTrie.from_bytes(built.to_bytes(vocab), vocab)
    for name in ("first_child", "child_count", "token", "height"):
        assert getattr(built, name).tolist() == getattr(loaded, name).tolist(), name
    assert built.doc_ids == loaded.doc_ids
    assert built == loaded
    assert all(built.first_child[n] > n for n in range(built.node_count)
               if built.child_count[n])


@settings(max_examples=60, deadline=None)
@given(_WORD_LISTS, st.randoms(use_true_random=False))
def test_build_numbers_nodes_breadth_first(word_lists, random):
    """A build holds the child counts, edge tokens and doc_ids of a
    queue-driven walk of a nested-dict trie, so siblings ascend by token and
    each depth follows the one above, in its parents' order."""
    vocab = Vocab(SPECIAL_TOKENS + ("a", "b", "c"))
    titles = [(" ".join(words), f"doc{i}") for i, words in enumerate(word_lists)]
    assume(len({tuple(vocab.encode(t)) for t, _ in titles}) == len(titles))  # else rejected
    random.shuffle(titles)
    trie = TitleTrie.build(titles, vocab)
    child_count, token, doc_ids = trie_bfs_reference(titles, vocab)
    assert trie.child_count.tolist() == child_count
    assert trie.token.tolist() == token
    assert trie.doc_ids == doc_ids


def test_loaded_trie_heap_per_node(tmp_path):
    rng = np.random.default_rng(101)
    doc_ids = make_doc_ids(rng, 10_000, pool_size=300, max_words=5)
    titles = [(title_from_doc_id(d), d) for d in doc_ids]
    vocab = Vocab(SPECIAL_TOKENS + tuple(sorted({tok for t, _ in titles for tok in tokenize(t)})))
    path = tmp_path / "trie.bin"
    TitleTrie.build(titles, vocab).save(path, vocab)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trie = TitleTrie.load(path, vocab)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trie.title_count == len(titles)
    assert held / trie.node_count < 128, f"{held / trie.node_count:.0f} B per node"


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


# -- file format version 3 ------------------------------------------------------
# The tests named `v2` check version 3 files and keep the names they had when
# version 2 was the format.


def test_v2_bytes_are_the_arrays_and_doc_ids(vocab):
    """Titles "a" and "a b": root -> a, a -> {EOT, b}, b -> EOT."""
    trie = TitleTrie.build([("a b", "AB"), ("a", "A")], vocab)
    a, b = vocab.ids["a"], vocab.ids["b"]
    assert trie.child_count.tolist() == [1, 2, 0, 1, 0]
    assert trie.first_child.tolist() == [1, 2, 4, 4, 5]
    assert trie.token.tolist() == [-1, a, EOT, b, EOT]
    assert trie.height.tolist() == [3, 2, 0, 1, 0]
    assert trie.to_bytes(vocab) == trie_v3_bytes(vocab, [1, 2, 0, 1, 0], [a, EOT, b, EOT],
                                                 ["A", "AB"])


def test_doc_ids_with_newline_tab_and_non_ascii_round_trip(tmp_path, vocab):
    titles = [("a", "line\nbreak"), ("a b", "tab\there"), ("b", "Ünïcödé_日本_\U0001F600"),
              ("c", "\r\n\x00"), ("z", " ")]
    trie = TitleTrie.build(titles, vocab)
    trie.save(tmp_path / "trie.bin", vocab)
    loaded = TitleTrie.load(tmp_path / "trie.bin", vocab)
    assert loaded == trie
    for title, doc_id in titles:
        assert loaded.resolve(vocab.encode(title) + [EOT]) == doc_id


_A, _B, _C = 6, 7, 8  # the `vocab` fixture's ids of "a", "b" and "c"


@pytest.mark.parametrize("blocks, message", [
    # child counts, edge tokens, doc_ids[, title count]; the valid file of
    # "a" and "a b" is ([1, 2, 0, 1, 0], [a, EOT, b, EOT], ["A", "AB"]).
    (([1, 2, 0, 2, 0], [_A, EOT, _B, EOT], ["A", "AB"]),
     "child counts sum to 5, not node count - 1"),
    # Counts that sum to n - 1 but make a node its own parent, or leave a
    # cycle apart from the root's tree.
    (([0, 2, 0], [_A, EOT], ["A"]), "a node comes before its parent"),
    (([1, 0, 1], [_A, EOT], ["A"]), "a node comes before its parent"),
    (([1, 1, 0, 0, 2], [_A, EOT, _B, EOT], ["A", "AB"]), "a node comes before its parent"),
    (([1, 1, 0, 1, 0], [_A, EOT, _B, EOT], ["A", "AB"]),
     "child counts sum to 3, not node count - 1"),
    (([1, 2, 0, 1, 0], [_A, _B, EOT, EOT], ["A", "AB"]), "out of order"),
    (([1, 2, 0, 1, 0], [_A, EOT, EOT, EOT], ["A", "AB"]), "out of order"),
    (([1, 2, 0, 1, 0], [_A, EOT, 10, EOT], ["A", "AB"]), "out of the vocabulary"),
    (([1, 2, 0, 1, 0], [_A, EOT, _B, EOT], ["A", "AB", "X"]),
     "2 terminal nodes, but 3 titles"),
    # The root alone: no titles, which a build refuses, or one it lacks.
    (([0], [], []), "a trie of zero titles"),
    (([0], [], ["A"]), "0 terminal nodes, but 1 titles"),
    # "a b" alone is ([1, 1, 1, 0], [a, b, EOT], ["AB"]).
    (([1, 1, 1, 0], [_A, EOT, EOT], ["X", "AB"]), "terminal node has children"),
    (([1, 1, 1, 0], [_A, _B, _C], []), "leaf is not terminal"),
    (([1, 1, 1, 0], [_A, _B, EOT], ["AB", "X"], 1), "trailing bytes"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_v2_layout_errors_name_the_file(tmp_path, vocab, blocks, message):
    """Each file has a valid CRC-32, so the layout checks are what reject it."""
    path = tmp_path / "bad.trie"
    path.write_bytes(trie_v3_bytes(vocab, *blocks))
    with pytest.raises(DataError, match=f"{path.name}: .*{message}"):
        TitleTrie.load(path, vocab)


def test_v2_lengths_that_miss_the_text_are_rejected(tmp_path, vocab):
    data = trie_v3_bytes(vocab, [1, 2, 0, 1, 0], [_A, EOT, _B, EOT], ["A", "AB"])
    at = 24 + 4 * (2 * 5 - 1)  # after the header, the counts and two u32 blocks
    assert data[at:at + 8] == struct.pack("<2I", 1, 2)
    body = data[:at] + struct.pack("<2I", 1, 1) + data[at + 8:-4]
    path = tmp_path / "bad.trie"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(DataError, match=f"{path.name}: doc_id lengths sum to 2"):
        TitleTrie.load(path, vocab)


@pytest.mark.parametrize("doc_ids, message", [
    (["A", "A"], "a doc_id is on two terminal nodes"),
    (["", "AB"], "a doc_id is empty"),
    (["A", ""], "a doc_id is empty"),
])
def test_v2_empty_or_repeated_doc_ids_are_rejected(tmp_path, vocab, doc_ids, message):
    """Two terminals with one doc_id would let the beam emit that document
    twice, and an empty one names no page. The file has a valid CRC-32 and
    layout, so the doc_id checks are what reject it."""
    path = tmp_path / "bad.trie"
    path.write_bytes(trie_v3_bytes(vocab, [1, 2, 0, 1, 0], [_A, EOT, _B, EOT], doc_ids))
    with pytest.raises(DataError, match=f"{path.name}: {message}"):
        TitleTrie.load(path, vocab)


def test_every_single_bit_flip_of_a_v2_trie_is_rejected(vocab):
    data = TitleTrie.build([("a", "A"), ("a b", "AB"), ("c", "C")], vocab).to_bytes(vocab)
    for bit in range(8 * len(data)):
        mutant = bytearray(data)
        mutant[bit // 8] ^= 1 << bit % 8
        with pytest.raises(DataError):
            TitleTrie.from_bytes(bytes(mutant), vocab)
