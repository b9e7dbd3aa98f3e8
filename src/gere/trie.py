"""Token-level prefix tree over corpus titles for constrained decoding.

Every title's token sequence is terminated by an explicit EOT edge, so titles
that are prefixes of other titles ("a" vs "a b") stay distinguishable. The
node reached by the EOT edge is terminal and annotated with the doc_id.

The trie is flat arrays with one entry per node. Node ids follow the file's
depth-first order: a node's children are consecutive, in ascending token
order, and get their ids when the node is visited, so every child id is
larger than its parent's. A built and a loaded trie hold the same arrays.
The arrays are read-only, so decode-time reads need no synchronization.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from . import binio
from .errors import DataError
from .tokenizer import EOT, Vocab

_MAGIC = b"GERETRIE"
_VERSION = 1


class TitleTrie:
    """Node i's children are ids `first_child[i]` .. `first_child[i] +
    child_count[i] - 1`; `token[i]` labels the edge into node i (-1 at the
    root), `height[i]` counts the edges on the longest path from node i down
    to a terminal node, and `doc_ids[i]` is a terminal node's doc_id, else
    None."""

    root = 0

    def __init__(self, records: Iterable[tuple[Optional[str], Sequence[int]]]):
        """Consume the pre-order records (doc_id or None, ascending child
        tokens) of every node, the root's first."""
        records = iter(records)
        token, visited, counts, terminals = [-1], [], [], []
        pending = [self.root]
        while pending:
            node = pending.pop()
            doc_id, tokens = next(records)
            if doc_id is not None:
                terminals.append((node, doc_id))
            visited.append(node)
            counts.append(len(tokens))
            first = len(token)
            token.extend(tokens)
            pending.extend(range(len(token) - 1, first - 1, -1))
        n = len(token)
        visited, counts = np.array(visited, dtype=np.intp), np.array(counts, dtype=np.intp)
        self.first_child = np.empty(n, dtype=np.intp)
        self.first_child[visited] = 1 + np.cumsum(counts) - counts
        self.child_count = np.empty(n, dtype=np.intp)
        self.child_count[visited] = counts
        self.token = np.array(token, dtype=np.intp)
        parents = np.repeat(visited, counts).tolist()  # of nodes 1 .. n - 1
        height = [0] * n
        for child in range(n - 1, 0, -1):  # children before parents
            parent, h = parents[child - 1], height[child] + 1
            if h > height[parent]:
                height[parent] = h
        self.height = np.array(height, dtype=np.intp)
        for array in (self.first_child, self.child_count, self.token, self.height):
            array.flags.writeable = False  # shared by every decoder
        self.doc_ids = [None] * n
        for node, doc_id in terminals:
            self.doc_ids[node] = doc_id
        self.title_count = len(terminals)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, titles: Iterable[tuple[str, str]], vocab: Vocab) -> "TitleTrie":
        """Insert every (title, doc_id); insertion order is irrelevant."""
        seen_docs: set[str] = set()
        paths: dict[tuple[int, ...], str] = {}  # title tokens and EOT -> doc_id
        for title, doc_id in titles:
            if doc_id in seen_docs:
                raise DataError(f"duplicate doc_id {doc_id!r} in trie build")
            seen_docs.add(doc_id)
            tokens = vocab.encode(title)
            if not tokens:
                raise DataError(f"title {title!r} (doc_id {doc_id!r}) tokenizes to nothing")
            tokens.append(EOT)
            first = paths.setdefault(tuple(tokens), doc_id)
            if first != doc_id:
                raise DataError(
                    f"titles {title!r} ({doc_id!r}) and ({first!r}) share one token sequence")
        if not paths:
            raise DataError("cannot build a title trie from zero titles")
        return cls(_sorted_records(sorted(paths.items())))

    # -- queries -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.doc_ids)

    def walk(self, prefix: Sequence[int]) -> Optional[int]:
        """Node reached from the root by `prefix`, or None if off-trie."""
        node = self.root
        for tok in prefix:
            node = self.children_of(node).get(tok)
            if node is None:
                return None
        return node

    def children_of(self, node: int) -> dict[int, int]:
        first, count = self.first_child[node], self.child_count[node]
        return dict(zip(self.token[first:first + count].tolist(), range(first, first + count)))

    def allowed_next(self, prefix: Sequence[int]) -> set[int]:
        """Exact set of tokens continuing `prefix`; empty if prefix is off-trie."""
        node = self.walk(prefix)
        if node is None:
            return set()
        return set(self.children_of(node))

    def resolve(self, tokens: Sequence[int]) -> str:
        """doc_id for a complete token path ending in EOT."""
        node = self.walk(tokens)
        if node is None or self.doc_ids[node] is None:
            raise DataError(f"token path {list(tokens)} is not a complete title")
        return self.doc_ids[node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TitleTrie):
            return NotImplemented
        return self.doc_ids == other.doc_ids and all(
            np.array_equal(mine, theirs) for mine, theirs in
            zip((self.first_child, self.child_count, self.token, self.height),
                (other.first_child, other.child_count, other.token, other.height)))

    # -- persistence -------------------------------------------------------

    def to_bytes(self, vocab: Vocab) -> bytes:
        """Depth-first serialization with delta-encoded child token ids."""
        buf = bytearray()
        binio.write_header(buf, _MAGIC, _VERSION, vocab.checksum())
        binio.write_u32(buf, self.node_count)
        binio.write_u32(buf, self.title_count)
        # Pre-order DFS; children visited in ascending token-id order, which
        # is the order that assigns the node ids.
        first_child, child_count = self.first_child.tolist(), self.child_count.tolist()
        token = self.token.tolist()
        stack = [self.root]
        while stack:
            node = stack.pop()
            doc_id = self.doc_ids[node]
            binio.write_u8(buf, 1 if doc_id is not None else 0)
            if doc_id is not None:
                binio.write_str(buf, doc_id)
            first, count = first_child[node], child_count[node]
            binio.write_uvarint(buf, count)
            prev = -1
            for tok in token[first:first + count]:
                binio.write_uvarint(buf, tok - prev)
                prev = tok
            stack.extend(range(first + count - 1, first - 1, -1))
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes, vocab: Vocab, name: str = "<bytes>") -> "TitleTrie":
        r = binio.Reader(data, name)
        r.header(_MAGIC, _VERSION, "trie", vocab.checksum())
        node_count = r.u32()
        title_count = r.u32()
        if not 1 <= node_count <= (len(data) - r.pos) // 2:  # a node record takes >= 2 bytes
            raise DataError(f"{name}: node count {node_count} does not fit the file")

        def records():
            declared = 1  # the root, then every child read so far
            while True:
                doc_id = r.str_() if r.u8() else None
                n_children = r.uvarint()
                declared += n_children
                if declared > node_count:
                    raise DataError(f"{name}: more nodes than declared ({node_count})")
                steps = [r.uvarint() for _ in range(n_children)]
                tokens = [total - 1 for total in accumulate(steps)]
                if 0 in steps or (tokens and tokens[-1] >= len(vocab)):
                    raise DataError(f"{name}: child tokens out of order or out of the vocabulary")
                yield doc_id, tokens

        trie = cls(records())
        if trie.node_count != node_count:
            raise DataError(
                f"{name}: node count mismatch ({trie.node_count} read, {node_count} declared)")
        r.finish()
        if trie.title_count != title_count:
            raise DataError(f"{name}: title count mismatch")
        return trie

    def save(self, path, vocab: Vocab) -> None:
        binio.write_atomic(path, (self.to_bytes(vocab),))

    @classmethod
    def load(cls, path, vocab: Vocab) -> "TitleTrie":
        return cls.from_bytes(binio.read_bytes(path), vocab, name=str(path))


def _sorted_records(paths: list[tuple[tuple[int, ...], str]]):
    """The pre-order records of the trie over `paths`, (tokens ending in EOT,
    doc_id) pairs sorted by tokens. The paths through a node at depth d are a
    run of the list that shares its first d tokens, and the node's children
    are the distinct tokens at position d of that run, ascending."""
    stack = [(0, len(paths), 0)]  # (run start, run end, depth)
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo == 1:  # one title below: a chain down to its terminal node
            tokens, doc_id = paths[lo]
            for tok in tokens[depth:]:
                yield None, (tok,)
            yield doc_id, ()
            continue
        children, starts = [], []
        for i in range(lo, hi):
            tok = paths[i][0][depth]
            if not children or tok != children[-1]:
                children.append(tok)
                starts.append(i)
        starts.append(hi)
        yield None, children
        stack.extend((start, end, depth + 1)
                     for start, end in reversed(list(zip(starts, starts[1:]))))
