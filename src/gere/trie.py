"""Token-level prefix tree over corpus titles for constrained decoding.

Every title's token sequence is terminated by an explicit EOT edge, so titles
that are prefixes of other titles ("a" vs "a b") stay distinguishable. The
node reached by the EOT edge is terminal and annotated with the doc_id, and
the terminal nodes are exactly the leaves below the root.

The trie is flat arrays with one entry per node. Node ids are breadth-first:
depth by depth, and within a depth in the order of the parents, a node's
children consecutive and in ascending token order, so every child id is
larger than its parent's. In that order the child counts alone fix the
tree (a level-order degree sequence): node i's first child is 1 plus the
child counts of nodes 0 .. i - 1, and each depth's heights follow from the
depth below. `TitleTrie.__init__` derives both, so a build and a load of
the same titles hold the same arrays. The arrays are read-only, so
decode-time reads need no synchronization.

The file (version 3) holds what the derived arrays do not: after the header,
the node and title counts, then little-endian u32 blocks of every node's
child count and of the edge token into every node but the root, the length
in code points of each terminal's doc_id in node order, the doc_ids'
concatenated UTF-8 text, and a CRC-32 of all the bytes before it. A load
reads each block with one array read and checks with array operations that
the counts give every node but the root a parent with a smaller id, so they
describe a tree; a save or load runs no per-node loop, and the heights
take one array pass per depth. The doc_ids must be non-empty and distinct,
one array test and one set, and there must be at least one. Version 3 is
the one format a load accepts: a file of any other version, such as
version 2's depth-first arrays, fails at its header with a
`DataError` naming the file, and `gere build-trie` on the same wiki, claims
and `--max-vocab` writes it again.

Two methods read the child layout, and nothing outside this module does:
`children_of(node)` is the ascending slice of a node's child tokens (a view,
not a copy), and `edges(node)` is that slice with the node's first child id,
so the j-th token leads to that id plus j. `child(node, token)` follows one
edge through `edges`. The beam's legal tokens and extensions (`edges`),
`walk`, `allowed_next` and `resolve` (so also `gere inspect-trie`) all go
through them, so the brute-force prefix oracle checks the lookup the
decoder uses.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from . import binio
from .errors import DataError
from .tokenizer import EOT, Vocab

_MAGIC = b"GERETRIE"
_VERSION = 3


class TitleTrie:
    """Nodes are numbered breadth-first. Node i's children are ids
    `first_child[i]` .. `first_child[i] + child_count[i] - 1`; `token[i]`
    labels the edge into node i (-1 at the root), `height[i]` counts the
    edges on the longest path from node i down to a terminal node, and
    `doc_ids[i]` is a terminal node's doc_id, else None."""

    root = 0

    def __init__(self, child_count: np.ndarray, token: np.ndarray,
                 doc_ids: list[Optional[str]]):
        """Adopt the breadth-first child counts and edge tokens (np.intp) and
        the doc_ids of a tree, and derive the first child ids and heights,
        the one place either is computed; the arrays become read-only."""
        first_child = 1 + np.cumsum(child_count) - child_count
        levels = [0, 1]  # depth d holds the nodes levels[d] .. levels[d + 1] - 1
        while levels[-1] < len(child_count):
            last = levels[-1] - 1
            levels.append(first_child.item(last) + child_count.item(last))
        parents = np.flatnonzero(child_count)
        starts = first_child[parents]
        bounds = np.searchsorted(parents, levels).tolist()  # each depth's run of `parents`
        height = np.zeros(len(child_count), dtype=np.intp)
        # Deepest first: a depth's parents take 1 + the largest height of
        # their children, the next depth's nodes, in runs that start at
        # `starts` and end where the next depth ends.
        for lo, hi, stop in reversed(list(zip(bounds, bounds[1:], levels[2:]))):
            height[parents[lo:hi]] = 1 + np.maximum.reduceat(height[:stop], starts[lo:hi])
        self.first_child, self.child_count, self.token, self.height = (
            first_child, child_count, token, height)
        for array in (first_child, child_count, token, height):
            array.flags.writeable = False  # shared by every decoder
        self.doc_ids = doc_ids
        self.title_count = len(doc_ids) - doc_ids.count(None)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, titles: Iterable[tuple[str, str]], vocab: Vocab) -> "TitleTrie":
        """Insert every (title, doc_id); insertion order is irrelevant."""
        seen_docs: set[str] = set()
        paths: dict[tuple[int, ...], str] = {}  # title tokens and EOT -> doc_id
        for title, doc_id in titles:
            if not doc_id or doc_id in seen_docs:
                raise DataError(f"empty or duplicate doc_id {doc_id!r} in trie build")
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
        # The paths through a node at depth d share their first d tokens, and
        # the node's children are the distinct tokens at position d of those
        # paths; kept in sorted order, they come out ascending. A node whose
        # one path ends at depth d is a terminal node.
        level = [sorted(paths.items())]  # the paths through each node of a depth
        child_count, token, doc_ids = [], [-1], []
        depth = 0
        while level:
            below = []  # the same for the next depth, breadth-first
            for through in level:
                tokens, doc_id = through[0]
                if len(tokens) == depth:
                    child_count.append(0)
                    doc_ids.append(doc_id)
                    continue
                children: dict[int, list] = {}  # token at depth -> the paths taking it
                for path in through:
                    children.setdefault(path[0][depth], []).append(path)
                child_count.append(len(children))
                doc_ids.append(None)
                token.extend(children)
                below.extend(children.values())
            level, depth = below, depth + 1
        return cls(np.array(child_count, dtype=np.intp), np.array(token, dtype=np.intp),
                   doc_ids)

    # -- queries -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.doc_ids)

    def children_of(self, node: int) -> np.ndarray:
        """The tokens of `node`'s child edges, ascending, as a read-only view:
        child j is node `first_child[node] + j`."""
        first = self.first_child.item(node)
        return self.token[first:first + self.child_count.item(node)]

    def edges(self, node: int) -> tuple[int, np.ndarray]:
        """`node`'s first child id and `children_of(node)`: the edge with the
        j-th token leads to node `first + j`."""
        return self.first_child.item(node), self.children_of(node)

    def child(self, node: int, token: int) -> Optional[int]:
        """The node that `token` leads to from `node`, or None if no edge has it."""
        first, tokens = self.edges(node)
        tokens = tokens.tolist()
        return first + tokens.index(token) if token in tokens else None

    def walk(self, prefix: Sequence[int]) -> Optional[int]:
        """Node reached from the root by `prefix`, or None if off-trie."""
        node = self.root
        for tok in prefix:
            node = self.child(node, tok)
            if node is None:
                return None
        return node

    def allowed_next(self, prefix: Sequence[int]) -> set[int]:
        """Exact set of tokens continuing `prefix`; empty if prefix is off-trie."""
        node = self.walk(prefix)
        if node is None:
            return set()
        return set(self.children_of(node).tolist())

    def resolve(self, tokens: Sequence[int]) -> str:
        """doc_id for a complete token path ending in EOT."""
        node = self.walk(tokens)
        if node is None or self.doc_ids[node] is None:
            raise DataError(f"token path {list(tokens)} is not a complete title")
        return self.doc_ids[node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TitleTrie):
            return NotImplemented
        return (self.doc_ids == other.doc_ids
                and np.array_equal(self.child_count, other.child_count)
                and np.array_equal(self.token, other.token))

    # -- persistence -------------------------------------------------------

    def to_bytes(self, vocab: Vocab) -> bytes:
        """The version 3 file: the child counts and edge tokens as u32
        blocks, the terminals' doc_ids as lengths and one text, then a CRC-32."""
        buf = bytearray()
        binio.write_header(buf, _MAGIC, _VERSION, vocab.checksum())
        binio.write_u32(buf, self.node_count)
        binio.write_u32(buf, self.title_count)
        binio.write_u32s(buf, self.child_count)
        binio.write_u32s(buf, self.token[1:])
        doc_ids = list(compress(self.doc_ids, (self.token == EOT).tolist()))
        binio.write_u32s(buf, np.fromiter(map(len, doc_ids), np.intp, len(doc_ids)))
        binio.write_str(buf, "".join(doc_ids))
        binio.write_crc32(buf)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes, vocab: Vocab, name: str = "<bytes>") -> "TitleTrie":
        r = binio.Reader(data, name)
        r.header(_MAGIC, _VERSION, "trie", vocab.checksum())
        node_count = r.u32()
        title_count = r.u32()
        if not 0 < 8 * node_count <= r.remaining():  # two u32 blocks and the CRC
            raise DataError(f"{name}: node count {node_count} does not fit the file")
        child_count = r.u32s(node_count).astype(np.intp)
        token = np.empty(node_count, dtype=np.intp)
        token[0] = -1
        token[1:] = r.u32s(node_count - 1)
        lengths = r.u32s(title_count)
        text = r.str_()
        r.finish(crc32=True)
        terminals = _check_layout(name, len(vocab), child_count, token, title_count)
        total = int(lengths.sum())
        if total != len(text):
            raise DataError(f"{name}: doc_id lengths sum to {total}, "
                            f"not the {len(text)} code points of their text")
        if not lengths.all():
            raise DataError(f"{name}: a doc_id is empty")
        ends = np.cumsum(lengths, dtype=np.int64)
        titled = [text[start:end] for start, end in zip((ends - lengths).tolist(), ends.tolist())]
        if len(set(titled)) != title_count:
            raise DataError(f"{name}: a doc_id is on two terminal nodes")
        doc_ids = [None] * node_count
        for node, doc_id in zip(terminals.tolist(), titled):
            doc_ids[node] = doc_id
        return cls(child_count, token, doc_ids)

    def save(self, path, vocab: Vocab) -> None:
        binio.write_atomic(path, (self.to_bytes(vocab),))

    @classmethod
    def load(cls, path, vocab: Vocab) -> "TitleTrie":
        return cls.from_bytes(binio.read_bytes(path), vocab, name=str(path))


def _check_layout(name: str, vocab_size: int, child_count: np.ndarray, token: np.ndarray,
                  title_count: int) -> np.ndarray:
    """Raise unless the breadth-first child counts and edge tokens are a
    trie of at least one title, and return its terminal node ids. The
    children of the nodes in id order are the ids 1 .. n - 1 in order, so
    the counts must sum to n - 1 and give each node a parent with a smaller
    id; siblings' tokens ascend strictly and are in the vocabulary; and the
    EOT edges lead to exactly the leaves below the root, one per title."""
    n = len(child_count)
    total = int(child_count.sum())
    if total != n - 1:
        raise DataError(f"{name}: child counts sum to {total}, not node count - 1 ({n - 1})")
    parent = np.repeat(np.arange(n), child_count)  # of the nodes 1 .. n - 1
    if (parent >= np.arange(1, n)).any():
        raise DataError(f"{name}: a node comes before its parent")
    if n > 1 and (token[1:].max() >= vocab_size
                  or ((token[2:] <= token[1:-1]) & (parent[1:] == parent[:-1])).any()):
        raise DataError(f"{name}: child tokens out of order or out of the vocabulary")
    terminals = np.flatnonzero(token == EOT)
    if len(terminals) != title_count:
        raise DataError(f"{name}: {len(terminals)} terminal nodes, but {title_count} titles")
    if not np.array_equal(terminals, np.flatnonzero(child_count[1:] == 0) + 1):
        raise DataError(f"{name}: a terminal node has children or a leaf is not terminal")
    if title_count == 0:
        raise DataError(f"{name}: a trie of zero titles")
    return terminals
