"""Token-level prefix tree over corpus titles for constrained decoding.

Every title's token sequence is terminated by an explicit EOT edge, so titles
that are prefixes of other titles ("a" vs "a b") stay distinguishable. The
node reached by the EOT edge is terminal and annotated with the doc_id, and
the terminal nodes are exactly the leaves below the root.

The trie is flat arrays with one entry per node. Node ids follow the file's
depth-first order: a node's children are consecutive, in ascending token
order, and get their ids when the node is visited, so every child id is
larger than its parent's. A built and a loaded trie hold the same arrays.
The arrays are read-only, so decode-time reads need no synchronization.

The file (version 2) holds those arrays as they are: after the header, the
node and title counts, then little-endian u32 blocks of every node's child
count, first child id and height and of the edge token into every node but
the root, the length in code points of each terminal's doc_id in node order,
the doc_ids' concatenated UTF-8 text, and a CRC-32 of all the bytes before
it. A load reads each block with one array read and checks the layout with
array operations, the heights too, so a save or load runs no per-node loop.
The doc_ids must be non-empty and distinct, one array test and one set.
Version 2 is the one format a load accepts: a file of any other version,
such as version 1's stream of per-node records, fails at its header with a
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
_VERSION = 2


class TitleTrie:
    """Node i's children are ids `first_child[i]` .. `first_child[i] +
    child_count[i] - 1`; `token[i]` labels the edge into node i (-1 at the
    root), `height[i]` counts the edges on the longest path from node i down
    to a terminal node, and `doc_ids[i]` is a terminal node's doc_id, else
    None."""

    root = 0

    def __init__(self, first_child: np.ndarray, child_count: np.ndarray, token: np.ndarray,
                 height: np.ndarray, doc_ids: list[Optional[str]]):
        """Adopt the per-node arrays (np.intp) and doc_ids; the arrays
        become read-only."""
        self.first_child, self.child_count, self.token, self.height = (
            first_child, child_count, token, height)
        for array in (first_child, child_count, token, height):
            array.flags.writeable = False  # shared by every decoder
        self.doc_ids = doc_ids
        self.title_count = len(doc_ids) - doc_ids.count(None)

    @classmethod
    def from_records(cls, records: Iterable[tuple[Optional[str], Sequence[int]]]
                     ) -> "TitleTrie":
        """The trie of the pre-order records (doc_id or None, ascending child
        tokens) of every node, the root's first. One Python step per node,
        which on small tries costs less than array passes."""
        records = iter(records)
        token, visited, counts, terminals = [-1], [], [], []
        pending = [cls.root]
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
        first_child = np.empty(n, dtype=np.intp)
        first_child[visited] = 1 + np.cumsum(counts) - counts
        child_count = np.empty(n, dtype=np.intp)
        child_count[visited] = counts
        parents = np.repeat(visited, counts).tolist()  # of nodes 1 .. n - 1
        height = [0] * n
        for child in range(n - 1, 0, -1):  # children before parents
            parent, h = parents[child - 1], height[child] + 1
            if h > height[parent]:
                height[parent] = h
        doc_ids = [None] * n
        for node, doc_id in terminals:
            doc_ids[node] = doc_id
        return cls(first_child, child_count, np.array(token, dtype=np.intp),
                   np.array(height, dtype=np.intp), doc_ids)

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
        return cls.from_records(_sorted_records(sorted(paths.items())))

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
        return self.doc_ids == other.doc_ids and all(
            np.array_equal(mine, theirs) for mine, theirs in
            zip((self.first_child, self.child_count, self.token, self.height),
                (other.first_child, other.child_count, other.token, other.height)))

    # -- persistence -------------------------------------------------------

    def to_bytes(self, vocab: Vocab) -> bytes:
        """The version 2 file: the per-node arrays as u32 blocks, the
        terminals' doc_ids as lengths and one text, then a CRC-32."""
        buf = bytearray()
        binio.write_header(buf, _MAGIC, _VERSION, vocab.checksum())
        binio.write_u32(buf, self.node_count)
        binio.write_u32(buf, self.title_count)
        binio.write_u32s(buf, self.child_count)
        binio.write_u32s(buf, self.first_child)
        binio.write_u32s(buf, self.height)
        binio.write_u32s(buf, self.token[1:])
        doc_ids = list(compress(self.doc_ids, (self.token == EOT).tolist()))
        binio.write_u32s(buf, np.fromiter(map(len, doc_ids), np.intp, len(doc_ids)))
        binio.write_str(buf, "".join(doc_ids))
        binio.write_crc32(buf)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes, vocab: Vocab, name: str = "<bytes>") -> "TitleTrie":
        r = binio.Reader(data, name)
        r.header(_MAGIC, (_VERSION,), "trie", vocab.checksum())
        node_count = r.u32()
        title_count = r.u32()
        if not 0 < 16 * node_count <= r.remaining():  # four u32 blocks and the CRC
            raise DataError(f"{name}: node count {node_count} does not fit the file")
        child_count = r.u32s(node_count).astype(np.intp)
        first_child = r.u32s(node_count).astype(np.intp)
        height = r.u32s(node_count).astype(np.intp)
        token = np.empty(node_count, dtype=np.intp)
        token[0] = -1
        token[1:] = r.u32s(node_count - 1)
        lengths = r.u32s(title_count)
        text = r.str_()
        r.finish(crc32=True)
        terminals = _check_layout(name, len(vocab), first_child, child_count, height, token,
                                  title_count)
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
        return cls(first_child, child_count, token, height, doc_ids)

    def save(self, path, vocab: Vocab) -> None:
        binio.write_atomic(path, (self.to_bytes(vocab),))

    @classmethod
    def load(cls, path, vocab: Vocab) -> "TitleTrie":
        return cls.from_bytes(binio.read_bytes(path), vocab, name=str(path))


def _check_layout(name: str, vocab_size: int, first_child: np.ndarray,
                  child_count: np.ndarray, height: np.ndarray, token: np.ndarray,
                  title_count: int) -> np.ndarray:
    """Raise unless the arrays are a trie, and return its terminal node ids.
    The child ranges, each after its parent, tile the ids 1 .. n - 1, so
    each node but the root has one parent, with a smaller id; siblings'
    tokens ascend strictly and are in the vocabulary; the EOT edges lead to
    exactly the leaves below the root, one per title; and each height is 0
    at a leaf, else one more than the largest of the node's children, which
    in a tree fixes every height."""
    n = len(child_count)
    total = int(child_count.sum())
    if total != n - 1:
        raise DataError(f"{name}: child counts sum to {total}, not node count - 1 ({n - 1})")
    ends = first_child + child_count
    if first_child.min() < 1 or ends.max() > n:
        raise DataError(f"{name}: a child range leaves the node ids")
    parents = np.flatnonzero(child_count)
    if (first_child[parents] <= parents).any():
        raise DataError(f"{name}: a child range does not follow its parent")
    parents = parents[np.argsort(first_child[parents])]  # in the order of their ranges
    starts = first_child[parents]
    # n - 1 children in all, inside the ids 1 .. n - 1: ranges that each
    # start where the one before ends tile those ids, and a gap would mean
    # an overlap elsewhere.
    if (starts[1:] != ends[parents[:-1]]).any():
        raise DataError(f"{name}: child ranges overlap")
    is_first = np.zeros(n, dtype=bool)
    is_first[starts] = True
    if n > 1 and (token[1:].max() >= vocab_size
                  or ((token[2:] <= token[1:-1]) & ~is_first[2:]).any()):
        raise DataError(f"{name}: child tokens out of order or out of the vocabulary")
    terminals = np.flatnonzero(token == EOT)
    if len(terminals) != title_count:
        raise DataError(f"{name}: {len(terminals)} terminal nodes, but {title_count} titles")
    if not np.array_equal(terminals, np.flatnonzero(child_count[1:] == 0) + 1):
        raise DataError(f"{name}: a terminal node has children or a leaf is not terminal")
    # The ranges, in order, are consecutive runs of the ids 1 .. n - 1.
    if height[child_count == 0].any() or (
            height[parents] != 1 + np.maximum.reduceat(height[1:], starts - 1)).any():
        raise DataError(f"{name}: a height is not one more than its children's largest")
    return terminals


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
