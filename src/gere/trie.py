"""Token-level prefix tree over corpus titles for constrained decoding.

Every title's token sequence is terminated by an explicit EOT edge, so titles
that are prefixes of other titles ("a" vs "a b") stay distinguishable. The
node reached by the EOT edge is terminal and annotated with the doc_id.
Immutable after build; decode-time reads need no synchronization beyond the
lazily filled, idempotent caches of sorted child tokens and subtree heights.
Both construction paths give every child a larger node id than its parent.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import binio
from .errors import DataError
from .tokenizer import EOT, Vocab

_MAGIC = b"GERETRIE"
_VERSION = 1


class TitleTrie:
    """Arena-backed trie: parallel lists of child maps and terminal doc_ids."""

    def __init__(self):
        self._children: list[dict[int, int]] = [{}]
        self._terminal: list[Optional[str]] = [None]
        self._child_tokens: dict[int, np.ndarray] = {}
        self._heights: Optional[list[int]] = None
        self.root = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, titles: Iterable[tuple[str, str]], vocab: Vocab) -> "TitleTrie":
        """Insert every (title, doc_id); insertion order is irrelevant."""
        trie = cls()
        titles = list(titles)
        if not titles:
            raise DataError("cannot build a title trie from zero titles")
        seen_docs: set[str] = set()
        for title, doc_id in titles:
            if doc_id in seen_docs:
                raise DataError(f"duplicate doc_id {doc_id!r} in trie build")
            seen_docs.add(doc_id)
            tokens = vocab.encode(title)
            if not tokens:
                raise DataError(f"title {title!r} (doc_id {doc_id!r}) tokenizes to nothing")
            trie._insert(tokens, title, doc_id)
        return trie

    def _insert(self, tokens: Sequence[int], title: str, doc_id: str) -> None:
        node = self.root
        for tok in tokens:
            child = self._children[node].get(tok)
            node = child if child is not None else self._new_child(node, tok)
        end = self._children[node].get(EOT)
        if end is not None:
            other = self._terminal[end]
            raise DataError(
                f"titles {title!r} ({doc_id!r}) and ({other!r}) share one token sequence"
            )
        end = self._new_child(node, EOT)
        self._terminal[end] = doc_id

    def _new_child(self, parent: int, token: int) -> int:
        self._children.append({})
        self._terminal.append(None)
        idx = len(self._children) - 1
        self._children[parent][token] = idx
        return idx

    # -- queries -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._children)

    @property
    def title_count(self) -> int:
        return sum(1 for t in self._terminal if t is not None)

    def walk(self, prefix: Sequence[int]) -> Optional[int]:
        """Node reached from the root by `prefix`, or None if off-trie."""
        node = self.root
        for tok in prefix:
            node = self._children[node].get(tok)
            if node is None:
                return None
        return node

    def children_of(self, node: int) -> dict[int, int]:
        return self._children[node]

    def child_tokens(self, node: int) -> np.ndarray:
        """The tokens of `node`'s children, ascending, as an int array (cached)."""
        tokens = self._child_tokens.get(node)
        if tokens is None:
            tokens = np.array(sorted(self._children[node]), dtype=np.intp)
            tokens.flags.writeable = False  # shared by every caller
            self._child_tokens[node] = tokens
        return tokens

    def height(self, node: int) -> int:
        """Edges on the longest path from `node` down to a terminal node, the
        EOT edge included; the root's height is the longest title plus one."""
        if self._heights is None:
            heights = [0] * len(self._children)
            for parent in reversed(range(len(self._children))):  # children before parents
                for child in self._children[parent].values():
                    heights[parent] = max(heights[parent], heights[child] + 1)
            self._heights = heights
        return self._heights[node]

    def terminal_doc(self, node: int) -> Optional[str]:
        return self._terminal[node]

    def allowed_next(self, prefix: Sequence[int]) -> set[int]:
        """Exact set of tokens continuing `prefix`; empty if prefix is off-trie."""
        node = self.walk(prefix)
        if node is None:
            return set()
        return set(self._children[node])

    def resolve(self, tokens: Sequence[int]) -> str:
        """doc_id for a complete token path ending in EOT."""
        node = self.walk(tokens)
        if node is None or self._terminal[node] is None:
            raise DataError(f"token path {list(tokens)} is not a complete title")
        return self._terminal[node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TitleTrie):
            return NotImplemented
        # Structural equality independent of arena layout.
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if self._terminal[a] != other._terminal[b]:
                return False
            ca, cb = self._children[a], other._children[b]
            if ca.keys() != cb.keys():
                return False
            stack.extend((ca[t], cb[t]) for t in ca)
        return True

    # -- persistence -------------------------------------------------------

    def to_bytes(self, vocab: Vocab) -> bytes:
        """Depth-first serialization with delta-encoded child token ids."""
        buf = bytearray()
        binio.write_header(buf, _MAGIC, _VERSION, vocab.checksum())
        binio.write_u32(buf, self.node_count)
        binio.write_u32(buf, self.title_count)
        # Pre-order DFS; children visited in ascending token-id order so the
        # byte stream is identical however the trie was built.
        stack = [self.root]
        while stack:
            node = stack.pop()
            doc_id = self._terminal[node]
            binio.write_u8(buf, 1 if doc_id is not None else 0)
            if doc_id is not None:
                binio.write_str(buf, doc_id)
            items = sorted(self._children[node].items())
            binio.write_uvarint(buf, len(items))
            prev = -1
            for tok, _ in items:
                binio.write_uvarint(buf, tok - prev)
                prev = tok
            stack.extend(child for _, child in reversed(items))
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes, vocab: Vocab, name: str = "<bytes>") -> "TitleTrie":
        r = binio.Reader(data, name)
        r.header(_MAGIC, _VERSION, "trie", vocab.checksum())
        node_count = r.u32()
        title_count = r.u32()
        if not 1 <= node_count <= (len(data) - r.pos) // 2:  # a node record takes >= 2 bytes
            raise DataError(f"{name}: node count {node_count} does not fit the file")
        trie = cls()
        trie._children = [{} for _ in range(node_count)]
        trie._terminal = [None] * node_count
        next_id = 1
        # Mirror of the writer's traversal: pop a node, read its record,
        # push its children reversed so the leftmost subtree comes next.
        pending = [trie.root]
        while pending:
            node = pending.pop()
            if r.u8():
                trie._terminal[node] = r.str_()
            n_children = r.uvarint()
            prev = -1
            children = trie._children[node]
            child_ids = []
            for _ in range(n_children):
                prev += r.uvarint()
                if next_id >= node_count:
                    raise DataError(f"{name}: more nodes than declared ({node_count})")
                children[prev] = next_id
                child_ids.append(next_id)
                next_id += 1
            pending.extend(reversed(child_ids))
        if next_id != node_count:
            raise DataError(f"{name}: node count mismatch ({next_id} read, {node_count} declared)")
        r.finish()
        if trie.title_count != title_count:
            raise DataError(f"{name}: title count mismatch")
        return trie

    def save(self, path, vocab: Vocab) -> None:
        binio.write_atomic(path, self.to_bytes(vocab))

    @classmethod
    def load(cls, path, vocab: Vocab) -> "TitleTrie":
        return cls.from_bytes(binio.read_bytes(path), vocab, name=str(path))
