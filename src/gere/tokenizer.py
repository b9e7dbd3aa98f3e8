"""Word-level tokenizer and vocabulary shared by claim text, titles and sentences.

No subword model: at desk scale a word-level vocabulary keeps the title trie
small and the model debuggable. Out-of-vocabulary words map to UNK; titles
containing UNK stay generable because the trie stores token ids and
end-of-title disambiguation uses the trie path, not the surface string.

A token is, after lowercasing, a run of word characters or one other
non-space character. No token spans whitespace, so the unit of work is the
lowercased whitespace piece (`str.split()`), and `_piece_tokens` is the one
definition of a piece's tokens: the piece itself if it is all letters and
digits, else the regex's tokens of it. That yields exactly the regex's
tokens of the text, because in CPython's `re` the class `\\s` is
`str.isspace()` and `\\w` is `str.isalnum()` or `_`, on every code point
(the tests walk them all).

`build_vocab` counts pieces, one page at a time (its title and sentences
joined by `\\n`) and the claims in one pass, then credits each distinct
piece's count to its tokens. Joining keeps `str.lower` exact: `\\n` is
whitespace and neither cased nor case-ignorable, so no piece spans two texts
and the one context rule of lowercasing (a final capital sigma) sees each
text alone. `Vocab.encode` maps each piece through the vocab's piece table,
which holds one tuple of ids per distinct piece it has encoded.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from typing import Sequence

from . import binio
from .errors import DataError, at_least

# Reserved ids; EOE is not a vocabulary token (the evidence decoder scores it
# against a learned embedding, outside the token vocabulary).
PAD, BOS, EOS, SEP, UNK, EOT = 0, 1, 2, 3, 4, 5
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>", "<eot>")

# Word-character runs, plus every other non-space character as its own token.
# Punctuation must survive as tokens: after FEVER escape decoding, "Foo (film)"
# and "Foo film" would otherwise collide in the trie.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def _piece_tokens(piece: str) -> list[str]:
    """The tokens of one lowercased whitespace piece."""
    return [piece] if piece.isalnum() else _TOKEN_RE.findall(piece)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word and single-punctuation tokens."""
    return [tok for piece in text.lower().split() for tok in _piece_tokens(piece)]


class Vocab:
    """Immutable token table; ids are dense and specials occupy ids 0-5."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise DataError("vocab must start with the six reserved special tokens")
        self.tokens = tokens
        self.ids = {tok: i for i, tok in enumerate(tokens)}
        if len(self.ids) != len(tokens):
            dupes = [t for t, n in Counter(tokens).items() if n > 1]
            raise DataError(f"vocab contains duplicate tokens: {dupes[:5]}")
        # Lowercased whitespace piece -> its token ids, for every piece
        # `encode` has seen; valid because the token table never changes.
        self.pieces: dict[str, tuple[int, ...]] = {}
        # Text -> `encode(text)` for the sentences `encode_sentence` has
        # tokenized.
        self.encoded: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def encode(self, text: str) -> list[int]:
        """Token ids for text; unknown words map to UNK. No BOS/EOS added.
        The list is new on every call, so callers may extend it."""
        pieces = self.pieces
        out: list[int] = []
        for piece in text.lower().split():
            piece_ids = pieces.get(piece)
            if piece_ids is None:
                ids = self.ids
                piece_ids = pieces[piece] = tuple(ids.get(tok, UNK)
                                                  for tok in _piece_tokens(piece))
            out += piece_ids
        return out

    def encode_sentence(self, text: str) -> list[int]:
        """`encode(text)`, tokenized once per distinct text and kept in
        `encoded`: corpus sentences recur as candidates across claims, in
        training examples and in retrieval. Callers must not change the list."""
        ids = self.encoded.get(text)
        if ids is None:
            ids = self.encoded[text] = self.encode(text)
        return ids

    def checksum(self) -> int:
        """CRC-32 of the token table; persisted files validate against it."""
        return zlib.crc32("\n".join(self.tokens).encode("utf-8")) & 0xFFFFFFFF


def build_vocab(corpus, claims, max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over corpus titles, sentences and claim text.

    Ties break lexicographically; the result is deterministic for fixed inputs.
    Pieces are counted one page at a time, so no list of the corpus's tokens
    is ever held.
    """
    at_least("max_size", max_size, len(SPECIAL_TOKENS))
    pieces: Counter[str] = Counter()
    for doc in corpus.documents.values():
        pieces.update("\n".join([doc.title, *(text for _, text in doc.sentences)])
                      .lower().split())
    pieces.update("\n".join(claim.text for claim in claims).lower().split())
    counts: dict[str, int] = {}
    for piece, n in pieces.items():
        for tok in _piece_tokens(piece):
            counts[tok] = counts.get(tok, 0) + n
    # By token, then stably by count descending: the order (-count, token).
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocab(SPECIAL_TOKENS + tuple(ranked[: max_size - len(SPECIAL_TOKENS)]))


def save_vocab(vocab: Vocab, path) -> None:
    """One token per line; the line number is the token id."""
    binio.write_atomic(path, (("\n".join(vocab.tokens) + "\n").encode("utf-8"),))


def load_vocab(path) -> Vocab:
    tokens = binio.read_text(path).splitlines()
    if len(tokens) < len(SPECIAL_TOKENS):
        raise DataError(f"{path}: vocab file too short ({len(tokens)} lines)")
    return Vocab(tokens)
