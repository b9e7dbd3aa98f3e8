"""Word-level tokenizer and vocabulary shared by claim text, titles and sentences.

No subword model: at desk scale a word-level vocabulary keeps the title trie
small and the model debuggable. Out-of-vocabulary words map to UNK; titles
containing UNK stay generable because the trie stores token ids and
end-of-title disambiguation uses the trie path, not the surface string.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from typing import Sequence

from . import binio
from .errors import DataError

# Reserved ids; EOE is not a vocabulary token (the evidence decoder scores it
# against a learned embedding, outside the token vocabulary).
PAD, BOS, EOS, SEP, UNK, EOT = 0, 1, 2, 3, 4, 5
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>", "<eot>")

# Word-character runs, plus every other non-space character as its own token.
# Punctuation must survive as tokens: after FEVER escape decoding, "Foo (film)"
# and "Foo film" would otherwise collide in the trie.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word and single-punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


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

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def encode(self, text: str) -> list[int]:
        """Token ids for text; unknown words map to UNK. No BOS/EOS added."""
        ids = self.ids
        return [ids.get(tok, UNK) for tok in tokenize(text)]

    def checksum(self) -> int:
        """CRC-32 of the token table; persisted files validate against it."""
        return zlib.crc32("\n".join(self.tokens).encode("utf-8")) & 0xFFFFFFFF


def build_vocab(corpus, claims, max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over corpus titles, sentences and claim text.

    Ties break lexicographically; the result is deterministic for fixed inputs.
    """
    if max_size < len(SPECIAL_TOKENS):
        raise ValueError(f"max_size must be >= {len(SPECIAL_TOKENS)}, got {max_size}")
    counts: Counter[str] = Counter()
    for doc in corpus.documents.values():
        counts.update(tokenize(doc.title))
        for _, text in doc.sentences:
            counts.update(tokenize(text))
    for claim in claims:
        counts.update(tokenize(claim.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(SPECIAL_TOKENS)]]
    return Vocab(SPECIAL_TOKENS + tuple(keep))


def save_vocab(vocab: Vocab, path) -> None:
    """One token per line; the line number is the token id."""
    binio.write_atomic(path, (("\n".join(vocab.tokens) + "\n").encode("utf-8"),))


def load_vocab(path) -> Vocab:
    tokens = binio.read_text(path).splitlines()
    if len(tokens) < len(SPECIAL_TOKENS):
        raise DataError(f"{path}: vocab file too short ({len(tokens)} lines)")
    return Vocab(tokens)
