"""FEVER-format wiki pages and claims, plus gold training-target derivation.

Both file formats are JSON lines. A wiki record carries `id` and `lines`
("index<TAB>sentence" entries separated by newlines); a claim record carries
`id`, `claim`, `label` and `evidence` (a list of annotation groups, each
element [annotation_id, evidence_id, page_id, sentence_index]).

A Corpus is treated as immutable once loaded and is safe for unsynchronized
concurrent reads; separate files may be loaded in parallel and merged since
content is keyed by doc_id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import binio
from .errors import DataError

# Escape sequences used by FEVER page identifiers; applied to titles only,
# doc_ids stay raw so file joins remain exact.
_ESCAPES = (("-LRB-", "("), ("-RRB-", ")"), ("-COLON-", ":"))


def title_from_doc_id(doc_id: str) -> str:
    """Display title for a page identifier (underscores to spaces, escapes decoded)."""
    title = doc_id.replace("_", " ")
    for escape, char in _ESCAPES:
        title = title.replace(escape, char)
    return title


class Label(str, Enum):
    SUPPORTS = "SUPPORTS"
    REFUTES = "REFUTES"
    NOT_ENOUGH_INFO = "NOT ENOUGH INFO"


_LABELS = {label.value: label for label in Label}


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    # Ordered (index, text); indices strictly increasing. Index 0 may carry
    # empty text (FEVER dumps contain blank lines) and is preserved.
    sentences: tuple[tuple[int, str], ...]

    def has_sentence(self, index: int) -> bool:
        return any(i == index for i, _ in self.sentences)


@dataclass(frozen=True)
class Claim:
    claim_id: int
    text: str
    label: Label
    # Each group is an ordered tuple of (doc_id, sentence_index) pairs.
    evidence_groups: tuple[tuple[tuple[str, int], ...], ...]


@dataclass(frozen=True)
class GoldTargets:
    title_sequence: tuple[str, ...]
    evidence_sequence: tuple[tuple[str, int], ...]


@dataclass
class Corpus:
    documents: dict[str, Document] = field(default_factory=dict)
    title_index: dict[str, str] = field(default_factory=dict)

    def add(self, doc: Document) -> None:
        if doc.doc_id in self.documents:
            raise DataError(f"duplicate doc_id {doc.doc_id!r}")
        if not doc.title:
            raise DataError(f"doc_id {doc.doc_id!r} has an empty title")
        if doc.title in self.title_index:
            raise DataError(
                f"title {doc.title!r} already used by doc_id "
                f"{self.title_index[doc.title]!r} (new: {doc.doc_id!r})"
            )
        self.documents[doc.doc_id] = doc
        self.title_index[doc.title] = doc.doc_id

    def __len__(self) -> int:
        return len(self.documents)

    def candidates(self, doc_ids: Iterable[str]) -> list[tuple[str, int, str]]:
        """(doc_id, index, text) of every sentence of the given documents, ordered
        by (doc_id, index): the evidence decoder's dynamic vocabulary, built the
        same way for training targets and for inference."""
        out = []
        for doc_id in sorted(set(doc_ids)):
            doc = self.documents.get(doc_id)
            if doc is None:
                raise DataError(f"doc_id {doc_id!r} not in corpus")
            out.extend((doc_id, index, text) for index, text in doc.sentences)
        return out

    def titles(self) -> list[tuple[str, str]]:
        """(title, doc_id) pairs, sorted by doc_id for determinism."""
        return [(doc.title, doc_id) for doc_id, doc in sorted(self.documents.items())]


def _iter_records(path) -> Iterator[tuple[str, dict]]:
    p = Path(path)
    files = sorted(q for q in p.iterdir() if q.suffix == ".jsonl") if p.is_dir() else [p]
    if not files:
        raise DataError(f"{p}: directory contains no .jsonl files")
    for file in files:
        yield from binio.read_jsonl(file)


def claim_id_of(record: dict, key: str, where: str) -> int:
    """The claim id a record holds under `key`: a JSON integer, never a bool."""
    if key not in record:
        raise DataError(f"{where}: record lacks {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _parse_sentences(lines: str, where: str) -> tuple[tuple[int, str], ...]:
    sentences: list[tuple[int, str]] = []
    prev = -1
    for entry in lines.split("\n"):
        if entry == "":
            continue
        parts = entry.split("\t")
        try:
            index = int(parts[0])
        except ValueError:
            raise DataError(f"{where}: sentence entry {entry!r} lacks an integer index") from None
        if index <= prev:
            raise DataError(f"{where}: sentence indices not strictly increasing at {index}")
        prev = index
        # Real FEVER rows append tab-separated link fields after the text; ignored.
        sentences.append((index, parts[1] if len(parts) > 1 else ""))
    return tuple(sentences)


def load_wiki_pages(path) -> Corpus:
    """Load line-delimited wiki records from a file or directory of .jsonl files."""
    corpus = Corpus()
    for where, record in _iter_records(path):
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            raise DataError(f"{where}: missing or empty 'id'")
        lines = record.get("lines", "")
        if not isinstance(lines, str):
            raise DataError(f"{where}: 'lines' must be a string")
        document = Document(doc_id=doc_id, title=title_from_doc_id(doc_id),
                            sentences=_parse_sentences(lines, where))
        try:
            corpus.add(document)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return corpus


def save_wiki_pages(corpus: Corpus, path) -> None:
    """Serialize back to the wiki line format (sorted by doc_id; round-trips)."""
    records = []
    for doc_id in sorted(corpus.documents):
        lines = "\n".join(f"{i}\t{text}" for i, text in corpus.documents[doc_id].sentences)
        records.append({"id": doc_id, "lines": lines})
    binio.write_jsonl(path, records)


def _parse_evidence(raw, where: str) -> tuple[tuple[tuple[str, int], ...], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise DataError(f"{where}: 'evidence' must be a list of groups")
    groups: list[tuple[tuple[str, int], ...]] = []
    for group in raw:
        if not isinstance(group, list):
            raise DataError(f"{where}: evidence group is not a list")
        pairs: list[tuple[str, int]] = []
        for element in group:
            if not isinstance(element, list) or len(element) < 4:
                raise DataError(f"{where}: evidence element {element!r} malformed")
            page, index = element[2], element[3]
            if page is None:
                continue
            if (not isinstance(page, str) or isinstance(index, bool)
                    or not isinstance(index, int) or index < 0):
                raise DataError(f"{where}: evidence element {element!r} malformed")
            pairs.append((page, index))
        if pairs:
            groups.append(tuple(pairs))
    return tuple(groups)


def load_claims(path, corpus: Optional[Corpus] = None) -> list[Claim]:
    """Load claim records; with a corpus, validate that gold evidence resolves."""
    claims: list[Claim] = []
    first_at: dict[int, str] = {}  # claim_id -> where it was first read
    for where, record in _iter_records(path):
        claim_id = claim_id_of(record, "id", where)
        first = first_at.setdefault(claim_id, where)
        if first != where:
            raise DataError(f"{where}: duplicate claim id {claim_id} (first at {first})")
        text = record.get("claim")
        if not isinstance(text, str):
            raise DataError(f"{where}: 'claim' must be a string")
        raw_label = record.get("label")
        label = _LABELS.get(raw_label) if isinstance(raw_label, str) else None
        if label is None:
            raise DataError(f"{where}: unknown label {raw_label!r}")
        if label is Label.NOT_ENOUGH_INFO:
            groups: tuple = ()  # NEI carries no retrievable gold evidence
        else:
            groups = _parse_evidence(record.get("evidence"), where)
        claim = Claim(claim_id=claim_id, text=text, label=label, evidence_groups=groups)
        if corpus is not None:
            for group in claim.evidence_groups:
                for doc_id, index in group:
                    doc = corpus.documents.get(doc_id)
                    if doc is None:
                        raise DataError(f"{where}: evidence doc_id {doc_id!r} not in corpus")
                    if not doc.has_sentence(index):
                        raise DataError(f"{where}: no sentence {index} in doc {doc_id!r}")
        claims.append(claim)
    return claims


def gold_targets(claim: Claim, corpus: Optional[Corpus] = None) -> GoldTargets:
    """Flatten annotation groups into a single ordered target sequence.

    The first group's pairs keep their annotation order; pairs from later
    groups are appended unless already present. Titles follow the first
    occurrence of each doc_id. With a corpus supplied, every doc_id must
    resolve; otherwise titles are derived from the doc_id alone.
    """
    if claim.label is Label.NOT_ENOUGH_INFO:
        raise ValueError(f"claim {claim.claim_id} is NOT ENOUGH INFO; no gold targets exist")
    evidence: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for group in claim.evidence_groups:
        for pair in group:
            if pair not in seen:
                seen.add(pair)
                evidence.append(pair)
    titles: list[str] = []
    seen_docs: set[str] = set()
    for doc_id, _ in evidence:
        if doc_id in seen_docs:
            continue
        seen_docs.add(doc_id)
        if corpus is not None:
            doc = corpus.documents.get(doc_id)
            if doc is None:
                raise DataError(f"claim {claim.claim_id}: gold doc_id {doc_id!r} not in corpus")
            titles.append(doc.title)
        else:
            titles.append(title_from_doc_id(doc_id))
    return GoldTargets(title_sequence=tuple(titles), evidence_sequence=tuple(evidence))


def verifiable(claims: Iterable[Claim]) -> list[Claim]:
    """Claims that carry gold evidence (label != NOT ENOUGH INFO)."""
    return [c for c in claims if c.label is not Label.NOT_ENOUGH_INFO]
