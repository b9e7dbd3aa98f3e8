"""Synthetic FEVER-shaped corpora and claims for desk-scale experiments.

Documents get multi-word titles drawn from a small word pool (plenty of
shared prefixes, some titles extending other titles, a few parenthesised
FEVER-style identifiers). Each sentence carries a unique keyword so templated
claims determine their gold targets unambiguously.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import binio
from .corpus import Claim, Corpus, Document, Label, save_wiki_pages, title_from_doc_id
from .tokenizer import tokenize

_SYLLABLES = ("ba", "do", "ka", "lu", "mi", "no", "pe", "ra", "su", "ti",
              "vo", "ze", "fa", "gi", "hu", "qa")
_PAREN_FRACTION = 0.1  # titles given a parenthesised FEVER-style identifier
_BLANK_FIRST_FRACTION = 0.1  # documents whose sentence 0 is blank


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    pool: list[str] = []
    seen = set()
    while len(pool) < size:
        n_syllables = int(rng.integers(2, 4))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES),
                                                                n_syllables))
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def make_doc_ids(rng: np.random.Generator, n: int, pool_size: int = 80,
                 max_words: int = 4) -> list[str]:
    """Unique FEVER-style page identifiers whose decoded titles have unique
    token sequences (a requirement of the title trie)."""
    pool = _word_pool(rng, pool_size)
    doc_ids: list[str] = []
    seen_tokens: set[tuple[str, ...]] = set()
    while len(doc_ids) < n:
        if doc_ids and rng.random() < 0.15:
            # Extend an existing title by one word: exercises prefix-of-title.
            base = title_from_doc_id(doc_ids[int(rng.integers(0, len(doc_ids)))])
            title = f"{base} {pool[int(rng.integers(0, len(pool)))]}"
        else:
            n_words = int(rng.integers(1, max_words + 1))
            words = [pool[int(i)] for i in rng.integers(0, len(pool), n_words)]
            title = " ".join(words)
        if rng.random() < _PAREN_FRACTION:
            title = f"{title} ({pool[int(rng.integers(0, len(pool)))]})"
        key = tuple(tokenize(title))
        if key in seen_tokens:
            continue
        seen_tokens.add(key)
        doc_ids.append(title.replace("(", "-LRB-").replace(")", "-RRB-").replace(" ", "_"))
    return doc_ids


def sentence_keyword(doc_index: int, sentence_index: int) -> str:
    return f"key{doc_index}x{sentence_index}"


def make_corpus(rng: np.random.Generator, n_docs: int,
                sentence_range: tuple[int, int] = (3, 8), **doc_id_kwargs) -> Corpus:
    """Corpus of n_docs documents with sentence_range sentences each; some
    documents begin with a blank sentence 0, as real FEVER dumps do."""
    corpus = Corpus()
    for d, doc_id in enumerate(make_doc_ids(rng, n_docs, **doc_id_kwargs)):
        title = title_from_doc_id(doc_id)
        n_sentences = int(rng.integers(sentence_range[0], sentence_range[1] + 1))
        sentences = []
        for j in range(n_sentences):
            if j == 0 and rng.random() < _BLANK_FIRST_FRACTION:
                sentences.append((0, ""))
                continue
            sentences.append(
                (j, f"{sentence_keyword(d, j)} states that {title} holds in case {j} ."))
        corpus.add(Document(doc_id=doc_id, title=title, sentences=tuple(sentences)))
    return corpus


def make_claims(rng: np.random.Generator, corpus: Corpus, n_claims: int,
                docs_range: tuple[int, int] = (1, 2),
                sents_range: tuple[int, int] = (1, 3),
                nei_fraction: float = 0.0) -> list[Claim]:
    """Templated claims naming their gold sentences' keywords and gold titles.

    Each claim cites docs_range gold documents and sents_range gold sentences
    in total (every cited document contributes at least one sentence); the
    gold annotation is a single ordered group.
    """
    doc_items = sorted(corpus.documents.items())
    doc_index = {doc_id: d for d, (doc_id, _) in enumerate(doc_items)}
    claims: list[Claim] = []
    for i in range(n_claims):
        claim_id = 1 + i
        if rng.random() < nei_fraction:
            pool = _word_pool(rng, 6)
            claims.append(Claim(claim_id=claim_id,
                                text=f"nothing verifies {' '.join(pool[:4])} at all",
                                label=Label.NOT_ENOUGH_INFO, evidence_groups=()))
            continue
        n_docs = int(rng.integers(docs_range[0], docs_range[1] + 1))
        picked = rng.choice(len(doc_items), size=n_docs, replace=False)
        chosen_docs = [doc_items[int(p)][1] for p in picked]
        lo = max(sents_range[0], n_docs)
        hi = max(sents_range[1], n_docs)
        n_sents = int(rng.integers(lo, hi + 1))
        pairs: list[tuple[str, int]] = []
        for k, doc in enumerate(chosen_docs):
            non_blank = [idx for idx, text in doc.sentences if text]
            budget = 1 if k < len(chosen_docs) - 1 else n_sents - len(pairs)
            budget = min(max(budget, 1), len(non_blank))
            sel = sorted(int(s) for s in rng.choice(len(non_blank), size=budget,
                                                    replace=False))
            pairs.extend((doc.doc_id, non_blank[s]) for s in sel)
        keywords = " ".join(
            sentence_keyword(doc_index[doc_id], idx) for doc_id, idx in pairs)
        titles = " and ".join(dict.fromkeys(
            corpus.documents[doc_id].title for doc_id, _ in pairs))
        label = Label.SUPPORTS if claim_id % 2 else Label.REFUTES
        verb = "confirms" if label is Label.SUPPORTS else "denies"
        claims.append(Claim(
            claim_id=claim_id,
            text=f"the record {verb} {keywords} regarding {titles}",
            label=label,
            evidence_groups=(tuple(pairs),),
        ))
    return claims


def claims_to_records(claims: list[Claim]) -> list[dict]:
    records = []
    for i, claim in enumerate(claims):
        if claim.label is Label.NOT_ENOUGH_INFO:
            evidence = [[[1000 + i, 2000 + i, None, None]]]
        else:
            evidence = [
                [[1000 + i, 2000 + i + j, doc_id, index] for j, (doc_id, index)
                 in enumerate(group)]
                for group in claim.evidence_groups
            ]
        records.append({"id": claim.claim_id, "claim": claim.text,
                        "label": claim.label.value, "evidence": evidence})
    return records


def write_dataset(corpus: Corpus, claims: list[Claim], out_dir) -> tuple[Path, Path]:
    """Write wiki.jsonl and claims.jsonl in the FEVER line formats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wiki_path = out / "wiki.jsonl"
    claims_path = out / "claims.jsonl"
    save_wiki_pages(corpus, wiki_path)
    binio.write_jsonl(claims_path, claims_to_records(claims))
    return wiki_path, claims_path
