"""Corpus ingestion: FEVER-style wiki pages, claims, and gold target derivation.

Builds a small synthetic dataset, writes it in the FEVER line formats, loads
it back, and shows how multi-group annotations flatten into one ordered
training target per claim.
"""

import tempfile
from pathlib import Path

import numpy as np

from gere import build_vocab, gold_targets, load_claims, load_wiki_pages, verifiable
from gere.synthetic import make_claims, make_corpus, write_dataset

rng = np.random.default_rng(7)
corpus = make_corpus(rng, n_docs=8, sentence_range=(2, 4))
claims = make_claims(rng, corpus, n_claims=5, nei_fraction=0.2)

with tempfile.TemporaryDirectory(prefix="gere_demo_") as workdir:
    wiki_path, claims_path = write_dataset(corpus, claims, Path(workdir))
    print(f"wrote {wiki_path} and {claims_path}\n")

    corpus = load_wiki_pages(wiki_path)
    claims = load_claims(claims_path, corpus)

print(f"{len(corpus)} documents; first three titles:")
for title, doc_id in corpus.titles()[:3]:
    print(f"  {title!r:45s} doc_id={doc_id!r}")

print(f"\n{len(claims)} claims ({len(verifiable(claims))} verifiable):")
for claim in claims:
    print(f"  [{claim.label.value:15s}] {claim.text[:70]}")

print("\ngold targets (titles + ordered evidence) for verifiable claims:")
for claim in verifiable(claims)[:3]:
    targets = gold_targets(claim, corpus)
    print(f"  claim {claim.claim_id}: titles={list(targets.title_sequence)}")
    print(f"            evidence={list(targets.evidence_sequence)}")

vocab = build_vocab(corpus, claims, max_size=5000)
print(f"\nvocabulary: {len(vocab)} tokens (ids 0-5 reserved for specials)")
print(f"sample: {vocab.tokens[6:14]}")
