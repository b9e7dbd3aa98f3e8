"""Constrained generation: title beam search and greedy evidence decoding.

Every emitted title is forced through the prefix tree, so outputs are always
real corpus titles; the evidence decoder then picks sentence identifiers from
the retrieved documents until its end-of-evidence embedding wins.
"""

import numpy as np

from gere import (
    DecodeParams, ModelConfig, Seq2SeqModel, Trainer, build_vocab,
    collect_candidates, beam_search_titles, gold_targets, greedy_evidence,
    retrieve, verifiable,
)
from gere.synthetic import make_claims, make_corpus
from gere.training import encode_example
from gere.trie import TitleTrie

rng = np.random.default_rng(11)
corpus = make_corpus(rng, n_docs=25, sentence_range=(3, 5))
claims = verifiable(make_claims(rng, corpus, n_claims=30))
vocab = build_vocab(corpus, claims, 5000)
trie = TitleTrie.build(corpus.titles(), vocab)

config = ModelConfig(vocab_size=len(vocab), d_model=48, n_heads=4, n_layers_enc=2,
                     n_layers_dec=2, d_ff=128, max_positions=96, seed=5)
model = Seq2SeqModel(config, vocab_checksum=vocab.checksum())

trainer = Trainer(model, vocab, total_updates=400, peak_lr=2e-3, max_tokens=512)
examples = [encode_example(c, gold_targets(c, corpus), corpus, vocab,
                           config.max_positions) for c in claims]
for batch in trainer.batches(examples):
    trainer.train_step_encoded(batch)
print("trained 400 updates\n")

params = DecodeParams(beam_size=5, max_titles=3, max_evidence_steps=5)
for claim in claims[:5]:
    targets = gold_targets(claim, corpus)
    enc = model.encode_claim(vocab.encode(claim.text))
    doc_ids, log_prob, _ = beam_search_titles(model, enc, trie, params)
    candidates = collect_candidates(model, vocab, doc_ids, corpus)
    evidence, _ = greedy_evidence(model, enc, candidates, params)
    gold_docs = list(dict.fromkeys(d for d, _ in targets.evidence_sequence))
    print(f"claim {claim.claim_id}: {claim.text[:64]}")
    print(f"  titles    {doc_ids}  (log prob {log_prob:.2f}; gold {gold_docs})")
    print(f"  evidence  {evidence}")
    print(f"  gold      {list(targets.evidence_sequence)}")

# The trie constraint holds for any checkpoint, trained or not.
wild = Seq2SeqModel(ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                n_layers_enc=1, n_layers_dec=1, d_ff=32,
                                max_positions=96, seed=123))
result = retrieve(wild, vocab, claims[0], trie, corpus, params)
valid = set(corpus.documents)
print(f"\nuntrained checkpoint still emits only corpus titles: "
      f"{set(result.titles) <= valid} {result.titles}")
