"""Train a tiny retriever from scratch and watch it memorize its claims.

Joint objective: label-smoothed cross-entropy over linearized title sequences
plus step cross-entropy over the dynamic evidence vocabulary (candidate
sentences of the gold documents, and a learned end-of-evidence embedding).
Runs in under a minute on a laptop CPU.
"""

import numpy as np

from gere import ModelConfig, Seq2SeqModel, Trainer, build_vocab, gold_targets, verifiable
from gere.synthetic import make_claims, make_corpus
from gere.training import encode_example

rng = np.random.default_rng(1)
corpus = make_corpus(rng, n_docs=30, sentence_range=(3, 5))
claims = verifiable(make_claims(rng, corpus, n_claims=40))
vocab = build_vocab(corpus, claims, 5000)

config = ModelConfig(vocab_size=len(vocab), d_model=48, n_heads=4,
                     n_layers_enc=2, n_layers_dec=2, d_ff=128,
                     max_positions=96, seed=0)
model = Seq2SeqModel(config, vocab_checksum=vocab.checksum())
print(f"model: {model.num_params} parameters, vocab {len(vocab)}\n")

total_updates = 300
trainer = Trainer(model, vocab, total_updates=total_updates, peak_lr=2e-3, max_tokens=512)
examples = [encode_example(c, gold_targets(c, corpus), corpus, vocab,
                           config.max_positions) for c in claims]

print(f"{'step':>5s} {'loss_title':>11s} {'loss_evid':>10s} {'grad_norm':>10s} {'lr':>9s}")
for batch in trainer.batches(examples):
    stats = trainer.train_step_encoded(batch)
    if stats.step % 50 == 0 or stats.step == 1:
        print(f"{stats.step:5d} {stats.loss_title:11.4f} {stats.loss_evidence:10.4f} "
              f"{stats.grad_norm:10.3f} {stats.learning_rate:9.2e}")

print("\nthe schedule warmed up over the first 10% of updates and decayed to zero;")
print("losses head toward zero because the model memorizes the tiny claim set.")
