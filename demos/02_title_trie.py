"""The title prefix tree: legal continuations, persistence, memory accounting.

The trie stores every corpus title as a token path closed by an end-of-title
edge, so "alpha" and "alpha hill" coexist. During decoding it answers "which
tokens may legally extend this prefix".
"""

import tempfile
from pathlib import Path

import numpy as np

from gere import build_vocab
from gere.synthetic import make_corpus
from gere.tokenizer import EOT
from gere.trie import TitleTrie

rng = np.random.default_rng(3)
corpus = make_corpus(rng, n_docs=40, sentence_range=(2, 3))
vocab = build_vocab(corpus, [], 5000)
trie = TitleTrie.build(corpus.titles(), vocab)

total_tokens = sum(len(vocab.encode(t)) + 1 for t, _ in corpus.titles())
print(f"{trie.title_count} titles, {trie.node_count} trie nodes "
      f"(bound: 1 + {total_tokens} without sharing)\n")

title, doc_id = corpus.titles()[0]
tokens = vocab.encode(title)
print(f"walking {title!r}:")
for i in range(len(tokens) + 1):
    allowed = trie.allowed_next(tokens[:i])
    names = ["<eot>" if t == EOT else vocab.tokens[t] for t in sorted(allowed)]
    prefix = " ".join(vocab.tokens[t] for t in tokens[:i]) or "(root)"
    print(f"  after {prefix!r}: {len(allowed)} continuations {names[:6]}")
print(f"  resolve(full path + EOT) -> {trie.resolve(tokens + [EOT])!r}")

print(f"\noff-trie prefix -> {trie.allowed_next([vocab.ids.get('zzz', 4)])!r}")

with tempfile.TemporaryDirectory(prefix="gere_demo_") as workdir:
    path = Path(workdir) / "titles.trie"
    trie.save(path, vocab)
    loaded = TitleTrie.load(path, vocab)
    print(f"\npersisted {path.stat().st_size} bytes, reloaded equal: {loaded == trie}")
print(f"byte-stable rebuild: {trie.to_bytes(vocab) == loaded.to_bytes(vocab)}")
