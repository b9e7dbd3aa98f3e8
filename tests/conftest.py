import numpy as np
import pytest

from gere import model as gmodel
from gere.corpus import Claim, Corpus, Document, Label, title_from_doc_id
from gere.model import ModelConfig, Seq2SeqModel
from gere.tokenizer import build_vocab


def make_doc(doc_id, texts):
    return Document(doc_id=doc_id, title=title_from_doc_id(doc_id),
                    sentences=tuple(enumerate(texts)))


@pytest.fixture
def tiny_corpus():
    corpus = Corpus()
    corpus.add(make_doc("Alpha_hill", [
        "key0 alpha hill rises early .",
        "key1 alpha hill holds two peaks .",
        "key2 alpha hill was mapped late .",
    ]))
    corpus.add(make_doc("Alpha_hill_-LRB-film-RRB-", [
        "",
        "key3 the film about alpha hill won prizes .",
    ]))
    corpus.add(make_doc("Beta_ridge", [
        "key4 beta ridge faces north .",
        "key5 beta ridge connects to alpha hill .",
    ]))
    return corpus


@pytest.fixture
def tiny_claims():
    return [
        Claim(1, "the record confirms key0 regarding alpha hill",
              Label.SUPPORTS, ((("Alpha_hill", 0),),)),
        Claim(2, "the record denies key1 key4 regarding alpha hill and beta ridge",
              Label.REFUTES, ((("Alpha_hill", 1), ("Beta_ridge", 0)),)),
        Claim(3, "the record confirms key3 regarding the alpha hill film",
              Label.SUPPORTS, ((("Alpha_hill_-LRB-film-RRB-", 1),),)),
        Claim(4, "nothing verifies gamma valley at all",
              Label.NOT_ENOUGH_INFO, ()),
    ]


@pytest.fixture
def tiny_vocab(tiny_corpus, tiny_claims):
    return build_vocab(tiny_corpus, tiny_claims, 500)


def small_config(vocab_size, **overrides):
    base = dict(vocab_size=vocab_size, d_model=16, n_heads=2, n_layers_enc=1,
                n_layers_dec=1, d_ff=32, max_positions=64, seed=11)
    base.update(overrides)
    return ModelConfig(**base)


def twin(model):
    """A model over the same parameter arrays as `model`, with an empty
    sentence memo: the reference for a result that `model` may serve from
    its memo."""
    return Seq2SeqModel(model.config, model.vocab_checksum, model.dtype,
                        arrays={name: t.data for name, t in model.params.items()})


def spy_sentence_rows(monkeypatch) -> list:
    """Record the rows `model.encode` gets for the sentence encoder, in order."""
    rows = []
    encode = gmodel.encode

    def spy(model, name, ids):
        if name == "sent_enc":
            rows.extend(tuple(row) for row in ids)
        return encode(model, name, ids)

    monkeypatch.setattr(gmodel, "encode", spy)
    return rows


@pytest.fixture
def tiny_model(tiny_vocab):
    cfg = small_config(len(tiny_vocab))
    return Seq2SeqModel(cfg, vocab_checksum=tiny_vocab.checksum())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
