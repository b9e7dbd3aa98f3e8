"""The benchmark's tracing hooks wrap names of the package by name; a deleted
or renamed entry point must fail here rather than in a traced benchmark run."""

from pathlib import Path

from gere import checkpoint, corpus, decoding, evalkit, model, nn, tokenizer, training, trie


def namespaces():
    modules = (checkpoint, corpus, decoding, evalkit, model, nn, tokenizer, training, trie)
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return list(modules) + classes


def test_tracing_instruments_and_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import tracing

    before = [(ns, dict(vars(ns))) for ns in namespaces()]
    encode_claim = model.Seq2SeqModel.__dict__["encode_claim"]
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert model.Seq2SeqModel.__dict__["encode_claim"] is not encode_claim
    finally:
        tracer.restore()
    for ns, attrs in before:
        assert vars(ns).keys() == attrs.keys(), ns
        assert all(vars(ns)[k] is v for k, v in attrs.items()), ns
