"""Spans and counters around the public entry points of the `gere` modules.

Nothing under `src/` changes: `instrument` replaces module functions and
class methods with timing wrappers, and `Tracer.restore` puts the originals
back. Coarse layers (decoding stages, model calls, training steps, file IO)
are recorded as spans (name, phase, op id, start, end, parent, self time) and
kept in memory until `write_spans`. Hot calls (the `nn` graph ops and
`TitleTrie.children_of`, thousands per claim) are only aggregated, but they
still count as children, so a span's self time is its duration minus the time
of every traced call inside it. `Tensor` constructions are counted, not timed.

Phases: "setup" (work before the first operation), "op" (the timed
operations; `op` holds the update step or claim id) and "check" (output
verification). Per-layer metrics read the "op" phase per operation and the
"setup" phase per set-up; file IO and scoring are read per call.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

NN_OPS = ("matmul", "add", "mul", "layer_norm", "gelu", "softmax_last", "gather", "reshape",
          "transpose", "cross_entropy", "masked_mean", "assemble_candidates",
          "assemble_inputs")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op = None
        self.spans: list[tuple] = []
        self.stats: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()  # (phase, name) -> count
        self._stack: list[list] = []  # [child_ns, span_id] per active call
        self._next_id = 0
        self._patches: list[tuple] = []
        self._beam_steps = 0
        self._embedded: set = set()
        self._models: dict = {}  # id -> model, held so that no id is reused in the run

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def wrap(self, owner, attr: str, name: str, span: bool = True, note=None) -> None:
        """Replace owner.attr with a timing wrapper; note(args, kwargs, result)
        records extra counters after each call."""
        raw = owner.__dict__[attr]
        target = getattr(owner, attr)
        stack, stats = self._stack, self.stats

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent
            if span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = target(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                key = (self.phase, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if span:
                    self.spans.append((span_id, parent, name, self.phase, self.op,
                                       t0, t1, dur - frame[0]))
            if note is not None:
                note(args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- derived values ---------------------------------------------------------

    def total_ms(self, phase: str, name: str) -> float:
        return self.stats.get((phase, name), [0, 0, 0])[1] / 1e6

    def self_ms(self, phase: str, name: str) -> float:
        return self.stats.get((phase, name), [0, 0, 0])[2] / 1e6

    def calls(self, phase: str, name: str) -> int:
        return self.stats.get((phase, name), [0, 0, 0])[0]

    def per_call_ms(self, name: str) -> float:
        """Mean duration of `name` over every phase of the run."""
        calls = sum(v[0] for (_, n), v in self.stats.items() if n == name)
        total = sum(v[1] for (_, n), v in self.stats.items() if n == name)
        return total / 1e6 / calls if calls else 0.0

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "name", "phase", "op", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[5]):
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every timed layer."""
    from gere import checkpoint, corpus, decoding, evalkit, model, nn, tokenizer, training, trie

    def on_decode_title(args, kwargs, result):
        prefix_len = len(args[2] if len(args) > 2 else kwargs["prefix"])
        tracer.count("model.decode_step_title.prefix_tokens", prefix_len)
        tracer._beam_steps = max(tracer._beam_steps, prefix_len)

    def on_beam(args, kwargs, result):
        doc_ids, _, tokens = result
        tracer.count("decoding.beam.steps", tracer._beam_steps)
        tracer.count("decoding.beam.titles", len(doc_ids))
        tracer.count("decoding.beam.useful_tokens", len(tokens) - 1)  # BOS is not decoded
        tracer._beam_steps = 0

    def on_encode_sentence(args, kwargs, result):
        tracer._models[id(args[0])] = args[0]
        key = (id(args[0]), result.source)
        if key in tracer._embedded:
            tracer.count("decoding.candidates.repeats")
        tracer._embedded.add(key)

    def on_candidates(args, kwargs, result):
        tracer.count("decoding.candidates.embedded", len(result))

    def on_evidence(args, kwargs, result):
        tracer.count("decoding.evidence.chosen", len(result[0]))

    def on_train_step(args, kwargs, result):
        examples = args[1]
        tracer.count("training.batch_examples", len(examples))
        tracer.count("training.batch_tokens", sum(ex.cost for ex in examples))

    tracer.wrap(corpus, "load_wiki_pages", "corpus.load")
    tracer.wrap(corpus, "load_claims", "corpus.load")
    tracer.wrap(tokenizer, "build_vocab", "tokenizer.build_vocab")
    tracer.wrap(tokenizer.Vocab, "encode", "tokenizer.encode", span=False)
    tracer.wrap(trie.TitleTrie, "build", "trie.build")
    tracer.wrap(trie.TitleTrie, "save", "trie.save")
    tracer.wrap(trie.TitleTrie, "load", "trie.load")
    tracer.wrap(trie.TitleTrie, "children_of", "trie.children_of", span=False)
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.wrap(evalkit, "evaluate", "evalkit.evaluate")

    tracer.wrap(model.Seq2SeqModel, "encode_claim", "model.encode_claim")
    tracer.wrap(model.Seq2SeqModel, "decode_step_title", "model.decode_step_title",
                note=on_decode_title)
    tracer.wrap(model.Seq2SeqModel, "encode_sentence", "model.encode_sentence",
                note=on_encode_sentence)
    tracer.wrap(model.Seq2SeqModel, "decode_step_evidence", "model.decode_step_evidence")
    tracer.wrap(decoding, "retrieve", "decoding.retrieve")
    tracer.wrap(decoding, "beam_search_titles", "decoding.beam", note=on_beam)
    tracer.wrap(decoding, "collect_candidates", "decoding.candidates", note=on_candidates)
    tracer.wrap(decoding, "greedy_evidence", "decoding.evidence", note=on_evidence)

    tracer.wrap(training.Trainer, "train_step_encoded", "training.train_step",
                note=on_train_step)
    tracer.wrap(training.Trainer, "loss_graph", "training.loss_graph")
    tracer.wrap(training, "make_batches", "training.make_batches")
    tracer.wrap(nn, "backward", "nn.backward")
    tracer.wrap(nn, "clip_gradients", "nn.clip_gradients")
    tracer.wrap(nn.Adam, "step", "nn.adam_step")
    for op in NN_OPS:
        tracer.wrap(nn, op, f"nn.{op}", span=False)

    tensor_init = nn.Tensor.__init__

    def counted_init(self, *args, **kwargs):
        tracer.counts[(tracer.phase, "nn.tensors")] += 1
        tensor_init(self, *args, **kwargs)

    tracer._patches.append((nn.Tensor, "__init__", tensor_init))
    nn.Tensor.__init__ = counted_init


def per_layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, op_kind: str,
                      overhead_ratio: float) -> dict[str, float]:
    """Per-layer values by the scopes in the module docstring. op_kind is
    "update" or "claim"; a layer the workload never calls reads 0."""
    def op(name):  # ms per operation
        return tracer.total_ms("op", name) / n_ops

    def op_calls(name):
        return tracer.calls("op", name) / n_ops

    def op_count(name):
        return tracer.counts[("op", name)] / n_ops

    def setup_ms(name):
        return tracer.total_ms("setup", name) / n_setups

    def share(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("model.decode_step_title", "model.encode_sentence",
                 "model.decode_step_evidence", "trie.children_of"):
        out[f"{name}.calls"] = op_calls(name)
        out[f"{name}.ms"] = op(name)
    out["model.decode_step_title.prefix_tokens"] = op_count("model.decode_step_title.prefix_tokens")
    out["model.encode_claim.ms"] = op("model.encode_claim")

    retrieve_ms = tracer.total_ms("op", "decoding.retrieve")
    embedded = tracer.counts[("op", "decoding.candidates.embedded")]
    out["decoding.beam.ms"] = op("decoding.beam")
    out["decoding.beam.self_ms"] = tracer.self_ms("op", "decoding.beam") / n_ops
    out["decoding.beam.share"] = share(tracer.total_ms("op", "decoding.beam"), retrieve_ms)
    out["decoding.beam.steps_per_claim"] = op_count("decoding.beam.steps")
    out["decoding.beam.titles_per_claim"] = op_count("decoding.beam.titles")
    out["decoding.beam.useful_share"] = share(
        tracer.counts[("op", "decoding.beam.useful_tokens")],
        tracer.calls("op", "model.decode_step_title"))
    out["decoding.candidates.ms"] = op("decoding.candidates")
    out["decoding.candidates.per_claim"] = op_count("decoding.candidates.embedded")
    out["decoding.candidates.repeat_share"] = share(
        tracer.counts[("op", "decoding.candidates.repeats")],
        tracer.calls("op", "model.encode_sentence"))
    out["decoding.candidates.chosen_share"] = share(
        tracer.counts[("op", "decoding.evidence.chosen")], embedded)
    out["decoding.evidence.ms"] = op("decoding.evidence")
    out["decoding.evidence.steps_per_claim"] = op_calls("model.decode_step_evidence")

    for name in ("build", "save", "load"):
        out[f"trie.{name}_ms"] = setup_ms(f"trie.{name}")

    for name in ("backward", "clip_gradients", "adam_step"):
        out[f"nn.{name}.ms"] = op(f"nn.{name}")
    for name in NN_OPS:
        out[f"nn.{name}.calls"] = op_calls(f"nn.{name}")
        out[f"nn.{name}.ms"] = op(f"nn.{name}")
    tensors = op_count("nn.tensors")
    out["nn.tensors_per_update"] = tensors if op_kind == "update" else 0.0
    out["nn.tensors_per_claim"] = tensors if op_kind == "claim" else 0.0

    out["training.loss_graph.ms"] = op("training.loss_graph")
    out["training.make_batches.ms"] = op("training.make_batches")
    out["training.batch_examples"] = op_count("training.batch_examples")
    out["training.batch_tokens"] = op_count("training.batch_tokens")

    out["checkpoint.load_ms"] = tracer.per_call_ms("checkpoint.load")
    out["checkpoint.save_ms"] = tracer.per_call_ms("checkpoint.save")
    out["corpus.load_ms"] = setup_ms("corpus.load")
    out["tokenizer.build_vocab_ms"] = setup_ms("tokenizer.build_vocab")
    out["tokenizer.encode.calls"] = tracer.calls("setup", "tokenizer.encode") / n_setups
    out["tokenizer.encode.ms"] = setup_ms("tokenizer.encode")
    out["evalkit.evaluate_ms"] = tracer.per_call_ms("evalkit.evaluate")
    out["trace.overhead_ratio"] = overhead_ratio
    return out
