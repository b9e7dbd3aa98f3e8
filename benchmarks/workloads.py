"""The benchmark's workloads: train-a2, retrieve-trained and retrieve-random.

Each workload has four parts:

- prepare: inputs from the seed, written to files; not timed.
- setup: what a user pays before the first update or claim, in the order
  `gere build-trie` then `gere train` / `gere retrieve` pay it (load corpus and
  claims, build and save vocab and trie, load them back, load a checkpoint or
  initialise a model, encode examples); timed and repeated.
- run: the timed operations, one closed-loop caller, each timed alone.
  `between`, if given, is called before every operation but the first; the
  time it takes is not part of the window.
- check: verifies the outputs; not timed.

Library calls go through module attributes (`gtrie.TitleTrie.build`, not an
imported name) so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gere import checkpoint as gckpt
from gere import corpus as gcorpus
from gere import decoding, evalkit, nn, synthetic, training
from gere import model as gmodel
from gere import tokenizer as gtok
from gere import trie as gtrie

import fixture


@dataclass
class Outcome:
    """What one pass of the timed operations produced."""
    op_ms: list[float] = field(default_factory=list)
    op_t: list[float] = field(default_factory=list)  # perf_counter() at each op's start
    window_s: float = 0.0
    failed: int = 0
    outputs: list = field(default_factory=list)  # per op, in order
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ms)


def _digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _load_inputs(wiki, claims_path, work: Path, with_claims_in_vocab: bool, max_vocab: int):
    """The shared front of `gere build-trie` and the pipeline commands."""
    corpus = gcorpus.load_wiki_pages(wiki)
    claims = gcorpus.load_claims(claims_path, corpus)
    vocab = gtok.build_vocab(corpus, claims if with_claims_in_vocab else [], max_vocab)
    gtok.save_vocab(vocab, work / "vocab.txt")
    trie = gtrie.TitleTrie.build(corpus.titles(), vocab)
    trie.save(work / "titles.trie", vocab)
    vocab = gtok.load_vocab(work / "vocab.txt")
    trie = gtrie.TitleTrie.load(work / "titles.trie", vocab)
    return corpus, claims, vocab, trie


# -- train-a2 -------------------------------------------------------------------


class TrainA2:
    """A fresh A2-shaped model trained for a fixed number of updates, ending
    with the final checkpoint write, as `gere train` does."""

    name = "train-a2"
    op_kind = "update"
    ELASTICITY = 0.75  # speed.py; README.md, "Noise and the reference speed"
    UPDATES_PER_BUDGET_S = 6  # updates = 6 x --seconds: ~1 run length at ~150 ms/update
    MAX_TOKENS = 256
    PEAK_LR = 2e-3

    def prepare(self, work: Path, seed: int, seconds: float, root: Path) -> dict:
        # Every seed trains on the fixture's A2 data (generator seed 42); the
        # seed draws the model's initialisation and the example order. Data
        # drawn from the seed changed the vocabulary, and so the size of the
        # output layer, by up to 6 %.
        recipe = fixture.RECIPE
        rng = np.random.default_rng(recipe["corpus_seed"])
        corpus = synthetic.make_corpus(rng, recipe["n_docs"],
                                       sentence_range=tuple(recipe["sentence_range"]))
        claims = synthetic.make_claims(rng, corpus, recipe["n_claims"],
                                       docs_range=tuple(recipe["docs_range"]),
                                       sents_range=tuple(recipe["sents_range"]))
        wiki, claims_path = synthetic.write_dataset(corpus, claims, work)
        return {"wiki": wiki, "claims": claims_path, "work": work, "seed": seed,
                "updates": max(1, round(self.UPDATES_PER_BUDGET_S * seconds))}

    def setup(self, prep: dict) -> dict:
        corpus, claims, vocab, _ = _load_inputs(prep["wiki"], prep["claims"], prep["work"],
                                                True, 50000)
        config = gmodel.ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4,
                                    n_layers_enc=2, n_layers_dec=2, d_ff=256,
                                    max_positions=128, seed=prep["seed"])
        model = gmodel.Seq2SeqModel(config, vocab_checksum=vocab.checksum())
        trainer = training.Trainer(model, vocab, total_updates=prep["updates"],
                                   peak_lr=self.PEAK_LR)
        examples = [training.encode_example(c, gcorpus.gold_targets(c, corpus), corpus, vocab,
                                            config.max_positions)
                    for c in gcorpus.verifiable(claims)]
        return {"trainer": trainer, "examples": examples,
                "final": prep["work"] / "checkpoint_final.gereckpt"}

    def run(self, state: dict, deadline_s: float, limit: int | None, tracer,
            between=None) -> Outcome:
        trainer, examples = state["trainer"], state["examples"]
        total = trainer.total_updates if limit is None else min(limit, trainer.total_updates)
        out = Outcome()
        start = perf_counter()
        paused = 0.0
        epoch = 0
        while len(out.op_ms) < total:
            order = trainer.shuffle_order(len(examples), epoch)
            for batch in training.make_batches([examples[i] for i in order], self.MAX_TOKENS):
                if between is not None and out.op_ms:
                    paused += between()
                if tracer is not None:
                    tracer.op = trainer.step_count + 1
                t0 = perf_counter()
                out.op_t.append(t0)
                try:
                    stats = trainer.train_step_encoded(batch)
                except Exception as exc:  # a failed update is counted, not fatal
                    out.op_ms.append((perf_counter() - t0) * 1e3)
                    out.failed += 1
                    out.failures.append(f"update {trainer.step_count + 1}: {exc!r}")
                else:
                    out.op_ms.append((perf_counter() - t0) * 1e3)
                    out.outputs.append(stats.as_dict())
                    if not math.isfinite(stats.loss_total):
                        out.failed += 1
                        out.failures.append(f"update {stats.step}: loss {stats.loss_total}")
                if len(out.op_ms) >= total:
                    break
            epoch += 1
        gckpt.save_checkpoint(state["final"], trainer.model, trainer.optimizer,
                              trainer.step_count)
        out.window_s = perf_counter() - start - paused
        return out

    def check(self, state: dict, out: Outcome) -> tuple[dict, dict]:
        trainer = state["trainer"]
        stats = out.outputs
        loaded, opt_state, step = gckpt.load_checkpoint(
            state["final"], expected_vocab_checksum=trainer.vocab.checksum())
        params = trainer.model.params
        opt = trainer.optimizer
        checks = {
            "updates in order": [s["step"] for s in stats] == list(range(1, len(stats) + 1)),
            "losses finite": all(math.isfinite(s["loss_total"]) for s in stats),
            "loss fell": bool(stats) and stats[-1]["loss_total"] < stats[0]["loss_total"],
            "checkpoint reloads bit-identically": (
                step == trainer.step_count and opt_state["t"] == opt.t
                and all(np.array_equal(loaded.params[n].data, params[n].data)
                        and np.array_equal(opt_state["m"][n], opt.m[n])
                        and np.array_equal(opt_state["v"][n], opt.v[n]) for n in params)),
        }
        info = {
            "loss_at_end": stats[-1]["loss_total"] if stats else float("nan"),
            "loss_at_start": stats[0]["loss_total"] if stats else float("nan"),
            "outputs_digest": _digest(stats),
            "digest_of": f"TrainStats of all {len(stats)} updates",
            "checkpoint.bytes": state["final"].stat().st_size,
        }
        return checks, info


# -- retrieval ----------------------------------------------------------------------


def _sound(result, corpus) -> bool:
    """Every title is in the corpus and unique; evidence is unique, exists and
    comes only from the retrieved documents."""
    titles = set(result.titles)
    docs = corpus.documents
    return (titles <= docs.keys() and len(titles) == len(result.titles)
            and len(set(result.evidence)) == len(result.evidence)
            and all(d in titles and docs[d].has_sentence(i) for d, i in result.evidence))


def _retrieve_loop(state: dict, deadline_s: float, limit: int | None, tracer, between,
                   block: int, min_ops: int) -> Outcome:
    """Claims from state["job"] in whole blocks (each block holds the
    workload's full mix), until the deadline has passed and at least min_ops
    claims are done; or exactly `limit` claims."""
    out = Outcome()
    start = perf_counter()
    paused = 0.0
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif (i >= min_ops and i % block == 0
              and perf_counter() - start - paused >= deadline_s):
            break
        if between is not None and i:
            paused += between()
        claim, model, params, vocab, trie, corpus = state["job"](i)
        if tracer is not None:
            tracer.op = claim.claim_id
        t0 = perf_counter()
        out.op_t.append(t0)
        try:
            result = decoding.retrieve(model, vocab, claim, trie, corpus, params)
        except Exception as exc:  # a failed claim is counted, not fatal
            out.op_ms.append((perf_counter() - t0) * 1e3)
            out.failed += 1
            out.failures.append(f"claim {claim.claim_id}: {exc!r}")
            out.outputs.append(None)
        else:
            out.op_ms.append((perf_counter() - t0) * 1e3)
            out.outputs.append(result)
            if not _sound(result, corpus):
                out.failed += 1
                out.failures.append(f"claim {claim.claim_id}: unsound {result.to_record()}")
        i += 1
    out.window_s = perf_counter() - start - paused
    return out


def _resave_identical(path: Path, model, opt_state, step, scratch: Path) -> bool:
    """A loaded checkpoint written back gives the same bytes."""
    optimizer = None
    if opt_state is not None:
        optimizer = nn.Adam(model.params)
        optimizer.load_state_dict(opt_state)
    gckpt.save_checkpoint(scratch, model, optimizer, step)
    return scratch.read_bytes() == path.read_bytes()


class RetrieveTrained:
    """A2 claims against the fully trained A2 checkpoint: 6 x --seconds of
    them, 120 of the 300 in a 20 s run, drawn to match in cost from seed to
    seed."""

    name = "retrieve-trained"
    op_kind = "claim"
    ELASTICITY = 0.75  # speed.py; README.md, "Noise and the reference speed"
    PARAMS = decoding.DecodeParams(beam_size=5, max_titles=5, max_evidence_steps=10)
    CLAIMS_PER_BUDGET_S = 6  # about one run length at ~170 ms a claim

    def prepare(self, work: Path, seed: int, seconds: float, root: Path) -> dict:
        fixture_path, manifest = fixture.ensure_fixture(root)
        corpus = gcorpus.load_wiki_pages(fixture_path / "wiki.jsonl")
        claims = gcorpus.load_claims(fixture_path / "claims.jsonl", corpus)
        vocab = gtok.load_vocab(fixture_path / "vocab.txt")
        n = max(1, round(self.CLAIMS_PER_BUDGET_S * seconds))
        return {"fixture": fixture_path, "manifest": manifest, "work": work,
                "order": self._order(claims, corpus, vocab, seed, n)}

    @staticmethod
    def _order(claims, corpus, vocab, seed: int, n: int) -> list[int]:
        """n claim ids, seeded. The claims, sorted by a cost key (gold title
        tokens, then claim words: the two that follow a claim's latency most
        closely), are cut into n strata of neighbours (at most one per claim;
        past that it starts over); one claim is drawn from each, and the
        draws are shuffled. Every seed so runs nearly the same mix of cheap
        and dear claims, and the spread of the latency figures across seeds
        is the machine's rather than the mix's."""
        def cost(claim):
            titles = gcorpus.gold_targets(claim, corpus).title_sequence
            return (sum(len(vocab.encode(t)) for t in titles), len(claim.text.split()),
                    claim.claim_id)

        rng = np.random.default_rng(seed)
        keyed = sorted(claims, key=cost)
        order: list[int] = []
        while len(order) < n:
            strata = np.array_split(np.arange(len(keyed)), min(n - len(order), len(keyed)))
            picks = [int(rng.choice(stratum)) for stratum in strata]
            order += [keyed[i].claim_id for i in rng.permutation(picks)]
        return order

    def setup(self, prep: dict) -> dict:
        fx = prep["fixture"]
        corpus, claims, vocab, trie = _load_inputs(fx / "wiki.jsonl", fx / "claims.jsonl",
                                                   prep["work"], True, 50000)
        ckpt = fx / fixture.CHECKPOINT
        model, opt_state, step = gckpt.load_checkpoint(ckpt, expected_vocab_checksum=vocab.checksum())
        by_id = {c.claim_id: c for c in claims}
        order = [by_id[i] for i in prep["order"]]

        def job(i):
            return order[i], model, self.PARAMS, vocab, trie, corpus

        return {"claims": claims, "model": model, "opt_state": opt_state, "step": step,
                "ckpt": ckpt, "manifest": prep["manifest"], "work": prep["work"], "job": job,
                "n": len(order)}

    def run(self, state: dict, deadline_s: float, limit: int | None, tracer,
            between=None) -> Outcome:
        """All the drawn claims (or the first `limit`), whatever the deadline."""
        return _retrieve_loop(state, deadline_s, state["n"] if limit is None else limit,
                              tracer, between, 1, 0)

    def check(self, state: dict, out: Outcome) -> tuple[dict, dict]:
        done = {r.claim_id: r.to_record() for r in out.outputs if r is not None}
        golds = [c for c in state["claims"] if c.claim_id in done]
        report = evalkit.evaluate(list(done.values()), golds)
        records = [r.to_record() for r in out.outputs if r is not None]
        checks = {
            f"doc F1 >= {fixture.MIN_DOC_F1}": report["doc"]["f1"] >= fixture.MIN_DOC_F1,
            "checkpoint re-save is byte-identical": _resave_identical(
                state["ckpt"], state["model"], state["opt_state"], state["step"],
                state["work"] / "resaved.gereckpt"),
        }
        info = {
            "doc_f1": report["doc"]["f1"],
            "sent_f1": report["sent"]["f1"],
            "distinct_claims": len(done),
            "outputs_digest": _digest(records),
            "digest_of": f"predictions for all {len(records)} claims of the seeded draw",
            "checkpoint.bytes": state["ckpt"].stat().st_size,
            "fixture": state["manifest"],
        }
        return checks, info


class RetrieveRandom:
    """A5-shaped: 8-document corpora, each against its own d_model-16 random
    checkpoint, under both beam ranking modes, claims of 3-6 corpus words."""

    name = "retrieve-random"
    op_kind = "claim"
    ELASTICITY = 1.0  # speed.py; README.md, "Noise and the reference speed"
    INSTANCES = 32  # corpus and checkpoint pairs; per-corpus work varies by +-20 %
    CLAIMS = 64  # per instance
    BLOCK = 2 * INSTANCES  # every instance in both ranking modes
    MIN_OPS = 3 * BLOCK  # the outputs digest covers the first 192 claims

    def prepare(self, work: Path, seed: int, seconds: float, root: Path) -> dict:
        rng = np.random.default_rng(seed)
        # Weight scales are stratified over A5's range [0.05, 6.0), so every
        # run sees the same spread of peaked and flat models.
        u = rng.random(self.INSTANCES)
        scales = rng.permutation(0.05 + 5.95 * (np.arange(self.INSTANCES) + u) / self.INSTANCES)
        dirs = []
        for k, scale in enumerate(scales):
            corpus = synthetic.make_corpus(rng, 8, sentence_range=(2, 3), pool_size=20,
                                           max_words=2)
            vocab = gtok.build_vocab(corpus, [], 500)
            words = [t for t in vocab.tokens[6:] if t.isalpha()]
            claims = [gcorpus.Claim(i + 1, " ".join(words[int(rng.integers(len(words)))]
                                                    for _ in range(3 + int(rng.integers(4)))),
                                    gcorpus.Label.NOT_ENOUGH_INFO, ())
                      for i in range(self.CLAIMS)]
            dirs.append(work / f"a5-{k:02d}")
            synthetic.write_dataset(corpus, claims, dirs[-1])
            cfg = gmodel.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                     n_layers_enc=1, n_layers_dec=1, d_ff=32,
                                     max_positions=64, seed=seed + k)
            model = gmodel.Seq2SeqModel(cfg, vocab_checksum=vocab.checksum())
            for p in model.params.values():
                p.data = rng.normal(0.0, scale, p.data.shape).astype(np.float32)
            gckpt.save_checkpoint(dirs[-1] / "random.gereckpt", model)
        return {"dirs": dirs}

    def setup(self, prep: dict) -> dict:
        instances = []
        for d in prep["dirs"]:
            corpus, claims, vocab, trie = _load_inputs(d / "wiki.jsonl", d / "claims.jsonl", d,
                                                       False, 500)
            model, _, _ = gckpt.load_checkpoint(d / "random.gereckpt",
                                                expected_vocab_checksum=vocab.checksum())
            instances.append((claims, model, vocab, trie, corpus))
        modes = [decoding.DecodeParams(beam_size=5, max_titles=3, max_evidence_steps=3,
                                       length_normalize=normalize)
                 for normalize in (False, True)]
        k = len(instances)

        def job(i):  # every block of 2k claims covers each instance in both modes
            claims, model, vocab, trie, corpus = instances[i % k]
            return claims[(i // k) % len(claims)], model, modes[(i // k) % 2], vocab, trie, corpus

        return {"instances": instances, "dirs": prep["dirs"], "job": job}

    def run(self, state: dict, deadline_s: float, limit: int | None, tracer,
            between=None) -> Outcome:
        return _retrieve_loop(state, deadline_s, limit, tracer, between, self.BLOCK,
                              self.MIN_OPS)

    def check(self, state: dict, out: Outcome) -> tuple[dict, dict]:
        first = [r.to_record() for r in out.outputs[: self.MIN_OPS] if r is not None]
        resaved = all(_resave_identical(d / "random.gereckpt", inst[1], None, 0,
                                        d / "resaved.gereckpt")
                      for d, inst in zip(state["dirs"], state["instances"]))
        checks = {"checkpoint re-save is byte-identical": resaved}
        info = {
            "title_counts_seen": sorted({len(r.titles) for r in out.outputs if r is not None}),
            "outputs_digest": _digest(first),
            "digest_of": f"predictions for the first {len(first)} claims",
            "checkpoint.bytes": (state["dirs"][0] / "random.gereckpt").stat().st_size,
        }
        return checks, info


WORKLOADS = {w.name: w for w in (TrainA2(), RetrieveTrained(), RetrieveRandom())}
