"""Acceptance criteria A1-A8, one test per criterion.

Each test prints one `A# PASS/FAIL` line on the live terminal (bypassing
pytest capture) and asserts the criterion at its stated tolerance. A2 is the
heavy one: it trains a 200-document retriever for 2,000 updates through the
command-line pipeline and checks training-set retrieval quality end to end.
"""

import json
import time

import numpy as np
import pytest

from gere import nn
from gere.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from gere.cli import EXIT_OK, main
from gere.corpus import Claim, Label, gold_targets, load_claims, title_from_doc_id, verifiable
from gere.decoding import DecodeParams, beam_search_titles, read_predictions, retrieve
from gere.evalkit import doc_prf, fever_scores, sent_prf
from gere.model import ModelConfig, Seq2SeqModel
from gere.synthetic import make_claims, make_corpus, make_doc_ids, write_dataset
from gere.tokenizer import EOT, SPECIAL_TOKENS, Vocab, build_vocab, tokenize
from gere.training import Trainer, encode_example
from gere.trie import TitleTrie

from oracles import (
    BruteForcePrefixScanner, exhaustive_title_search, finite_difference_check,
    random_eval_dataset, score_dataset_bruteforce, train_step,
)


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# -- A1: trie vs brute-force oracle on a 10,000-title corpus ---------------------


def test_a1_trie_oracle(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    doc_ids = make_doc_ids(rng, 10_000, pool_size=300, max_words=5)
    titles = [(title_from_doc_id(d), d) for d in doc_ids]
    tokens = sorted({tok for title, _ in titles for tok in tokenize(title)})
    vocab = Vocab(SPECIAL_TOKENS + tuple(tokens))
    trie = TitleTrie.build(titles, vocab)

    seqs = [vocab.encode(title) for title, _ in titles]
    bound = 1 + sum(len(s) + 1 for s in seqs)
    oracle = BruteForcePrefixScanner(seqs)

    token_pool = np.array([vocab.ids[t] for t in tokens])
    mismatches = 0
    for q in range(1000):
        mode = q % 3
        if mode == 0:  # prefix of a real title (possibly full, possibly + EOT)
            seq = seqs[int(rng.integers(len(seqs)))]
            cut = int(rng.integers(0, len(seq) + 1))
            prefix = seq[:cut] + ([EOT] if cut == len(seq) and rng.random() < 0.3 else [])
        elif mode == 1:  # random tokens, mostly off-trie
            prefix = [int(token_pool[int(rng.integers(len(token_pool)))])
                      for _ in range(int(rng.integers(0, 5)))]
        else:  # real prefix with a perturbed tail token
            seq = seqs[int(rng.integers(len(seqs)))]
            cut = int(rng.integers(1, len(seq) + 1))
            prefix = list(seq[:cut])
            prefix[-1] = int(token_pool[int(rng.integers(len(token_pool)))])
        if trie.allowed_next(prefix) != oracle.allowed_next(prefix):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and trie.node_count <= bound and elapsed < 10.0
    report(capsys, "A1", ok,
           f"1000 prefixes over 10,000 titles, {mismatches} mismatches; "
           f"nodes {trie.node_count} <= bound {bound}; {elapsed:.1f}s (< 10s)")


# -- A2: overfit retrieval through the CLI pipeline -------------------------------


def test_a2_overfit_retrieval(tmp_path, capsys):
    start = time.monotonic()
    rng = np.random.default_rng(42)
    corpus = make_corpus(rng, 200, sentence_range=(3, 8))
    claims = make_claims(rng, corpus, 300, docs_range=(1, 2), sents_range=(1, 3))
    wiki, claims_path = write_dataset(corpus, claims, tmp_path)

    vocab_path = tmp_path / "vocab.txt"
    trie_path = tmp_path / "titles.trie"
    assert main(["build-trie", "--wiki", str(wiki), "--claims", str(claims_path),
                 "--vocab-out", str(vocab_path), "--trie-out", str(trie_path)]) == EXIT_OK

    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join([
        f"wiki={wiki}", f"claims={claims_path}", f"vocab={vocab_path}",
        f"trie={trie_path}", f"output_dir={out_dir}", "seed=0",
        "d_model=64", "n_heads=4", "n_layers_enc=2", "n_layers_dec=2",
        "d_ff=256", "max_positions=128",
        "train.total_updates=2000", "train.peak_lr=2e-3", "train.max_tokens=256",
        "train.checkpoint_every=0",
        "decode.beam_size=5", "decode.max_titles=5", "decode.max_evidence_steps=10",
    ]) + "\n")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK

    ckpt = out_dir / "checkpoint_final.gereckpt"
    pred_path = out_dir / "predictions.jsonl"
    assert main(["retrieve", "--config", str(cfg_path),
                 "--set", f"checkpoint={ckpt}",
                 "--set", f"predictions={pred_path}"]) == EXIT_OK

    golds = load_claims(claims_path)
    predictions = read_predictions(pred_path)
    f1 = doc_prf(predictions, golds).f1

    by_id = {rec["claim_id"]: rec for rec in predictions}
    exact = 0
    train_claims = verifiable(golds)
    for claim in train_claims:
        want = [[d, i] for d, i in gold_targets(claim, corpus).evidence_sequence]
        if by_id[claim.claim_id]["predicted_evidence"] == want:
            exact += 1
    exact_frac = exact / len(train_claims)
    elapsed = time.monotonic() - start
    ok = f1 >= 0.95 and exact_frac >= 0.90 and elapsed < 900
    report(capsys, "A2", ok,
           f"doc F1 {f1:.4f} (>= 0.95), evidence exact-sequence {exact_frac:.4f} "
           f"(>= 0.90), {elapsed:.0f}s (< 900s), "
           f"{len(train_claims)} training claims")


# -- A3: beam equals exhaustive enumeration ----------------------------------------


def test_a3_beam_oracle(capsys):
    start = time.monotonic()
    doc_ids = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma"]
    titles = [(title_from_doc_id(d), d) for d in doc_ids]
    tokens = sorted({tok for t, _ in titles for tok in tokenize(t)} | {"claim", "text"})
    vocab = Vocab(SPECIAL_TOKENS + tuple(tokens))
    trie = TitleTrie.build(titles, vocab)
    title_seqs = [(vocab.encode(t), d) for t, d in titles]

    agree = 0
    for seed in range(50):
        cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                          n_layers_enc=1, n_layers_dec=1, d_ff=32,
                          max_positions=64, seed=seed)
        model = Seq2SeqModel(cfg)
        enc = model.encode_claim(vocab.encode(f"claim text {tokens[seed % len(tokens)]}"))
        docs, log_prob, _ = beam_search_titles(model, enc, trie,
                                               DecodeParams(beam_size=16, max_titles=2))
        ranked = exhaustive_title_search(model, enc, title_seqs, max_titles=2)
        best_score, _, best_docs = ranked[0]
        agree += docs == best_docs and log_prob == best_score
    elapsed = time.monotonic() - start
    report(capsys, "A3", agree == 50,
           f"{agree}/50 initializations agree exactly with exhaustive search "
           f"({elapsed:.0f}s)")


# -- A4: gradient check ---------------------------------------------------------------


def test_a4_gradient_check(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    corpus = make_corpus(rng, 6, sentence_range=(2, 3), pool_size=20)
    claims = verifiable(make_claims(rng, corpus, 4))
    vocab = build_vocab(corpus, claims, 1000)
    # init_std=0.5 keeps the check point well conditioned for the pinned
    # epsilon: the residual stream must dwarf the 1e-3 perturbation.
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_layers_enc=2,
                      n_layers_dec=2, d_ff=32, max_positions=64, seed=7, init_std=0.5)
    model = Seq2SeqModel(cfg, dtype=np.float64)
    trainer = Trainer(model, vocab, total_updates=10)
    examples = [encode_example(c, gold_targets(c, corpus), corpus, vocab,
                               cfg.max_positions) for c in claims]

    def total():
        lt, le = trainer.loss_graph(examples)
        return float(nn.add(lt, le).data)

    lt, le = trainer.loss_graph(examples)
    nn.zero_grads(model.params)
    nn.backward(nn.add(lt, le))
    rels = finite_difference_check(model, total, n_samples=200, epsilon=1e-3,
                                   rng=np.random.default_rng(123))
    n_ok = sum(r <= 1e-4 for r in rels)
    elapsed = time.monotonic() - start
    report(capsys, "A4", n_ok >= 198,
           f"{n_ok}/200 sampled parameters within relative error 1e-4 "
           f"(>= 99%), worst {max(rels):.2e} ({elapsed:.0f}s)")


# -- A5: constraint soundness over 10,000 retrieve calls -----------------------------


def test_a5_constraint_soundness(capsys):
    """Random checkpoints (every tensor redrawn at a random scale, biases
    included) under both beam ranking modes. Soundness must hold on every
    call; the cardinality spread needs the length-normalized mode, because
    for an untrained model the default summed log-prob provably prefers the
    shortest legal sequence."""
    start = time.monotonic()
    rng = np.random.default_rng(55)
    corpus = make_corpus(rng, 8, sentence_range=(2, 3), pool_size=20, max_words=2)
    vocab = build_vocab(corpus, [], 500)
    trie = TitleTrie.build(corpus.titles(), vocab)
    words = [t for t in vocab.tokens[6:] if t.isalpha()]
    valid_docs = set(corpus.documents)

    def random_checkpoint(seed):
        cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                          n_layers_enc=1, n_layers_dec=1, d_ff=32,
                          max_positions=64, seed=seed)
        model = Seq2SeqModel(cfg)
        prng = np.random.default_rng(seed + 10_000)
        scale = float(prng.uniform(0.05, 6.0))
        for p in model.params.values():
            p.data = prng.normal(0.0, scale, p.data.shape).astype(np.float32)
        return model

    violations = 0
    cardinalities = set()
    n_models, per_mode = 40, 125
    for seed in range(n_models):
        model = random_checkpoint(seed)
        for normalize in (False, True):
            params = DecodeParams(beam_size=5, max_titles=3, max_evidence_steps=3,
                                  length_normalize=normalize)
            for i in range(per_mode):
                text = " ".join(words[int(rng.integers(len(words)))]
                                for _ in range(3 + int(rng.integers(4))))
                claim = Claim(i, text, Label.SUPPORTS, ((("unused", 0),),))
                result = retrieve(model, vocab, claim, trie, corpus, params)
                cardinalities.add(len(result.titles))
                if not set(result.titles) <= valid_docs:
                    violations += 1
                elif len(set(result.titles)) != len(result.titles):
                    violations += 1
                elif not {d for d, _ in result.evidence} <= set(result.titles):
                    violations += 1
                elif len(result.evidence) != len(set(result.evidence)):
                    violations += 1
    elapsed = time.monotonic() - start
    total = n_models * per_mode * 2
    ok = violations == 0 and len(cardinalities) >= 3
    report(capsys, "A5", ok,
           f"{total} retrieve calls (both ranking modes), {violations} constraint "
           f"violations; title-set cardinalities seen: {sorted(cardinalities)} "
           f"(>= 3 distinct); {elapsed:.0f}s")


# -- A6: metric kit equals the brute-force scorer --------------------------------------


def test_a6_metric_oracle(capsys):
    rng = np.random.default_rng(66)
    mismatches = 0
    fever_bound_violations = 0
    for _ in range(100):
        preds, golds = random_eval_dataset(rng, max_claims=20)
        want = score_dataset_bruteforce(preds, golds, max_evidence=5)
        doc = doc_prf(preds, golds)
        sent = sent_prf(preds, golds, 5)
        scores = fever_scores(preds, golds, 5)
        got = ((doc.precision, doc.recall, doc.f1),
               (sent.precision, sent.recall, sent.f1),
               scores.label_accuracy, scores.fever)
        expected = (tuple(want["doc"][k] for k in ("precision", "recall", "f1")),
                    tuple(want["sent"][k] for k in ("precision", "recall", "f1")),
                    want["la"], want["fever"])
        if got != expected:
            mismatches += 1
        if scores.fever > scores.label_accuracy:
            fever_bound_violations += 1

    # The three definition-forced FEVER rule cases.
    g1 = Claim(1, "c", Label.SUPPORTS, ((("A", 0), ("A", 1)),))
    full = {"claim_id": 1, "predicted_evidence": [["A", 0], ["A", 1]],
            "predicted_label": "SUPPORTS"}
    half = {"claim_id": 1, "predicted_evidence": [["A", 0]],
            "predicted_label": "SUPPORTS"}
    nei_gold = Claim(2, "c", Label.NOT_ENOUGH_INFO, ())
    nei_pred = {"claim_id": 2, "predicted_evidence": [],
                "predicted_label": "NOT ENOUGH INFO"}
    rules_ok = (fever_scores([full], [g1]).fever == 1.0
                and fever_scores([half], [g1]).label_accuracy == 1.0
                and fever_scores([half], [g1]).fever == 0.0
                and fever_scores([nei_pred], [nei_gold]).fever == 1.0)

    ok = mismatches == 0 and fever_bound_violations == 0 and rules_ok
    report(capsys, "A6", ok,
           f"100 random datasets: {mismatches} scorer mismatches, "
           f"{fever_bound_violations} fever<=LA violations, rule cases "
           f"{'hold' if rules_ok else 'BROKEN'}")


# -- A7: learning-rate schedule conformance ---------------------------------------------


def test_a7_schedule_conformance(tmp_path, capsys):
    rng = np.random.default_rng(77)
    corpus = make_corpus(rng, 10, sentence_range=(2, 3), pool_size=20)
    claims = make_claims(rng, corpus, 12)
    wiki, claims_path = write_dataset(corpus, claims, tmp_path)
    vocab_path, trie_path = tmp_path / "v.txt", tmp_path / "t.trie"
    assert main(["build-trie", "--wiki", str(wiki), "--claims", str(claims_path),
                 "--vocab-out", str(vocab_path), "--trie-out", str(trie_path)]) == EXIT_OK
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "run.cfg"
    # Defaults deliberately untouched: peak 3e-5, warmup fraction 0.10.
    cfg_path.write_text("\n".join([
        f"wiki={wiki}", f"claims={claims_path}", f"vocab={vocab_path}",
        f"trie={trie_path}", f"output_dir={out_dir}",
        "d_model=16", "n_heads=2", "n_layers_enc=1", "n_layers_dec=1", "d_ff=32",
        "max_positions=64", "train.total_updates=200", "train.checkpoint_every=0",
    ]) + "\n")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK

    records = [json.loads(line)
               for line in (out_dir / "train_log.jsonl").read_text().splitlines()]
    lr = {rec["step"]: rec["learning_rate"] for rec in records}
    total, warmup, peak = 200, 20, 3e-5
    exact_peak = lr[warmup] == peak
    exact_zero = lr[total] == 0.0
    linear = all(
        lr[s] == peak * (s / warmup) if s <= warmup
        else lr[s] == peak * ((total - s) / (total - warmup))
        for s in range(1, total + 1))
    ok = exact_peak and exact_zero and linear
    report(capsys, "A7", ok,
           f"lr[{warmup}] == 3e-5 exactly: {exact_peak}; lr[{total}] == 0.0 exactly: "
           f"{exact_zero}; linear everywhere: {linear}")


# -- A8: persistence round trips ----------------------------------------------------------


def test_a8_persistence(tmp_path, capsys):
    rng = np.random.default_rng(88)
    corpus = make_corpus(rng, 25, sentence_range=(2, 4))
    claims = verifiable(make_claims(rng, corpus, 10))
    vocab = build_vocab(corpus, claims, 5000)

    # Trie: save -> load -> save gives identical bytes; rebuild identical too.
    trie = TitleTrie.build(corpus.titles(), vocab)
    b1 = trie.to_bytes(vocab)
    path = tmp_path / "trie.bin"
    path.write_bytes(b1)
    b2 = TitleTrie.load(path, vocab).to_bytes(vocab)
    b3 = TitleTrie.build(list(reversed(corpus.titles())), vocab).to_bytes(vocab)
    trie_ok = b1 == b2 == b3

    # Checkpoint: train a few steps, save -> load -> identical forward + bytes.
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers_enc=1,
                      n_layers_dec=1, d_ff=64, max_positions=96, seed=3)
    model = Seq2SeqModel(cfg, vocab_checksum=vocab.checksum())
    trainer = Trainer(model, vocab, total_updates=20, peak_lr=1e-3)
    batch = [(c, gold_targets(c, corpus)) for c in claims[:4]]
    for _ in range(5):
        train_step(trainer, batch, corpus)
    ckpt_path = tmp_path / "model.gereckpt"
    save_checkpoint(ckpt_path, model, trainer.optimizer, trainer.step_count)
    loaded, opt_state, step = load_checkpoint(ckpt_path, vocab.checksum())
    ids = vocab.encode(claims[0].text)
    from gere.tokenizer import BOS
    forward_ok = np.array_equal(
        model.decode_step_title(model.encode_claim(ids), [BOS]),
        loaded.decode_step_title(loaded.encode_claim(ids), [BOS]))
    bytes_ok = (checkpoint_bytes(model, trainer.optimizer, step)
                == ckpt_path.read_bytes())
    reload_bytes_ok = checkpoint_bytes(loaded, None, step) == checkpoint_bytes(
        model, None, step)

    ok = trie_ok and forward_ok and bytes_ok and reload_bytes_ok
    report(capsys, "A8", ok,
           f"trie bytes stable+order-free: {trie_ok}; checkpoint forward "
           f"bit-identical: {forward_ok}; checkpoint bytes stable: "
           f"{bytes_ok and reload_bytes_ok}")
