"""Command-line pipelines: build-trie, train, retrieve, eval, inspect-trie.

Configuration is a plain key=value text file plus repeatable --set overrides;
every run writes a resolved-config copy next to its outputs. Exit codes:
0 ok, 1 usage/config, 2 data error, 3 internal or a non-finite training update.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import binio, evalkit
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import gold_targets, load_claims, load_wiki_pages, verifiable
from .decoding import DecodeParams, read_predictions, retrieve, write_predictions
from .errors import DataError, GereError
from .kvconfig import kv_lines, parse_kv
from .model import ModelConfig, Seq2SeqModel
from .tokenizer import EOT, SPECIAL_TOKENS, build_vocab, load_vocab, save_vocab
from .training import Trainer, encode_example
from .trie import TitleTrie

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3

log = logging.getLogger("gere")


class UsageError(Exception):
    pass


@dataclass
class TrainParams:
    total_updates: int = 1000
    peak_lr: float = 3e-5
    warmup_frac: float = 0.10
    max_tokens: int = 4096  # dynamic batch budget: claim + target tokens
    clip_norm: float = 1.0
    checkpoint_every: int = 500
    shuffle: bool = True


@dataclass
class RunConfig:
    wiki: str = ""
    claims: str = ""
    vocab: str = ""
    trie: str = ""
    checkpoint: str = ""
    output_dir: str = "runs/default"
    predictions: str = ""
    seed: int = ModelConfig.seed
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    n_layers_enc: int = ModelConfig.n_layers_enc
    n_layers_dec: int = ModelConfig.n_layers_dec
    d_ff: int = ModelConfig.d_ff
    max_positions: int = ModelConfig.max_positions
    dropout_rate: float = ModelConfig.dropout_rate
    label_smoothing: float = ModelConfig.label_smoothing
    init_std: float = ModelConfig.init_std
    train: TrainParams = field(default_factory=TrainParams)
    decode: DecodeParams = field(default_factory=DecodeParams)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **{
            f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "vocab_size"})

    def to_kv(self) -> str:
        return "".join(f"{key}={getattr(*_owner(self, key))}\n" for key in _RUN_KEYS)


_GROUPS = {"train": TrainParams, "decode": DecodeParams}
# Settable keys in `to_kv` order: top-level fields, then `group.field`.
_RUN_KEYS = {f.name: f for f in fields(RunConfig) if f.name not in _GROUPS}
_RUN_KEYS.update({f"{group}.{f.name}": f for group, cls in _GROUPS.items() for f in fields(cls)})


def _owner(cfg: RunConfig, key: str) -> tuple[object, str]:
    group, _, name = key.rpartition(".")
    return (getattr(cfg, group) if group else cfg), name


def load_run_config(path: str | None, overrides: list[str]) -> RunConfig:
    lines = []
    if path:
        try:
            lines = kv_lines(binio.read_text(path), path)
        except DataError as exc:
            raise UsageError(f"config file {exc}") from None
    lines += [("--set", item) for item in overrides]
    cfg = RunConfig()
    for key, value in parse_kv(lines, _RUN_KEYS, UsageError).items():
        setattr(*_owner(cfg, key), value)
    if not 0.0 < cfg.train.warmup_frac < 1.0:
        raise UsageError(f"train.warmup_frac must be in (0, 1), got {cfg.train.warmup_frac}")
    if cfg.train.total_updates < 1:
        raise UsageError("train.total_updates must be positive")
    if not (math.isfinite(cfg.train.peak_lr) and cfg.train.peak_lr > 0):
        raise UsageError(f"train.peak_lr must be finite and positive, got {cfg.train.peak_lr}")
    if not (math.isfinite(cfg.train.clip_norm) and cfg.train.clip_norm > 0):
        raise UsageError(f"train.clip_norm must be finite and positive, got {cfg.train.clip_norm}")
    if cfg.decode.beam_size < 1:
        raise UsageError("decode.beam_size must be positive")
    if cfg.decode.max_titles < 1:
        raise UsageError("decode.max_titles must be positive")
    if cfg.decode.max_evidence_steps < 0:
        raise UsageError("decode.max_evidence_steps must not be negative")
    try:
        cfg.model_config(vocab_size=len(SPECIAL_TOKENS))  # the model keys, checked before any work
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _require(path: str, what: str) -> str:
    """`path`, which the readers check; an empty one is a usage error."""
    if not path:
        raise UsageError(f"missing required path for {what}")
    return path


def _write_resolved_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    binio.write_atomic(out_dir / "config_resolved.txt", (cfg.to_kv().encode("utf-8"),))


# -- subcommands --------------------------------------------------------------


def cmd_build_trie(args) -> int:
    corpus = load_wiki_pages(_require(args.wiki, "wiki"))
    claims = load_claims(_require(args.claims, "claims")) if args.claims else []
    try:
        vocab = build_vocab(corpus, claims, args.max_vocab)
    except ValueError as exc:
        raise UsageError(f"--max-vocab: {exc}") from None
    save_vocab(vocab, args.vocab_out)
    trie = TitleTrie.build(corpus.titles(), vocab)
    trie.save(args.trie_out, vocab)
    n_bytes = Path(args.trie_out).stat().st_size
    print(f"vocab: {len(vocab)} tokens -> {args.vocab_out}")
    print(f"trie: {trie.node_count} nodes, {trie.title_count} titles, "
          f"{n_bytes} bytes -> {args.trie_out}")
    return EXIT_OK


def _load_pipeline_inputs(cfg: RunConfig):
    corpus = load_wiki_pages(_require(cfg.wiki, "wiki"))
    vocab = load_vocab(_require(cfg.vocab, "vocab"))
    trie = TitleTrie.load(_require(cfg.trie, "trie"), vocab)
    claims = load_claims(_require(cfg.claims, "claims"), corpus)
    return corpus, vocab, trie, claims


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    corpus, vocab, trie, claims = _load_pipeline_inputs(cfg)
    train_claims = verifiable(claims)
    if not train_claims:
        raise DataError("no verifiable claims to train on")
    out_dir = Path(cfg.output_dir)
    _write_resolved_config(cfg, out_dir)

    if args.resume:
        model, opt_state, step = load_checkpoint(_require(args.resume, "resume checkpoint"),
                                                 expected_vocab_checksum=vocab.checksum())
        if model.config != cfg.model_config(len(vocab)):
            raise DataError("resume checkpoint config does not match the run config")
    else:
        model = Seq2SeqModel(cfg.model_config(len(vocab)), vocab_checksum=vocab.checksum())
        opt_state, step = None, 0

    trainer = Trainer(model, vocab, total_updates=cfg.train.total_updates,
                      peak_lr=cfg.train.peak_lr, warmup_frac=cfg.train.warmup_frac,
                      clip_norm=cfg.train.clip_norm)
    if opt_state is not None:
        trainer.optimizer.load_state_dict(opt_state)
        trainer.step_count = step

    examples = [encode_example(claim, gold_targets(claim, corpus), corpus, vocab,
                               model.config.max_positions)
                for claim in train_claims]
    log.info("training on %d claims (%d params, %d total updates)",
             len(examples), model.num_params, cfg.train.total_updates)

    log_path = out_dir / "train_log.jsonl"
    stats = None
    # The log is rewritten so reruns are byte-identical; a resume keeps the
    # records of the updates before its checkpoint and drops any later ones.
    kept = []
    if args.resume and log_path.exists():
        kept = binio.read_text(log_path).splitlines(keepends=True)[:step]
    with open(log_path, "w", encoding="utf-8") as log_fh:
        log_fh.writelines(kept)
        for batch in trainer.batches(examples, cfg.train.max_tokens, cfg.train.shuffle):
            stats = trainer.train_step_encoded(batch)
            log_fh.write(json.dumps(stats.as_dict()) + "\n")
            if cfg.train.checkpoint_every > 0 and stats.step % cfg.train.checkpoint_every == 0:
                save_checkpoint(out_dir / f"checkpoint_step{stats.step}.gereckpt",
                                model, trainer.optimizer, stats.step)
    final_path = cfg.checkpoint or str(out_dir / "checkpoint_final.gereckpt")
    save_checkpoint(final_path, model, trainer.optimizer, trainer.step_count)
    if stats is None:
        print(f"no update ran: the checkpoint is already at update {trainer.step_count} of "
              f"{cfg.train.total_updates} -> {final_path}")
    else:
        print(f"trained {trainer.step_count} updates; final loss_total="
              f"{stats.loss_total:.4f} -> {final_path}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    corpus, vocab, trie, claims = _load_pipeline_inputs(cfg)
    model, _, _ = load_checkpoint(_require(cfg.checkpoint, "checkpoint"),
                                  expected_vocab_checksum=vocab.checksum())
    out_dir = Path(cfg.output_dir)
    _write_resolved_config(cfg, out_dir)
    results = [retrieve(model, vocab, claim, trie, corpus, cfg.decode) for claim in claims]
    pred_path = cfg.predictions or str(out_dir / "predictions.jsonl")
    write_predictions(results, pred_path)

    n = len(results)
    n_titles = [len(r.titles) for r in results]
    n_evidence = [len(r.evidence) for r in results]
    print(f"retrieved {n} claims -> {pred_path}")
    if n:
        print(f"avg titles: {sum(n_titles) / n:.2f}  avg evidence: {sum(n_evidence) / n:.2f}")
        print(f"claims with <=5 titles: {100.0 * sum(t <= 5 for t in n_titles) / n:.2f}%  "
              f"claims with <=5 evidence: {100.0 * sum(e <= 5 for e in n_evidence) / n:.2f}%")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.max_evidence < 1:
        raise UsageError(f"--max-evidence must be at least 1, got {args.max_evidence}")
    golds = load_claims(_require(args.gold, "gold claims"))
    predictions = read_predictions(_require(args.pred, "predictions"))
    gold_ids = {c.claim_id for c in golds}
    pred_ids = {rec["claim_id"] for rec in predictions}
    missing = sorted(gold_ids - pred_ids)
    extra = sorted(pred_ids - gold_ids)
    if missing:
        log.warning("claims missing from predictions (scored as empty): %s", missing)
    if extra:
        log.warning("predictions for unknown claim ids (ignored): %s", extra)
    report = evalkit.evaluate(predictions, golds, max_evidence=args.max_evidence,
                              oracle_labels=args.oracle_labels)
    print(json.dumps(report, indent=2, sort_keys=True))
    evalkit.write_report(report, args.out or f"{args.pred}.metrics.json")
    return EXIT_OK


def cmd_inspect_trie(args) -> int:
    vocab = load_vocab(_require(args.vocab, "vocab"))
    trie = TitleTrie.load(_require(args.trie, "trie"), vocab)
    print(f"trie: {trie.node_count} nodes, {trie.title_count} titles")
    if args.prefix is None:
        return EXIT_OK
    prefix_ids = vocab.encode(args.prefix)
    allowed = trie.allowed_next(prefix_ids)
    print(f"prefix {args.prefix!r} -> token ids {prefix_ids}")
    if not allowed:
        print("off-trie prefix: no continuations")
        return EXIT_OK
    shown = []
    for token_id in sorted(allowed):
        shown.append("<eot>" if token_id == EOT else vocab.tokens[token_id])
    print(f"allowed continuations ({len(allowed)}): {' '.join(shown)}")
    if EOT in allowed:
        print(f"complete title of doc_id: {trie.resolve(prefix_ids + [EOT])!r}")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gere", description=__doc__)
    parser.add_argument("--log-level", default="WARNING", help="logging level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-trie", help="build vocab and title trie from wiki pages")
    p.add_argument("--wiki", required=True)
    p.add_argument("--claims", default="", help="optional claims to include in the vocab")
    p.add_argument("--vocab-out", required=True)
    p.add_argument("--trie-out", required=True)
    p.add_argument("--max-vocab", type=int, default=50000)
    p.set_defaults(func=cmd_build_trie)

    for name, func in (("train", cmd_train), ("retrieve", cmd_retrieve)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        if name == "train":
            p.add_argument("--resume", default=None, help="checkpoint to continue from")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="score a prediction file against gold claims")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--max-evidence", type=int, default=5)
    p.add_argument("--oracle-labels", action="store_true",
                   help="copy gold labels onto predictions (pipeline testing)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-trie", help="query allowed continuations of a prefix")
    p.add_argument("--trie", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--prefix", default=None)
    p.set_defaults(func=cmd_inspect_trie)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gere: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"gere: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GereError as exc:
        print(f"gere: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"gere: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
