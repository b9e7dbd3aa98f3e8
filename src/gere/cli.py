"""Command-line pipelines: build-trie, train, retrieve, eval, inspect-trie.

Configuration is a plain key=value text file plus repeatable --set overrides;
every run writes a resolved-config copy next to its outputs. The keys are the
paths, the model settings (top-level, as `ModelConfig` names them) and the
`train.` and `decode.` settings; each key's type, default and range rule is
its field's in `ModelConfig`, `TrainParams` or `DecodeParams`, and a bad value
is a usage error naming the key. Exit codes: 0 ok, 1 usage/config, 2 data error
or an output that cannot be written, 3 internal or a non-finite training update.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import binio, evalkit
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import gold_targets, load_claims, load_wiki_pages, verifiable
from .decoding import DecodeParams, retrieve, write_predictions
from .errors import DataError, GereError
from .kvconfig import kv_lines, parse_kv
from .model import ModelConfig, Seq2SeqModel
from .tokenizer import EOT, SPECIAL_TOKENS, build_vocab, load_vocab, save_vocab
from .training import Trainer, TrainParams, encode_example
from .trie import TitleTrie

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3

log = logging.getLogger("gere")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    wiki: str = ""
    claims: str = ""
    vocab: str = ""
    trie: str = ""
    checkpoint: str = ""
    output_dir: str = "runs/default"
    predictions: str = ""
    # Set by top-level keys (`d_model=`, `seed=`). The model settings are
    # checked before the vocab is read, with the special tokens as the vocab.
    model: ModelConfig = field(default_factory=lambda: ModelConfig(len(SPECIAL_TOKENS)))
    train: TrainParams = field(default_factory=TrainParams)
    decode: DecodeParams = field(default_factory=DecodeParams)

    def to_kv(self) -> str:
        return "".join(f"{key}={getattr(getattr(self, group) if group else self, f.name)}\n"
                       for key, (group, f) in _RUN_KEYS.items())


# Each settings group: the prefix of its keys and the dataclass that owns its
# defaults and range rules.
_GROUPS = {"model": ("", ModelConfig), "train": ("train.", TrainParams),
           "decode": ("decode.", DecodeParams)}
# Settable key -> (its group, "" for a path, and its field), in `to_kv` order.
_RUN_KEYS = {f.name: ("", f) for f in fields(RunConfig) if f.name not in _GROUPS}
_RUN_KEYS.update({prefix + f.name: (group, f) for group, (prefix, cls) in _GROUPS.items()
                  for f in fields(cls) if f.name != "vocab_size"})


def load_run_config(path: str | None, overrides: list[str]) -> RunConfig:
    lines = []
    if path:
        try:
            lines = kv_lines(binio.read_text(path), path)
        except DataError as exc:
            raise UsageError(f"config file {exc}") from None
    lines += [("--set", item) for item in overrides]
    values = {"": {}, "model": {"vocab_size": len(SPECIAL_TOKENS)}, "train": {}, "decode": {}}
    for key, value in parse_kv(lines, {key: f for key, (_, f) in _RUN_KEYS.items()},
                               UsageError).items():
        group, f = _RUN_KEYS[key]
        values[group][f.name] = value
    for group, (prefix, cls) in _GROUPS.items():  # each dataclass checks its settings
        try:
            values[""][group] = cls(**values[group])
        except ValueError as exc:
            raise UsageError(f"{prefix}{exc}") from None
    return RunConfig(**values[""])


def _require(path: str, what: str) -> str:
    """`path`, which the readers check; an empty one is a usage error."""
    if not path:
        raise UsageError(f"missing required path for {what}")
    return path


@contextlib.contextmanager
def _writing(path):
    """Report an OS error in the block as a `DataError` naming `path`."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    with _writing(args.vocab_out):
        save_vocab(vocab, args.vocab_out)
    trie = TitleTrie.build(corpus.titles(), vocab)
    with _writing(args.trie_out):
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
    for doc_id in filter(None, trie.doc_ids):
        if doc_id not in corpus.documents:
            raise DataError(f"{cfg.trie}: doc_id {doc_id!r} is not a page of {cfg.wiki}")
    claims = load_claims(_require(cfg.claims, "claims"), corpus)
    return corpus, vocab, trie, claims


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    corpus, vocab, trie, claims = _load_pipeline_inputs(cfg)
    train_claims = verifiable(claims)
    if not train_claims:
        raise DataError("no verifiable claims to train on")
    config = replace(cfg.model, vocab_size=len(vocab))
    if args.resume:
        model, opt_state, step = load_checkpoint(_require(args.resume, "resume checkpoint"),
                                                 expected_vocab_checksum=vocab.checksum())
        if model.config != config:
            raise DataError("resume checkpoint config does not match the run config")
    else:
        model = Seq2SeqModel(config, vocab_checksum=vocab.checksum())
        opt_state, step = None, 0

    trainer = Trainer(model, vocab, **asdict(cfg.train))
    if opt_state is not None:
        trainer.optimizer.load_state_dict(opt_state)
        trainer.step_count = step

    examples = [encode_example(claim, gold_targets(claim, corpus), corpus, vocab,
                               model.config.max_positions)
                for claim in train_claims]
    log.info("training on %d claims (%d params, %d total updates)",
             len(examples), model.num_params, cfg.train.total_updates)

    out_dir = Path(cfg.output_dir)
    log_path = out_dir / "train_log.jsonl"
    stats = None
    # The log is rewritten so reruns are byte-identical; a resume keeps the
    # records of the updates before its checkpoint and drops any later ones.
    kept = _resumed_log(log_path, step) if args.resume and log_path.exists() else []
    # Every input is checked by now, so a bad one leaves no output behind.
    with _writing(out_dir):
        _write_resolved_config(cfg, out_dir)
    with _writing(log_path), open(log_path, "w", encoding="utf-8") as log_fh:
        log_fh.writelines(kept)
        for batch in trainer.batches(examples):
            stats = trainer.train_step_encoded(batch)
            log_fh.write(json.dumps(stats.as_dict()) + "\n")
            if cfg.train.checkpoint_every > 0 and stats.step % cfg.train.checkpoint_every == 0:
                _save_checkpoint(out_dir / f"checkpoint_step{stats.step}.gereckpt", trainer)
    final_path = cfg.checkpoint or str(out_dir / "checkpoint_final.gereckpt")
    _save_checkpoint(final_path, trainer)
    if stats is None:
        print(f"no update ran: the checkpoint is already at update {trainer.step_count} of "
              f"{cfg.train.total_updates} -> {final_path}")
    else:
        print(f"trained {trainer.step_count} updates; final loss_total="
              f"{stats.loss_total:.4f} -> {final_path}")
    return EXIT_OK


def _resumed_log(log_path: Path, step: int) -> list[str]:
    """The lines a resume from update `step` keeps of its log: its first
    `step` records, which must be those of updates 1 .. `step` in order, so
    that the rewritten log has no gap. Each is dumped again as training
    dumps it, so a log that training wrote keeps its bytes."""
    kept = []
    for update, (where, record) in zip(range(1, step + 1), binio.read_jsonl(log_path)):
        if record.get("step") != update:
            raise DataError(f"{where}: not the record of update {update}, "
                            f"but the resume checkpoint is at update {step}")
        kept.append(json.dumps(record) + "\n")
    if len(kept) < step:
        raise DataError(f"{log_path}: {len(kept)} records, "
                        f"but the resume checkpoint is at update {step}")
    return kept


def _save_checkpoint(path, trainer: Trainer) -> None:
    with _writing(path):
        save_checkpoint(path, trainer.model, trainer.optimizer, trainer.step_count)


def cmd_retrieve(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    corpus, vocab, trie, claims = _load_pipeline_inputs(cfg)
    model, _, _ = load_checkpoint(_require(cfg.checkpoint, "checkpoint"),
                                  expected_vocab_checksum=vocab.checksum())
    out_dir = Path(cfg.output_dir)
    with _writing(out_dir):
        _write_resolved_config(cfg, out_dir)
    results = [retrieve(model, vocab, claim, trie, corpus, cfg.decode) for claim in claims]
    pred_path = cfg.predictions or str(out_dir / "predictions.jsonl")
    with _writing(pred_path):
        write_predictions(results, pred_path)

    n = len(results)
    n_titles = [len(r.titles) for r in results]
    n_evidence = [len(r.evidence) for r in results]
    print(f"retrieved {n} claims -> {pred_path}")
    if n:
        print(f"avg titles: {sum(n_titles) / n:.2f}  avg evidence: {sum(n_evidence) / n:.2f}")
        print(f"claims with <=5 titles: {100.0 * sum(t <= 5 for t in n_titles) / n:.2f}%  "
              f"claims with <=5 evidence: {100.0 * sum(e <= 5 for e in n_evidence) / n:.2f}%")
    print(f"sentence memo: {len(model.sentence_memo())} vectors")
    for name in ("title_dec", "evid_dec"):
        table = model.prefix_table(name)
        print(f"prefix table {name}: {table.size} rows, {table.values.nbytes / 2 ** 20:.2f} MiB; "
              f"{table.full_hits}/{table.steps} steps and {table.row_hits}/{table.rows} rows hit")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.max_evidence < 1:
        raise UsageError(f"--max-evidence must be at least 1, got {args.max_evidence}")
    golds = load_claims(_require(args.gold, "gold claims"))
    pred_map = evalkit.check_predictions(binio.read_jsonl(_require(args.pred, "predictions")))
    gold_ids = {c.claim_id for c in golds}
    missing = sorted(gold_ids - pred_map.keys())
    extra = sorted(pred_map.keys() - gold_ids)
    if missing:
        log.warning("claims missing from predictions (scored as empty): %s", missing)
    if extra:
        log.warning("predictions for unknown claim ids (ignored): %s", extra)
    report = evalkit.evaluate_map(pred_map, golds, max_evidence=args.max_evidence,
                                  oracle_labels=args.oracle_labels)
    print(json.dumps(report, indent=2, sort_keys=True))
    out = args.out or f"{args.pred}.metrics.json"
    with _writing(out):
        evalkit.write_report(report, out)
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
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="logging level (any case)")
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
    # basicConfig adds the handler once per process; the level applies on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(args.log_level)
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
