"""Generative evidence retrieval for fact verification.

Instead of scoring an index, the retriever *generates* its targets: document
titles come from constrained beam search over a prefix trie of all corpus
titles, and evidence sentence identifiers come from greedy decoding over a
per-claim dynamic vocabulary of candidate-sentence embeddings. A compact
encoder-decoder transformer (pure numpy, trained from scratch) backs both
decoders, and a FEVER-style evaluation kit scores the resulting predictions.
"""

from .corpus import (
    Claim,
    Corpus,
    Document,
    GoldTargets,
    Label,
    gold_targets,
    load_claims,
    load_wiki_pages,
    save_wiki_pages,
    title_from_doc_id,
    verifiable,
)
from .decoding import (
    DecodeParams,
    RetrievalResult,
    beam_search_titles,
    collect_candidates,
    greedy_evidence,
    read_predictions,
    retrieve,
    write_predictions,
)
from .errors import DataError, DecodingError, GereError
from .evalkit import PRF, VerificationScores, doc_prf, evaluate, fever_scores, sent_prf
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .model import ClaimEncoding, ModelConfig, SentenceEmbedding, Seq2SeqModel
from .tokenizer import (
    BOS,
    EOS,
    EOT,
    PAD,
    SEP,
    UNK,
    Vocab,
    build_vocab,
    load_vocab,
    save_vocab,
    tokenize,
)
from .training import TrainStats, Trainer, learning_rate, linearize_titles, make_batches
from .trie import TitleTrie

__version__ = "0.1.0"

__all__ = [
    "BOS", "EOS", "EOT", "PAD", "SEP", "UNK",
    "Claim", "ClaimEncoding", "Corpus", "DataError",
    "DecodeParams", "DecodingError", "Document", "GereError", "GoldTargets",
    "Label", "ModelConfig", "PRF", "RetrievalResult", "Seq2SeqModel",
    "SentenceEmbedding", "TitleTrie", "TrainStats", "Trainer",
    "VerificationScores", "beam_search_titles", "build_vocab", "checkpoint_bytes",
    "collect_candidates", "doc_prf", "evaluate", "fever_scores",
    "gold_targets", "greedy_evidence", "learning_rate", "linearize_titles",
    "load_checkpoint", "load_claims", "load_vocab", "load_wiki_pages",
    "make_batches", "read_predictions", "retrieve", "save_checkpoint",
    "save_vocab", "save_wiki_pages", "sent_prf", "title_from_doc_id",
    "tokenize", "verifiable", "write_predictions",
]
