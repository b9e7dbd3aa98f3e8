"""Count the single-bit mutants of a trie or checkpoint file that still load.

    python3 tools/flip_bits.py titles.trie --vocab vocab.txt --flips 2000 --seed 0

Needs only the standard library and the `gere` package of the checkout it
sits in. The file's magic says which loader reads it (`TitleTrie.load` or
`load_checkpoint`, both against the vocabulary's checksum). Mutant i flips
one bit at an offset and bit position drawn by `random.Random(seed)`, with
replacement; it is loaded from a copy of the file in a temporary directory,
flipped in place and flipped back afterwards, so a mutant of a large
checkpoint costs one load and no whole-file write. A load that raises
`DataError` rejects the mutant; any other exception escapes, since a
reader must raise nothing else. The last line printed is a JSON object with
the file, its size, the seed, the mutant count and how many loaded.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gere.checkpoint import load_checkpoint  # noqa: E402
from gere.errors import DataError  # noqa: E402
from gere.tokenizer import load_vocab  # noqa: E402
from gere.trie import TitleTrie  # noqa: E402


def loader(path: Path, vocab_path: Path):
    """The load of the format whose magic `path` starts with."""
    vocab = load_vocab(vocab_path)
    magic = path.read_bytes()[:8]
    if magic == b"GERETRIE":
        return lambda p: TitleTrie.load(p, vocab)
    if magic == b"GERECKPT":
        return lambda p: load_checkpoint(p, vocab.checksum())
    raise SystemExit(f"{path}: neither a trie nor a checkpoint (magic {magic!r})")


def count_loaded(path: Path, load, flips: int, seed: int) -> int:
    """How many of `flips` seeded single-bit mutants of `path` load."""
    rng = random.Random(seed)
    size = path.stat().st_size
    loaded = 0
    with tempfile.TemporaryDirectory(prefix="flip_bits_") as tmp:
        mutant = Path(tmp) / path.name
        shutil.copyfile(path, mutant)
        with open(mutant, "r+b", buffering=0) as fh:
            for _ in range(flips):
                offset, mask = rng.randrange(size), 1 << rng.randrange(8)
                fh.seek(offset)
                byte = fh.read(1)[0]
                fh.seek(offset)
                fh.write(bytes([byte ^ mask]))
                try:
                    load(mutant)
                    loaded += 1
                except DataError:
                    pass
                finally:
                    fh.seek(offset)
                    fh.write(bytes([byte]))
    return loaded


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("path", type=Path, help="a trie or checkpoint file")
    ap.add_argument("--vocab", type=Path, required=True, help="the vocabulary it was written with")
    ap.add_argument("--flips", type=int, default=2000, help="mutants to load")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    load = loader(args.path, args.vocab)
    load(args.path)  # the unmutated file must load
    loaded = count_loaded(args.path, load, args.flips, args.seed)
    print(json.dumps({"file": str(args.path), "bytes": args.path.stat().st_size,
                      "seed": args.seed, "mutants": args.flips, "loaded": loaded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
