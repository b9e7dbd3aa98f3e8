"""key=value configuration text, the one format behind run-config files,
`--set` overrides and the model-config block of checkpoints.

Each line is `key=value`; blank lines and whole-line `#` comments are
skipped, and there are no inline comments. A value is coerced to the type
annotated on its dataclass field (int, float, bool or str). An int is
written in canonical ASCII form only (`0` or `-?[1-9][0-9]*`), so a saved
value is written back as the text it was read from.
"""

from __future__ import annotations

import re
from dataclasses import Field
from typing import Mapping, Sequence

_INT = re.compile(r"0|-?[1-9][0-9]*")  # `int` also takes "0_2", "+3", "064" and "\u0665"
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def kv_lines(text: str, where: str) -> list[tuple[str, str]]:
    """(location, line) for every line of `text` that is not blank or a comment."""
    return [(f"{where}:{line_no}", raw) for line_no, raw in enumerate(text.splitlines(), start=1)
            if raw.strip() and not raw.strip().startswith("#")]


def parse_kv(lines: Sequence[tuple[str, str]], keys: Mapping[str, Field],
             error: type[Exception]) -> dict:
    """Typed values of (location, `key=value`) lines; a later key wins. Raises
    `error` naming the location or the key on any line it cannot read."""
    values = {}
    for where, raw in lines:
        if "=" not in raw:
            raise error(f"{where}: expected key=value, got {raw!r}")
        key, text = (part.strip() for part in raw.split("=", 1))
        if key not in keys:
            raise error(f"{where}: unknown config key {key!r}")
        kind = _TYPES.get(keys[key].type, keys[key].type)  # annotations may be strings
        try:
            if kind is int and not _INT.fullmatch(text):
                raise ValueError(text)
            values[key] = _BOOLS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            expected = "a boolean" if kind is bool else kind.__name__
            raise error(f"{where}: config key {key!r}: expected {expected}, "
                        f"got {text!r}") from None
    return values
