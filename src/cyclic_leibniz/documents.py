"""On-disk algebra documents.

An algebra is a JSON object holding its complete defining data:

    {
      "dimension": 3,
      "tail": [[4.0, 0.0], [2.0, 0.0]],
      "tolerance": 1e-9          // optional
    }

``tail`` lists (re, im) pairs for (alpha_2, ..., alpha_n); the optional
``tolerance`` overrides the default eps, and an explicit command-line
tolerance wins over both.  Only this JSON shape is checked here: the value
rules are ``CyclicAlgebra``'s, and their ValueError becomes DocumentError.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .algebra import CyclicAlgebra, build
from .scalars import DEFAULT_EPS


class DocumentError(ValueError):
    """The input file is not a valid algebra document."""


def parse_algebra_document(data: Any, eps_override: float | None = None) -> CyclicAlgebra:
    """Check a decoded document's shape and construct the algebra it describes."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    try:
        dimension = data["dimension"]
        tail_data = data["tail"]
    except KeyError as missing:
        raise DocumentError(f"document is missing the {missing} field") from None
    if not isinstance(tail_data, list):
        raise DocumentError("tail must be a list of [re, im] number pairs")
    tail = []
    for index, pair in enumerate(tail_data):
        # both values tested inline: a generator in all() costs more than the check
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], (int, float)) and not isinstance(pair[0], bool)
                and isinstance(pair[1], (int, float)) and not isinstance(pair[1], bool)):
            raise DocumentError(f"tail entry {index} must be an [re, im] number pair")
        try:
            tail.append(complex(*pair))
        except OverflowError:
            raise DocumentError(
                f"tail entry {index} is out of floating-point range"
            ) from None
    eps = data.get("tolerance", DEFAULT_EPS) if eps_override is None else eps_override
    try:
        return build(dimension, tail, eps)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _decode_int(literal: str) -> int | float:
    """A JSON integer, or past the int-string digit limit the float (±inf) it denotes."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def load_algebra(path: str | Path, eps_override: float | None = None) -> CyclicAlgebra:
    """Read and validate an algebra document from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text, parse_int=_decode_int)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError(f"{path} is nested too deeply to decode") from None
    return parse_algebra_document(data, eps_override)

