"""On-disk algebra documents.

An algebra is a JSON object holding its complete defining data:

    {
      "dimension": 3,
      "tail": [[4.0, 0.0], [2.0, 0.0]],
      "tolerance": 1e-9          // optional
    }

``tail`` lists (re, im) pairs for (alpha_2, ..., alpha_n) and must have
exactly dimension - 1 entries.  The optional ``tolerance`` overrides the
default eps for this algebra; an explicit command-line tolerance wins over
both.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .algebra import CyclicAlgebra, build
from .scalars import DEFAULT_EPS


class DocumentError(ValueError):
    """The input file is not a valid algebra document."""


def parse_algebra_document(data: Any, eps_override: float | None = None) -> CyclicAlgebra:
    """Validate a decoded document and construct the algebra it describes."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    try:
        dimension = data["dimension"]
        tail_data = data["tail"]
    except KeyError as missing:
        raise DocumentError(f"document is missing the {missing} field") from None
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise DocumentError(f"dimension must be a positive integer, got {dimension!r}")
    if not isinstance(tail_data, list) or len(tail_data) != dimension - 1:
        raise DocumentError(
            f"tail must be a list of {dimension - 1} [re, im] pairs for "
            f"dimension {dimension}"
        )
    tail = []
    for index, pair in enumerate(tail_data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise DocumentError(f"tail entry {index} must be an [re, im] number pair")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DocumentError(f"tail entry {index} must be finite")
        tail.append(complex(re, im))
    eps = eps_override
    if eps is None:
        eps = data.get("tolerance", DEFAULT_EPS)
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise DocumentError(f"tolerance must be a number, got {eps!r}")
        if not (eps > 0 and math.isfinite(eps)):
            raise DocumentError(f"tolerance must be positive and finite, got {eps!r}")
    return build(dimension, tail, float(eps))


def load_algebra(path: str | Path, eps_override: float | None = None) -> CyclicAlgebra:
    """Read and validate an algebra document from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_algebra_document(data, eps_override)

