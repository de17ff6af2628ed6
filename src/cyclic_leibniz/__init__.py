"""Complex cyclic Leibniz algebras: construction, canonical forms, isomorphism.

The package re-exports the names its callers use; everything else is
imported from its module:

* :mod:`cyclic_leibniz.scalars` -- tolerance policy, roots of unity,
  principal fractional powers, grid keys.
* :mod:`cyclic_leibniz.algebra` -- the algebras themselves, their products
  and operators, and from-first-principles identity verification.
* :mod:`cyclic_leibniz.classification` -- type detection, reduction,
  orbit canonicalization, and the isomorphism decision.
* :mod:`cyclic_leibniz.oracle` -- independent brute-force re-derivations of
  everything above, plus a seeded fuzz campaign comparing the two routes.
* :mod:`cyclic_leibniz.documents` / :mod:`cyclic_leibniz.cli` -- the JSON
  file format and the command-line interface.
"""

from .algebra import CyclicAlgebra, NotAGeneratorError, build
from .classification import (
    CanonicalForm,
    embed_law,
    generator_law,
    isomorphic,
    normalize,
    orbit,
)
from .documents import parse_algebra_document
from .oracle import iso_by_search, law_by_linear_solve
from .scalars import format_complex

__version__ = "0.1.0"

__all__ = [
    "CyclicAlgebra",
    "NotAGeneratorError",
    "build",
    "CanonicalForm",
    "embed_law",
    "generator_law",
    "isomorphic",
    "normalize",
    "orbit",
    "parse_algebra_document",
    "iso_by_search",
    "law_by_linear_solve",
    "format_complex",
    "__version__",
]
