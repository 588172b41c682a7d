"""Concrete group actions: F2 on its Cayley tree, SL(2,Z) on the Farey graph.

Both models expose the same duck-typed surface: identity/multiply/invert,
the (possibly improper) metric `distance`, parse/format for the canonical
text forms, translation length, conjugacy length, and seeded element
sampling.  Everything downstream (hypgeom, walk, stats) is written against
that surface only.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..hypgeom import gromov_product
from .farey import (
    INFINITY,
    L,
    R,
    FareyElement,
    FareyModel,
    Slope,
    bounded_bfs_distances,
    classify,
    conjugacy_min_length as farey_conjugacy_min_length,
    dist_to_infinity,
    matrix_to_generator_word,
    slope_distance,
    translation_length as farey_translation_length,
    translation_length_detail,
)
from .free import (
    ConjugacyResult,
    FreeGroupModel,
    FreeWord,
    common_prefix_len,
    cyclic_reduce,
    random_conjugacy_instance,
    reduce_letters,
    words_of_length,
)

__all__ = [
    "ConjugacyResult",
    "FareyElement",
    "FareyModel",
    "FreeGroupModel",
    "FreeWord",
    "INFINITY",
    "L",
    "R",
    "Slope",
    "bounded_bfs_distances",
    "check_conjugacy_shadow_conditions",
    "classify",
    "common_prefix_len",
    "cyclic_reduce",
    "dist_to_infinity",
    "farey_conjugacy_min_length",
    "farey_translation_length",
    "get_model",
    "matrix_to_generator_word",
    "random_conjugacy_instance",
    "reduce_letters",
    "slope_distance",
    "translation_length_detail",
    "words_of_length",
]

MODEL_NAMES = ("free", "farey")


def get_model(name: str):
    """Instantiate a model by its config name ("free" or "farey")."""
    if name == "free":
        return FreeGroupModel()
    if name == "farey":
        return FareyModel()
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def check_conjugacy_shadow_conditions(model, g, v, s, slack: float):
    """For a conjugacy g = v s v^-1, evaluate the three shadow conditions
    satisfied by shortest conjugators:

      1. d(1, v) >= d(1, g)/2 - slack
      2. g lies in the shadow of v based at 1 with radius d(1, v) - slack
      3. 1 lies in the shadow of g*v based at g with radius d(1, v) - slack

    Raises PreconditionError unless g = v s v^-1 holds exactly.
    Returns the three booleans.
    """
    recomposed = model.multiply(model.multiply(v, s), model.invert(v))
    if recomposed != g:
        raise PreconditionError("g != v s v^-1")
    one = model.identity()
    dv = model.distance(one, v)
    dg = model.distance(one, g)
    cond1 = dv >= 0.5 * dg - slack
    cond2 = gromov_product(model, one, v, g) >= dv - slack
    cond3 = gromov_product(model, g, model.multiply(g, v), one) >= dv - slack
    return cond1, cond2, cond3
