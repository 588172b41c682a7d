"""Concrete group actions: F2 on its Cayley tree, SL(2,Z) on the Farey graph.

Both models expose the same duck-typed surface: identity/multiply/invert,
the (possibly improper) metric `distance` and its all-pairs matrix
`distances`, parse/format for the canonical text forms, translation
length, and `sample_element(rng, radius)`, which draws from a
`walk.StreamDraws`.  Everything downstream (hypgeom, walk, stats) is
written against that surface only.
"""

from __future__ import annotations

from .farey import (
    INFINITY,
    L,
    R,
    FareyElement,
    FareyModel,
    Slope,
    bounded_bfs_distances,
    classify,
    dist_to_infinity,
    slope_distance,
    translation_length as farey_translation_length,
    translation_length_detail,
)
from .free import (
    FreeGroupModel,
    FreeWord,
    common_prefix_len,
    cyclic_reduce,
    random_conjugacy_instance,
    reduce_letters,
)

__all__ = [
    "FareyElement",
    "FareyModel",
    "FreeGroupModel",
    "FreeWord",
    "INFINITY",
    "L",
    "R",
    "Slope",
    "bounded_bfs_distances",
    "classify",
    "common_prefix_len",
    "cyclic_reduce",
    "dist_to_infinity",
    "farey_translation_length",
    "get_model",
    "random_conjugacy_instance",
    "reduce_letters",
    "slope_distance",
    "translation_length_detail",
]

MODEL_NAMES = ("free", "farey")


def get_model(name: str):
    """Instantiate a model by its config name ("free" or "farey")."""
    if name == "free":
        return FreeGroupModel()
    if name == "farey":
        return FareyModel()
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
