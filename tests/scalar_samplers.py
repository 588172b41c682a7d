"""The per-letter and per-generator instance samplers: the reference that the
batched samplers (`FreeGroupModel.sample_word`, `FareyModel.sample_element`,
`suites._far_pair_farey` and `suites._shadow_member_tree`) are checked
against, draw for draw.

Each function makes one scalar `rng.integers` call per letter or generator
step on a plain `np.random.Generator` and builds a checked `FareyElement`
after every step, as the props suites did before their draws were batched.
The batched samplers, drawing from a `_draws.WordDraws` over a generator
seeded alike, must return equal elements call for call and then give the
same trailing draw, so the props and calibrate outputs do not move.  The
batched far pair reads its growth steps straight off the `WordDraws` word
buffer, falling back to per-value draws at a rejected word or the buffer's
end; these oracles make every draw through `rng.integers`, so they also run
on a `WordDraws` over a crafted word stream to pin those fallbacks.
"""

from __future__ import annotations

import numpy as np

from hypwalk.errors import UnsatisfiableConfigError
from hypwalk.models.farey import IDENTITY, L, R
from hypwalk.models.free import GENERATOR_LETTERS, FreeWord


def sample_word(rng, length: int) -> FreeWord:
    """A uniformly random reduced word of exactly the given length."""
    if length == 0:
        return FreeWord()
    letters = [GENERATOR_LETTERS[int(rng.integers(0, 4))]]
    for _ in range(length - 1):
        choices = [x for x in GENERATOR_LETTERS if x != -letters[-1]]
        letters.append(choices[int(rng.integers(0, 3))])
    return FreeWord(letters, _reduced=True)


def sample_free_element(rng, radius: int) -> FreeWord:
    return sample_word(rng, int(rng.integers(0, radius + 1)))


def sample_farey_element(rng, radius: int):
    """A random product of at most `radius` generators, one element a step."""
    gens = (R, L, R.inverse(), L.inverse())
    length = int(rng.integers(0, radius + 1))
    out = IDENTITY
    for _ in range(length):
        out = out * gens[int(rng.integers(0, 4))]
    return out


def far_pair_farey(model, rng, min_d: float):
    """(z, x) with d(z, x) >= min_d, x grown one product at a time and
    measured with the model distance after every step."""
    for _ in range(40):
        z = sample_farey_element(rng, 4)
        x = z
        for _ in range(12 * max(1, int(min_d))):
            x = model.multiply(x, sample_farey_element(rng, 2))
            if model.distance(z, x) >= min_d:
                return z, x
    raise UnsatisfiableConfigError(f"no pair at distance >= {min_d} found")


def shadow_member_tree(model, rng, z, x, r: float):
    """A point of S_z(x, r) in the tree: the geodesic z -> x past depth r,
    then up to 6 letters drawn one at a time without cancelling."""
    u = model.multiply(model.invert(z), x)
    lo = int(np.ceil(max(r, 0.0)))
    if lo > len(u):
        raise UnsatisfiableConfigError("radius exceeds d(z, x); shadow has no such member")
    letters = list(u.letters[:int(rng.integers(lo, len(u) + 1))])
    for _ in range(int(rng.integers(0, 7))):
        choices = [x for x in (1, -1, 2, -2) if not letters or x != -letters[-1]]
        letters.append(choices[int(rng.integers(0, len(choices)))])
    return model.multiply(z, FreeWord(letters, _reduced=True))
