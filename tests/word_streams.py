"""A `walk.StreamDraws` over a crafted 64-bit word stream, for driving the
reader through chosen words: the ends of a value's range, and a counted
run's count word placed at a chunk's end."""

import numpy as np

from hypwalk.walk import StreamDraws


class CraftedWords:
    """A stand-in bit generator whose word stream starts with `words` and
    continues with 2^63."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        head, self.words = self.words[:size], self.words[size:]
        return np.array(head + [2**63] * (size - len(head)), dtype=np.uint64)


def crafted_draws(words) -> StreamDraws:
    """A `StreamDraws` that reads `words` in place of its Philox stream."""
    rng = StreamDraws(0, 0)
    rng._bitgen = CraftedWords(words)
    return rng
