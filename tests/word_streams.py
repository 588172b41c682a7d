"""A stand-in generator with a crafted 32-bit word stream, for driving
`_draws.WordDraws`, and the loops that read its buffer, through chosen words."""

import numpy as np


class CraftedWords:
    """A stand-in generator whose 32-bit word stream starts with `words`
    and continues with 2^31 (kept by every span here)."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        head, self.words = self.words[:size], self.words[size:]
        return np.array(head + [2**31] * (size - len(head)), dtype=np.uint32)
