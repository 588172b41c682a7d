"""`_draws.WordDraws` against `np.random.Generator.integers`, value for value.

The props suites, calibration and `hypgeom.estimate_delta` draw through
`WordDraws`, which reads the generator's 32-bit words in bulk and applies
numpy's Lemire rule itself; their outputs are pinned to numpy's values, so
any drift between the two shows up here first.  Crafted word streams force
the rejection branch (span 3, word 0) and its boundary (a low half equal to
the threshold is kept) on the scalar and the `size=` path alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk._draws import CHUNK, WordDraws

SPANS = [1, 2, 3, 4, 7, 21, 2**31 + 1, 3 * 10**9, 2**32]

draws = st.tuples(st.sampled_from(SPANS), st.integers(-(2**40), 5),
                  st.none() | st.integers(0, 60))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(draws, min_size=1, max_size=80))
def test_draws_match_generator_integers(seed, calls):
    expected, served = np.random.default_rng(seed), WordDraws(np.random.default_rng(seed))
    for span, low, size in calls:
        want = expected.integers(low, low + span, size=size)
        got = served.integers(low, low + span, size=size)
        if size is None:
            assert type(got) is int and got == int(want)
        else:
            assert got == want.tolist()


def test_draws_cross_chunk_boundaries():
    """Over several chunks of mixed draws, including a `size=` draw longer
    than one chunk, every value still matches."""
    expected, served = np.random.default_rng(7), WordDraws(np.random.default_rng(7))
    for k in range(3 * CHUNK // 40):
        span = SPANS[k % len(SPANS)]
        assert served.integers(-3, span - 3, size=40) == expected.integers(
            -3, span - 3, size=40).tolist()
        assert served.integers(0, span) == expected.integers(0, span)
    assert served.integers(0, 3, size=CHUNK + 5) == expected.integers(
        0, 3, size=CHUNK + 5).tolist()
    assert served.integers(0, 2**32) == expected.integers(0, 2**32)


class _CraftedWords:
    """A stand-in generator whose 32-bit word stream starts with `words`
    and continues with 2^31 (kept by every span here)."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        head, self.words = self.words[:size], self.words[size:]
        return np.array(head + [2**31] * (size - len(head)), dtype=np.uint32)


# span 3: threshold (2^32 - 3) % 3 = 1.  Word 0 gives a low half 0 < 1 and is
# rejected; 0xAAAAAAAB = 3^-1 mod 2^32 gives a low half of exactly 1 and is
# kept, as value (3 * 0xAAAAAAAB) >> 32 = 2; 2^31 gives value 1.
INVERSE_OF_3 = 0xAAAAAAAB


def test_rejected_word_is_skipped_on_the_scalar_path():
    served = WordDraws(_CraftedWords([0, INVERSE_OF_3, 0, 0, 2**31]))
    assert served.integers(0, 3) == 2
    assert served.integers(10, 13) == 11  # two rejections, then 2^31
    assert served.integers(0, 2**32) == 2**31


def test_rejected_word_is_skipped_on_the_size_path():
    served = WordDraws(_CraftedWords([2**31, 0, INVERSE_OF_3, 0, 2**31, 7]))
    assert served.integers(0, 3, size=3) == [1, 2, 1]
    assert served.integers(0, 2**32) == 7


def test_threshold_word_is_kept_on_both_paths():
    served = WordDraws(_CraftedWords([INVERSE_OF_3, INVERSE_OF_3, 2**31]))
    assert served.integers(-1, 2, size=2) == [1, 1]
    assert served.integers(0, 3) == 1


def test_span_of_one_takes_no_word():
    served = WordDraws(_CraftedWords([5]))
    assert served.integers(4, 5) == 4
    assert served.integers(4, 5, size=3) == [4, 4, 4]
    assert served.integers(0, 2**32) == 5


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (-1, -1)])
@pytest.mark.parametrize("size", [None, 4])
def test_empty_range_raises(low, high, size):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high, size=size)
    with pytest.raises(ValueError):
        WordDraws(np.random.default_rng(0)).integers(low, high, size=size)


@pytest.mark.parametrize("size", [None, 4])
def test_span_above_two_to_the_32_raises(size):
    # numpy draws 64-bit words for such spans; WordDraws serves none of them
    with pytest.raises(ValueError):
        WordDraws(np.random.default_rng(0)).integers(-1, 2**32, size=size)
