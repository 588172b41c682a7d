"""`walk.StreamDraws` against its rule on the raw keyed Philox words, and a
guard that the package reads no other random number generator.

The props suites, calibration and `hypgeom.estimate_delta` draw through
`StreamDraws`: value j is low + (w_j * n >> 64) for word j of the Philox
stream of `_stream_key(seed, 0, ensemble)`, one word per value, whether it
is served alone or in a `size=` list.  Crafted word streams pin the ends of
the range.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypwalk
from hypwalk import engines, walk
from hypwalk.walk import StreamDraws
from word_streams import crafted_draws

CHUNK = StreamDraws.CHUNK
SPANS = [1, 2, 3, 4, 7, 21, 2**31 + 1, 3 * 10**9, 2**32, 2**40 + 7, 2**64]

draws = st.tuples(st.sampled_from(SPANS), st.integers(-(2**40), 5),
                  st.none() | st.integers(0, 60))


def _raw_words(seed, ensemble, count):
    key = walk._stream_key(seed, 0, ensemble)
    return np.random.Philox(key=key).random_raw(count).tolist()


def _by_rule(words, calls):
    """The values of `calls` served from `words` by the multiply-shift rule."""
    out, pos = [], 0
    for span, low, size in calls:
        k = 1 if size is None else size
        values = [low + (w * span >> 64) for w in words[pos:pos + k]]
        pos += k
        out.append(values[0] if size is None else values)
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       ensemble=st.sampled_from([engines.ENSEMBLE_PROPS, engines.ENSEMBLE_CALIBRATE]),
       calls=st.lists(draws, min_size=1, max_size=80))
def test_draws_match_the_word_rule(seed, ensemble, calls):
    served = StreamDraws(seed, ensemble)
    got = [served.integers(low, low + span, size=size) for span, low, size in calls]
    total = sum(1 if size is None else size for _, _, size in calls)
    assert got == _by_rule(_raw_words(seed, ensemble, total), calls)
    assert all(type(v) is int for v in got if not isinstance(v, list))


def test_draws_cross_chunk_boundaries():
    """Over several chunks of mixed draws, including a `size=` draw longer
    than one chunk, every value still follows the rule."""
    calls = []
    for k in range(3 * CHUNK // 40):
        span = SPANS[k % len(SPANS)]
        calls += [(span, -3, 40), (span, 0, None)]
    calls += [(3, 0, CHUNK + 5), (2**64, 0, None)]
    served = StreamDraws(7, engines.ENSEMBLE_PROPS)
    got = [served.integers(low, low + span, size=size) for span, low, size in calls]
    total = sum(1 if size is None else size for _, _, size in calls)
    assert got == _by_rule(_raw_words(7, engines.ENSEMBLE_PROPS, total), calls)


def test_extreme_words_give_the_ends_of_the_range():
    served = crafted_draws([0, 2**64 - 1, 0, 2**64 - 1, 2**63])
    assert served.integers(-2, 5) == -2
    assert served.integers(-2, 5) == 4
    assert served.integers(10, 13, size=2) == [10, 12]
    assert served.integers(0, 1) == 0  # a span of one still takes its word
    assert served.integers(0, 2**64) == 2**63


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (-1, -1)])
@pytest.mark.parametrize("size", [None, 4])
def test_empty_range_raises(low, high, size):
    with pytest.raises(ValueError, match="low >= high"):
        StreamDraws(0, engines.ENSEMBLE_PROPS).integers(low, high, size=size)


@pytest.mark.parametrize("size", [None, 4])
def test_span_above_two_to_the_64_raises(size):
    # one 64-bit word cannot serve such a span
    with pytest.raises(ValueError, match="span"):
        StreamDraws(0, engines.ENSEMBLE_PROPS).integers(-1, 2**64, size=size)


# any numpy.random member but Philox and the bit-generator interface, a named
# generator family, or the standard library's random module
_OTHER_RNGS = re.compile(
    r"default_rng|PCG64|MT19937|SFC64|RandomState"
    r"|\b(?:np|numpy)\.random\.(?!Philox\b|bit_generator\b)\w+"
    r"|^\s*(?:import\s+random\b|from\s+random\s+import\b)",
    re.MULTILINE,
)


def test_package_reads_only_keyed_philox_streams():
    files = sorted(Path(hypwalk.__file__).parent.rglob("*.py"))
    assert {"walk.py", "suites.py", "free.py"} <= {f.name for f in files}
    found = [f"{f.name}: {m.group(0)!r}" for f in files
             for m in _OTHER_RNGS.finditer(f.read_text())]
    assert not found, found
