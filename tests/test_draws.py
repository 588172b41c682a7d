"""`walk.StreamDraws` against its rule on the raw keyed Philox words, and a
guard that the package reads no other random number generator.

The props suites, calibration and `hypgeom.estimate_delta` draw through
`StreamDraws`: value j is low + (w_j * n >> 64) for word j of the Philox
stream of `_stream_key(seed, 0, ensemble)`, one word per value, whether it
is served alone, in a `size=` list or in a counted run of `runs` (a count
word, then that many values).  Crafted word streams pin the ends of the
range and a counted run across a chunk's end.
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


def _twin_run(rng, most, span):
    """A counted run as two `integers` calls."""
    return rng.integers(0, span, size=rng.integers(0, most + 1))


def _next_run(runs):
    """The values of the next run of a `runs` reader, up to its None."""
    return list(iter(runs.__next__, None))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       calls=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(SPANS), st.booleans()),
                      min_size=1, max_size=60))
def test_counted_run_matches_integers(seed, calls):
    """Runs of several live `runs` readers, each run followed by one single
    draw or not, give the values and leave the stream where the twin
    reader's `integers` calls do."""
    served, twin = (StreamDraws(seed, engines.ENSEMBLE_PROPS) for _ in range(2))
    live = {}
    for most, span, single in calls:
        if (most, span) not in live:
            live[most, span] = served.runs(most, span)
        run = _next_run(live[most, span])
        assert run == _twin_run(twin, most, span)
        assert len(run) <= most and all(type(v) is int and 0 <= v < span for v in run)
        if single:
            assert served.integers(0, span) == twin.integers(0, span)
    assert served.integers(0, 2**64) == twin.integers(0, 2**64)


@pytest.mark.parametrize("offset", [1, 2, 3])
def test_counted_run_across_a_chunk_end(offset):
    """The largest count word of a `runs(2, 4)` run sits `offset` words
    before a chunk's end: its two values run into the next chunk (offsets 1
    and 2) or end the chunk exactly (offset 3)."""
    head = _raw_words(9, engines.ENSEMBLE_PROPS, CHUNK - offset)
    values = [3 * 2**62, 2**62 - 1, 2**63 + 7]
    words = head + [2**64 - 1] + values
    served, twin = crafted_draws(words), crafted_draws(words)
    assert served.integers(0, 2**64, size=CHUNK - offset) == head
    twin.integers(0, 2**64, size=CHUNK - offset)
    assert _next_run(served.runs(2, 4)) == _twin_run(twin, 2, 4) == [3, 0]
    assert served.integers(0, 2**64) == twin.integers(0, 2**64) == values[2]


@pytest.mark.parametrize("most,span", [(-1, 4), (2, 0), (2, 2**64 + 1)])
def test_counted_run_out_of_range_raises(most, span):
    """`runs` raises at the call, before its first value is asked for."""
    with pytest.raises(ValueError, match="out of range"):
        StreamDraws(0, engines.ENSEMBLE_PROPS).runs(most, span)


@pytest.mark.parametrize("size", [-2, -1, 2.5, 1.0, 2.0, "3"])
def test_bad_size_raises_and_keeps_the_stream(size):
    """A negative or non-integer `size` is refused before the reader moves,
    so the next draw is the word after the last one served."""
    served, twin = (StreamDraws(5, engines.ENSEMBLE_PROPS) for _ in range(2))
    assert served.integers(0, 7, size=3) == twin.integers(0, 7, size=3)
    with pytest.raises(ValueError, match="size"):
        served.integers(0, 7, size=size)
    assert served.integers(0, 2**64, size=2) == twin.integers(0, 2**64, size=2)


def test_numpy_integer_size_draws_as_an_int():
    served, twin = (StreamDraws(5, engines.ENSEMBLE_PROPS) for _ in range(2))
    assert served.integers(0, 3, size=np.int64(3)) == twin.integers(0, 3, size=3)
    assert served.integers(0, 3, size=np.int64(0)) == twin.integers(0, 3, size=0) == []
    assert [served.integers(0, 3) for _ in range(5)] == [twin.integers(0, 3) for _ in range(5)]


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


# the reader's word buffer (public or private) and the shift of its word rule
_READER_INSIDES = re.compile(r"\.\s*_?(?:words|pos)\b|>>\s*6[0-4]\b")


def test_package_reads_only_keyed_philox_streams():
    """No module draws from another generator, and none but `walk.py`
    touches `StreamDraws`' word buffer or spells its word rule."""
    files = sorted(Path(hypwalk.__file__).parent.rglob("*.py"))
    assert {"walk.py", "suites.py", "free.py", "farey.py"} <= {f.name for f in files}
    found = [f"{f.name}: {m.group(0)!r}" for f in files
             for m in _OTHER_RNGS.finditer(f.read_text())]
    found += [f"{f.name}: {m.group(0)!r}" for f in files if f.name != "walk.py"
              for m in _READER_INSIDES.finditer(f.read_text())]
    assert not found, found
