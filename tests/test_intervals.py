from bisect import bisect_right

import hypothesis.strategies as st
from hypothesis import given

from ndlab import intervals as iv

span_list = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda p: (min(p), max(p))),
    max_size=8,
)


def ticks(spans):
    out = set()
    for a, b in spans:
        out.update(range(a, b))
    return out


def test_normalize_merges_touching():
    assert iv.normalize([(5, 7), (0, 3), (3, 5)]) == ((0, 7),)
    assert iv.normalize([(2, 2), (4, 3)]) == ()


@given(span_list, span_list)
def test_set_semantics_match_tick_sets(xs, ys):
    a, b = iv.normalize(xs), iv.normalize(ys)
    assert ticks(iv.union(a, b)) == ticks(a) | ticks(b)
    assert iv.union(a, b, a) == iv.union(iv.union(a, b), a) and iv.union() == ()
    assert ticks(iv.intersect(a, b)) == ticks(a) & ticks(b)
    assert iv.measure(a) == len(ticks(a))


@given(span_list)
def test_complement_partitions_period(xs):
    a = iv.intersect(iv.normalize(xs), ((0, 50),))
    c = iv.complement(a, 50)
    assert iv.measure(a) + iv.measure(c) == 50
    assert not iv.intersect(a, c)


@given(span_list, st.integers(0, 200))
def test_contains_agrees_with_ticks(xs, x):
    # the point test the engines use on a flat edge list
    a = iv.normalize(xs)
    assert bisect_right(iv.edges(a), x) & 1 == (x in ticks(a))


@given(st.integers(2, 40), st.integers(0, 100), span_list)
def test_shift_mod_matches_pointwise(period, shift, xs):
    base = iv.intersect(iv.normalize(xs), ((0, period),))
    shifted = iv.shift_mod(base, shift, period)
    expect = {(t - shift) % period for t in ticks(base)}
    assert ticks(shifted) == expect


@given(st.integers(2, 40), st.integers(-50, 100), span_list)
def test_reflect_mod_matches_pointwise(period, c, xs):
    base = iv.intersect(iv.normalize(xs), ((0, period),))
    reflected = iv.reflect_mod(base, c, period)
    expect = {(c - t) % period for t in ticks(base)}
    assert ticks(reflected) == expect
