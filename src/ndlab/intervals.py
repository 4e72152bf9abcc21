"""Half-open integer interval sets.

All coverage computations run on sets of half-open tick intervals
``[start, end)`` kept as sorted, pairwise-disjoint tuples.  Everything here
is exact integer arithmetic; linear merges keep the operations O(n).

Point tests and in-place edits use the flat edge list of such a set,
``[a0, b0, a1, b1, ...]``: a tick t lies in the set exactly when
``bisect_right(edges, t)`` is odd.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Span = tuple[int, int]


def normalize(spans: Iterable[Span]) -> tuple[Span, ...]:
    """Sort, drop empty spans and merge overlapping or touching ones."""
    items = sorted((a, b) for a, b in spans if b > a)
    out: list[Span] = []
    for a, b in items:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def measure(spans: Sequence[Span]) -> int:
    return sum(b - a for a, b in spans)


def union(*span_sets: Sequence[Span]) -> tuple[Span, ...]:
    return normalize(span for spans in span_sets for span in spans)


def intersect(xs: Sequence[Span], ys: Sequence[Span]) -> tuple[Span, ...]:
    out: list[Span] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            out.append((a, b))
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def edges(xs: Sequence[Span]) -> list[int]:
    """The flat edge list of normalized spans."""
    return [x for span in xs for x in span]


def complement(xs: Sequence[Span], period: int) -> tuple[Span, ...]:
    """Ticks of [0, period) outside ``xs``, which must be normalized and
    lie within [0, period)."""
    e = [0, *edges(xs), period]
    return tuple((a, b) for a, b in zip(e[::2], e[1::2]) if b > a)


def shift_mod(spans: Sequence[Span], shift: int, period: int) -> tuple[Span, ...]:
    """Shift every span *left* by ``shift`` ticks and wrap into [0, period)."""
    out: list[Span] = []
    for a, b in spans:
        length = b - a
        if length >= period:
            return ((0, period),)
        s = (a - shift) % period
        if s + length <= period:
            out.append((s, s + length))
        else:
            out.append((s, period))
            out.append((0, s + length - period))
    return normalize(out)


def reflect_mod(spans: Sequence[Span], c: int, period: int) -> tuple[Span, ...]:
    """Map every tick x to (c - x) mod period."""
    # -x runs over [1 - b, 1 - a) as x runs over [a, b)
    return shift_mod([(1 - b, 1 - a) for a, b in spans], -c, period)
