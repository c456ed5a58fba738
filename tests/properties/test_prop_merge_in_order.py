"""Differential property test for
:func:`~repro.graph.union_find.merge_in_order`, the merge step of the
batched Borůvka decode.

Its reference is the loop it replaced: :meth:`UnionFind.union_many` of
each row in turn, the merges a row made read off the drop in
``components``.  Hypothesis draws a partition already built by random
unions, then rows of rank 2 or 3 (right-padded with ``-1``) that repeat
one another, stay inside one part, or bridge parts; the per-row merge
counts and the final smallest-node labels must be equal.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.union_find import UnionFind, merge_in_order


def smallest_of(uf, n):
    """Node -> the smallest node of its set."""
    first = {}
    for x in range(n):
        first.setdefault(uf.find(x), x)
    return np.array([first[uf.find(x)] for x in range(n)], dtype=np.int64)


@st.composite
def merge_cases(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    r = draw(st.sampled_from([2, 3]))
    node = st.integers(min_value=0, max_value=n - 1)
    premerged = draw(st.lists(st.tuples(node, node), max_size=n))
    row = st.lists(node, min_size=1, max_size=min(r, n), unique=True)
    rows = draw(st.lists(row, max_size=30))
    # Repeats: some drawn rows again, later in the order.
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return n, r, premerged, rows


@given(merge_cases())
@settings(max_examples=300, deadline=None)
@example((6, 3, [(0, 1), (1, 2)], [[2, 0], [0, 1, 2], [3, 4, 5], [5, 3],
                                    [0, 5], [0, 5]]))
@example((4, 2, [], [[0], [1], [3, 2], [2, 3]]))
def test_merge_in_order_matches_union_many(case):
    n, r, premerged, rows = case
    uf = UnionFind(n)
    for a, b in premerged:
        uf.union(a, b)
    smallest = smallest_of(uf, n)
    table = np.full((len(rows), r), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    got = merge_in_order(smallest, table)
    want = []
    for row in rows:
        before = uf.components
        uf.union_many(row)
        want.append(before - uf.components)
    assert got.tolist() == want
    assert smallest.tolist() == smallest_of(uf, n).tolist()
