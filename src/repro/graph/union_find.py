"""Disjoint-set union (union by size + path halving).

Used by every exact connectivity routine; :func:`merge_in_order` is the
vectorised form the Borůvka decoding loop of the spanning-forest
sketches uses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np


class UnionFind:
    """Classic disjoint-set forest over ``n`` integer elements."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        #: Number of disjoint sets currently maintained.
        self.components = n

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True

    def union_many(self, vertices: Iterable[int]) -> bool:
        """Merge all of ``vertices`` into one set; True if anything merged.

        This is the hyperedge contraction step: sampling one crossing
        hyperedge merges every vertex it contains.
        """
        it = iter(vertices)
        try:
            first = next(it)
        except StopIteration:
            return False
        merged = False
        for v in it:
            merged = self.union(first, v) or merged
        return merged

    def connected(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> List[List[int]]:
        """All current sets, each as a sorted list of members."""
        by_root: Dict[int, List[int]] = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return [sorted(members) for members in by_root.values()]


def merge_in_order(smallest: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:meth:`UnionFind.union_many` over each row of ``rows`` in turn,
    vectorised.

    ``smallest`` labels a partition of the nodes ``0 .. len - 1``: node
    ``x`` lies in the part whose smallest node is ``smallest[x]``.
    ``rows`` is an ``(m, r)`` array of nodes, each row right-padded with
    ``-1``.  Rewrites ``smallest`` in place to the partition after every
    row has merged its nodes, and returns how many merges each row made
    (its distinct parts at its turn, minus one) — what the sequential
    loop's drop in ``components`` shows per row.

    Row ``i`` is the star of edges ``(row[0], row[j])``, and the
    sequential loop is Kruskal over those edges in (row, position)
    order: an edge merges iff it is in the minimum spanning forest of
    the part graph under that order.  The order is strict, so that
    forest is unique, and Borůvka rounds find the same one — each part
    hooks along its cheapest edge (two parts that chose one edge keep
    the smaller as root), then pointer jumping contracts — in
    O(log parts) vectorised rounds.
    """
    rows = np.asarray(rows, dtype=np.int64)
    tail = rows[:, 1:]
    valid = tail >= 0
    row_of = np.nonzero(valid)[0]  # star edges in (row, position) order
    u = smallest[np.broadcast_to(rows[:, :1], tail.shape)[valid]]
    v = smallest[tail[valid]]
    edge = np.flatnonzero(u != v)
    if not edge.size:
        return np.zeros(rows.shape[0], dtype=np.int64)
    # Parts as compact ids 0 .. K - 1, ``label`` their smallest nodes.
    label, ends = np.unique(np.r_[u[edge], v[edge]], return_inverse=True)
    a, b = ends.reshape(2, -1)
    parent = np.arange(label.size)
    tree = []
    while edge.size:
        pos = np.arange(edge.size)  # ascending: the Kruskal order
        best = np.full(label.size, edge.size)
        np.minimum.at(best, a, pos)
        np.minimum.at(best, b, pos)
        part = np.flatnonzero(best < edge.size)
        pick = best[part]
        parent[part] = a[pick] + b[pick] - part
        root = part[(parent[parent[part]] == part) & (part < parent[part])]
        parent[root] = root
        tree.append(edge[pick])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        a, b = parent[a], parent[b]
        keep = a != b
        edge, a, b = edge[keep], a[keep], b[keep]
    root_min = np.full(label.size, smallest.size)
    np.minimum.at(root_min, parent, label)
    relabel = np.arange(smallest.size)
    relabel[label] = root_min[parent]
    smallest[:] = relabel[smallest]
    # Two parts that chose one edge both listed it.
    tree = np.unique(np.concatenate(tree))
    return np.bincount(row_of[tree], minlength=rows.shape[0])
