"""Property tests for sketch reliability and linearity.

The invariants here are the ones the paper's correctness rests on,
checked on the grid (one member of a ``SamplerGrid``) through the
production batch decode and the scalar oracle:

* a 1-sparse cell never decodes to a *wrong* coordinate (it recovers
  or it fails loudly);
* an ℓ0 sample is always a coordinate of the true support with the
  true weight;
* all sketches are linear: sketch(A) + sketch(B) == sketch(A ∪ B) for
  disjoint updates, and subtraction removes exactly what was added.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import reference
from repro.sketch.bank import SamplerGrid, SummedBatch

DOMAIN = 50_000

# A "vector" is a dict index -> nonzero weight.
vectors = st.dictionaries(
    st.integers(min_value=0, max_value=DOMAIN - 1),
    st.integers(min_value=-5, max_value=5).filter(lambda w: w != 0),
    max_size=25,
)
seeds = st.integers(min_value=0, max_value=2**32)


def grid(seed, **kw) -> SamplerGrid:
    return SamplerGrid(1, 1, DOMAIN, seed, **kw)


def feed(g, vec):
    for i, w in vec.items():
        g.update(0, i, w)


def combined(*signed):
    """The vector sum of ``(sign, vector)`` pairs, zeros dropped."""
    out = {}
    for sign, vec in signed:
        for i, w in vec.items():
            out[i] = out.get(i, 0) + sign * w
    return {i: w for i, w in out.items() if w != 0}


def decode(g):
    """Batch ``(status, payload)``; the oracle must agree."""
    status, got = g.summed_many(0, [[0]]).sample_many()[0]
    assert reference.member_sketch(g, 0, 0).sample_or_none() == got
    return status, got


class TestOneSparseCellProperties:
    @given(vectors, seeds)
    @settings(max_examples=60, deadline=None)
    def test_never_wrong(self, vec, seed):
        cell = grid(seed, rows=1, buckets=1, levels=1)
        feed(cell, vec)
        status, got = decode(cell)
        if status == SummedBatch.FAILED:
            assert len(vec) > 1
        elif status == SummedBatch.ZERO:
            assert len(vec) == 0
        else:
            idx, w = got
            assert vec == {idx: w}

    @given(vectors, seeds)
    @settings(max_examples=40, deadline=None)
    def test_linearity_cancels(self, vec, seed):
        a = grid(seed, rows=1, buckets=1, levels=1)
        b = grid(seed, rows=1, buckets=1, levels=1)
        feed(a, vec)
        feed(b, vec)
        a -= b
        assert a.appears_zero()


class TestSparseRecoveryProperties:
    @given(vectors, seeds)
    @settings(max_examples=50, deadline=None)
    def test_recover_all_exact_or_none(self, vec, seed):
        s = grid(seed, rows=2, buckets=8, levels=1)
        feed(s, vec)
        out = reference.member_sketch(s, 0, 0).recover_support()
        assert out is None or out == vec

    @given(vectors, seeds)
    @settings(max_examples=50, deadline=None)
    def test_recover_any_genuine(self, vec, seed):
        s = grid(seed, rows=2, buckets=8, levels=1)
        feed(s, vec)
        status, got = decode(s)
        if status == SummedBatch.OK:
            idx, w = got
            assert vec.get(idx) == w

    @given(vectors, vectors, seeds)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_vector_sum(self, va, vb, seed):
        a = grid(seed, rows=2, buckets=16, levels=1)
        b = grid(seed, rows=2, buckets=16, levels=1)
        feed(a, va)
        feed(b, vb)
        a += b
        out = reference.member_sketch(a, 0, 0).recover_support()
        assert out is None or out == combined((1, va), (1, vb))


class TestL0SamplerProperties:
    @given(vectors, seeds)
    @settings(max_examples=50, deadline=None)
    def test_sample_genuine_or_fails_loudly(self, vec, seed):
        s = grid(seed)
        feed(s, vec)
        status, got = decode(s)
        if status != SummedBatch.OK:
            return  # allowed: empty vector or unlucky decode
        idx, w = got
        assert vec.get(idx) == w

    @given(vectors, seeds)
    @settings(max_examples=30, deadline=None)
    def test_insert_delete_leaves_zero(self, vec, seed):
        s = grid(seed)
        feed(s, vec)
        for i, w in vec.items():
            s.update(0, i, -w)
        assert s.appears_zero()

    @given(vectors, vectors, seeds)
    @settings(max_examples=30, deadline=None)
    def test_difference_sketches_residual(self, va, vb, seed):
        a = grid(seed)
        b = grid(seed)
        feed(a, va)
        feed(b, vb)
        a -= b
        residual = combined((1, va), (-1, vb))
        status, got = decode(a)
        if status == SummedBatch.OK:
            idx, w = got
            assert residual.get(idx) == w
        else:
            assert status == SummedBatch.FAILED or not residual
