"""The ℓ0-sampling contract of the grid, and its level count.

One member of a ``SamplerGrid`` is a JST-style ℓ0 sampler: geometric
subsampling levels, each a sparse-recovery stage, and the survivor with
the least tie-break hash at the shallowest fully recovered level.  Each
sample comes from the production batch decode
(``summed_many(...).sample_many()``) and must equal the scalar oracle's
(``reference.member_sketch(...).sample()``).
"""

from collections import Counter

import pytest

from repro.errors import IncompatibleSketchError, SamplerEmptyError
from repro.sketch import SamplerGrid, default_levels, reference
from repro.sketch.bank import SummedBatch


def sampler(domain=100_000, seed=1, **kw) -> SamplerGrid:
    return SamplerGrid(1, 1, domain, seed, **kw)


def sample(g: SamplerGrid):
    """The batch decode's ``(index, weight)``; raises
    :class:`SamplerEmptyError` for ZERO or FAILED, as the oracle does."""
    status, got = g.summed_many(0, [[0]]).sample_many()[0]
    oracle = reference.member_sketch(g, 0, 0)
    if status != SummedBatch.OK:
        with pytest.raises(SamplerEmptyError):
            oracle.sample()
        raise SamplerEmptyError(status)
    assert oracle.sample() == got
    return got


class TestDefaultLevels:
    def test_scales_with_domain(self):
        assert default_levels(2**20) >= 20

    def test_max_support_shrinks(self):
        assert default_levels(2**40, max_support=100) <= 12

    def test_minimum_one(self):
        assert default_levels(1) >= 1


class TestSampling:
    def test_empty_raises(self):
        with pytest.raises(SamplerEmptyError):
            sample(sampler())

    def test_single_item(self):
        s = sampler()
        s.update(0, 31337, 2)
        assert sample(s) == (31337, 2)

    def test_sample_is_genuine(self):
        s = sampler()
        truth = {i * i: 1 for i in range(1, 40)}
        for i, w in truth.items():
            s.update(0, i, w)
        idx, w = sample(s)
        assert truth.get(idx) == w

    def test_cancellation_to_empty(self):
        s = sampler()
        for i in range(10):
            s.update(0, i, 1)
        for i in range(10):
            s.update(0, i, -1)
        assert s.appears_zero()
        with pytest.raises(SamplerEmptyError):
            sample(s)

    def test_cancellation_to_single(self):
        s = sampler()
        for i in range(50):
            s.update(0, i, 1)
        for i in range(50):
            if i != 17:
                s.update(0, i, -1)
        assert sample(s) == (17, 1)

    @pytest.mark.parametrize("support", [1, 3, 10, 60, 300])
    def test_success_across_densities(self, support):
        hits = 0
        for seed in range(10):
            s = sampler(seed=seed)
            for i in range(support):
                s.update(0, 7 * i + 1, 1)
            try:
                idx, w = sample(s)
                assert w == 1 and (idx - 1) % 7 == 0
                hits += 1
            except SamplerEmptyError:
                pass
        assert hits >= 8

    def test_near_uniformity(self):
        """JST min-hash rule: sampled coordinates spread over the support."""
        support = list(range(0, 200, 10))
        counts = Counter()
        for seed in range(150):
            s = sampler(seed=seed)
            for i in support:
                s.update(0, i, 1)
            try:
                counts[sample(s)[0]] += 1
            except SamplerEmptyError:
                pass
        # At least half the support is sampled and no element dominates.
        assert len(counts) >= len(support) // 2
        assert max(counts.values()) <= 0.35 * sum(counts.values())

    def test_recover_support_small(self):
        """Full level-0 recovery is probabilistic: it must either return
        the exact support or certify failure with None — and succeed on
        most seeds."""
        truth = {1: 1, 50: 2, 99: -1}
        successes = 0
        for seed in range(10):
            s = sampler(seed=seed)
            for i, w in truth.items():
                s.update(0, i, w)
            out = reference.member_sketch(s, 0, 0).recover_support()
            assert out is None or out == truth
            if out == truth:
                successes += 1
        assert successes >= 7


class TestLinearity:
    def test_merge(self):
        a, b = sampler(seed=4), sampler(seed=4)
        a.update(0, 10, 1)
        b.update(0, 20, 1)
        a += b
        idx, _ = sample(a)
        assert idx in (10, 20)

    def test_difference(self):
        a, b = sampler(seed=4), sampler(seed=4)
        for i in range(5):
            a.update(0, i, 1)
        for i in range(4):
            b.update(0, i, 1)
        a -= b
        assert sample(a) == (4, 1)

    def test_incompatible(self):
        with pytest.raises(IncompatibleSketchError):
            sampler(seed=1).__iadd__(sampler(seed=2))

    def test_copy(self):
        a = sampler()
        a.update(0, 5, 1)
        c = a.copy()
        c.update(0, 5, -1)
        assert sample(a) == (5, 1)
        assert c.appears_zero()

    def test_space_counters_positive(self):
        assert sampler().space_counters() > 0
