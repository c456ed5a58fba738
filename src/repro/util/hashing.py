"""Seeded integer hash families used by every sketch.

All randomness in the library flows through two primitives:

* :func:`splitmix64` — a fast, well-mixed 64-bit permutation-based
  hash.  We use it keyed ("seed xor input through two rounds") as the
  workhorse hash.  It is not k-wise independent in the formal sense,
  but it is the standard practical stand-in; the formal constructions
  the paper's citations rely on (pairwise hashing for level sampling,
  [18]) only need the empirical uniformity splitmix64 provides, and the
  benchmarks measure realised failure rates directly.
* :class:`HashFamily` — a convenience wrapper that derives independent
  sub-seeds from a master seed so that distinct structures (levels,
  rows, fingerprints, subsampling filters) never share randomness.

Scalar and numpy-vectorised variants are provided; the vectorised path
hashes one coordinate under *many* seeds at once, which is the hot loop
when a single stream update must touch a bank of independent sketches.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Second-seed tweak of :meth:`HashFamily.field_value` (the 128-bit
#: fingerprint hash); shared by the scalar and vectorised paths.
_FIELD_TWEAK = 0x5851F42D4C957F2D


def splitmix64(x: int) -> int:
    """One splitmix64 finalisation round on a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def hash64(seed: int, value: int) -> int:
    """Hash ``value`` under ``seed`` to a uniform-looking 64-bit integer.

    Two dependent splitmix rounds; cheap and adequately mixed for
    level-sampling and bucket selection.
    """
    return splitmix64((seed ^ splitmix64(value & _MASK64)) & _MASK64)


def hash64_pair(seed: int, a: int, b: int) -> int:
    """Hash an ordered pair of integers under ``seed``."""
    return hash64(seed, (splitmix64(a & _MASK64) ^ ((b & _MASK64) * 0xA24BAED4963EE407)) & _MASK64)


def derive_seed(master: int, *labels: int) -> int:
    """Derive a child seed from ``master`` and a path of integer labels.

    Distinct label paths give (empirically) independent child seeds, so
    one user-facing ``seed`` argument can fan out into every structure
    a composite sketch owns while remaining reproducible.
    """
    s = master & _MASK64
    for lab in labels:
        s = hash64(s, lab & _MASK64)
    return s


def splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalisation on a ``uint64`` array.

    Returns a new array; every round after the first runs in place on
    it.
    """
    with np.errstate(over="ignore"):
        x = x + _U64(_GOLDEN)
        x ^= x >> _U64(30)
        x *= _U64(_MIX1)
        x ^= x >> _U64(27)
        x *= _U64(_MIX2)
        x ^= x >> _U64(31)
        return x


def hash64_np(seeds: np.ndarray, value: int) -> np.ndarray:
    """Hash one scalar ``value`` under an array of seeds at once."""
    v = _U64(splitmix64(value & _MASK64))
    with np.errstate(over="ignore"):
        return splitmix64_np(seeds.astype(_U64) ^ v)


def hash64_many(seed: int, values: np.ndarray) -> np.ndarray:
    """Hash an array of values under one scalar seed at once.

    The transpose of :func:`hash64_np`: bit-identical to calling
    :func:`hash64` element-by-element, but vectorised over the values.
    This is the hot primitive of the batched ingestion engine
    (:mod:`repro.engine.batch`), which hashes a whole batch of
    coordinates per (group, row) rather than one coordinate per call.
    """
    with np.errstate(over="ignore"):
        v = splitmix64_np(values.astype(_U64))
        return splitmix64_np(_U64(seed & _MASK64) ^ v)


def premix64_np(values: np.ndarray) -> np.ndarray:
    """The value-side round of :func:`hash64`, once per value.

    ``hash64(seed, value)`` is ``splitmix64(seed ^ splitmix64(value))``;
    the inner round does not depend on the seed, so a value that meets
    many seeds — one stream update fanned into a bank of independently
    seeded sketches — pays it once and finishes each hash with
    :func:`hash64_premixed`.
    """
    return splitmix64_np(values.astype(_U64))


def hash64_premixed(seeds: np.ndarray, premixed: np.ndarray) -> np.ndarray:
    """Finish :func:`hash64` for broadcast-compatible seeds × values.

    ``premixed`` is :func:`premix64_np` of the values; the result at
    every broadcast position is bit-identical to the scalar
    ``hash64(seed, value)``.  The seeds × values sibling of
    :func:`hash64_np` (many seeds, one value) and :func:`hash64_many`
    (one seed, many values).
    """
    return splitmix64_np(seeds ^ premixed)


def field_residue_np(hi: np.ndarray, lo: np.ndarray, p: int) -> np.ndarray:
    """``((hi << 64) | lo) % p`` on ``uint64`` arrays, for ``p = 2^61 - 1``.

    The reduction step of :meth:`HashFamily.field_value`, bit-for-bit,
    using ``2^64 ≡ 8 (mod p)``.
    """
    pv = np.uint64(p)
    with np.errstate(over="ignore"):
        return (
            ((hi % pv) * np.uint64((1 << 64) % p)) % pv + lo % pv
        ) % pv


def field_value_many(seed: int, values: np.ndarray, p: int) -> np.ndarray:
    """Vectorised :meth:`HashFamily.field_value` over an array of inputs.

    Matches the scalar ``((hi << 64) | lo) % p`` bit-for-bit for the
    Mersenne prime ``p = 2^61 - 1``.  This is the fingerprint primitive
    of both the batched update kernel (:mod:`repro.engine.batch`) and
    the batched decode kernels (:mod:`repro.sketch.bank`).
    """
    return field_residue_np(
        hash64_many(seed, values),
        hash64_many(seed ^ _FIELD_TWEAK, values),
        p,
    ).astype(np.int64)


def trailing_zeros64_np(x: np.ndarray) -> np.ndarray:
    """Count trailing zero bits of each element of a ``uint64`` array.

    A value of 0 maps to 64.  Used to place a coordinate into the
    geometric subsampling levels of an L0 sampler: the coordinate
    participates in levels ``0 .. tz``.
    """
    # The lowest set bit is a power of two, exact as a float64, and
    # frexp reads its exponent: 2^t = 0.5 · 2^(t+1).
    low = x & (~x + _U64(1))
    _, exp = np.frexp(low.astype(np.float64))
    out = exp.astype(np.int64) - 1
    out[low == 0] = 64
    return out


def trailing_zeros64(x: int) -> int:
    """Scalar trailing-zero count of a 64-bit value (0 maps to 64)."""
    if x == 0:
        return 64
    return (x & -x).bit_length() - 1


class HashFamily:
    """A labelled family of independent hash functions under one seed.

    Parameters
    ----------
    seed:
        Master seed.  Two families with the same seed are identical,
        which is what makes sketches mergeable: every vertex/party
        hashing with the same family produces linearly combinable
        structures (the "public random bits" of the communication
        model in Section 2 of the paper).
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def subfamily(self, *labels: int) -> "HashFamily":
        """Return the child family addressed by ``labels``."""
        return HashFamily(derive_seed(self.seed, *labels))

    def value(self, x: int) -> int:
        """Uniform 64-bit hash of ``x``."""
        return hash64(self.seed, x)

    def bucket(self, x: int, buckets: int) -> int:
        """Map ``x`` to ``[0, buckets)``."""
        return hash64(self.seed, x) % buckets

    def field_value(self, x: int, p: int) -> int:
        """Map ``x`` to a (near-)uniform residue in ``[0, p)``.

        128 bits of hash output are combined before the final
        reduction so the modular bias is below 2^-64.
        """
        hi = hash64(self.seed, x)
        lo = hash64(self.seed ^ _FIELD_TWEAK, x)
        return ((hi << 64) | lo) % p

    def coin(self, x: int, log2_prob: int) -> bool:
        """Return True with probability 2**(-log2_prob), keyed by ``x``."""
        if log2_prob <= 0:
            return True
        return trailing_zeros64(hash64(self.seed, x)) >= log2_prob
