"""Arithmetic in the prime field GF(p) with p = 2^61 - 1.

All sketch counters that must support exact recovery (index sums and
fingerprints in 1-sparse cells) are kept modulo the Mersenne prime
``MERSENNE_61 = 2**61 - 1``.  The choice matters for three reasons:

* the field is large enough that fingerprint collisions happen with
  probability ~ 2^-61 per test, far below the per-decode failure
  budgets in the paper's analysis;
* every residue fits in a signed 64-bit integer, so banks of counters
  can be stored in numpy ``int64`` arrays;
* reduction mod 2^61 - 1 is two shifts and an add, which keeps the
  vectorised update path cheap.

Only the operations the sketches need are provided; this is not a
general finite-field library.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: The Mersenne prime 2^61 - 1 used by every fingerprinting structure.
MERSENNE_61 = (1 << 61) - 1

#: Mask used by the fast Mersenne reduction.
_MASK_61 = (1 << 61) - 1


def mod_p(x: int) -> int:
    """Reduce an arbitrary Python integer into [0, p)."""
    return x % MERSENNE_61


def add_mod(a: int, b: int) -> int:
    """Return ``(a + b) mod p`` for residues ``a, b`` in [0, p)."""
    s = a + b
    if s >= MERSENNE_61:
        s -= MERSENNE_61
    return s


def sub_mod(a: int, b: int) -> int:
    """Return ``(a - b) mod p`` for residues ``a, b`` in [0, p)."""
    d = a - b
    if d < 0:
        d += MERSENNE_61
    return d


def mul_mod(a: int, b: int) -> int:
    """Return ``(a * b) mod p``.

    Python integers are arbitrary precision so the straightforward
    product is exact; the scalar path does not need the shift trick.
    """
    return (a * b) % MERSENNE_61


def pow_mod(a: int, e: int) -> int:
    """Return ``a**e mod p``."""
    return pow(a, e, MERSENNE_61)


def inv_mod(a: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo p.

    Raises ``ZeroDivisionError`` for ``a == 0 (mod p)``, mirroring the
    built-in behaviour of :func:`pow` with exponent -1.
    """
    return pow(a % MERSENNE_61, MERSENNE_61 - 2, MERSENNE_61)


def scale_vec_mod(vec: np.ndarray, scalar: int) -> np.ndarray:
    """Multiply an ``int64`` residue array by a scalar, mod p.

    numpy int64 would overflow on the raw product, so the array is
    routed through Python integers via ``object`` dtype only when the
    scalar is large; small scalars (|scalar| < 2**2) stay vectorised.
    The result is a fresh ``int64`` array of residues in [0, p).
    """
    s = scalar % MERSENNE_61
    if s == 0:
        return np.zeros_like(vec)
    if s <= 4:
        # Product bounded by 4 * (2^61 - 2) < 2^63, safe in int64.
        out = (vec.astype(np.int64) * np.int64(s)) % np.int64(MERSENNE_61)
        return out
    obj = vec.astype(object)
    obj = (obj * s) % MERSENNE_61
    return np.array(obj, dtype=np.int64).reshape(vec.shape)


def shl32_vec_mod(x: np.ndarray) -> np.ndarray:
    """Elementwise ``(x * 2**32) mod p`` for residues in ``uint64``.

    Uses the Mersenne rotation: with ``x = q * 2**29 + r``,
    ``x * 2**32 = q * 2**61 + r * 2**32 ≡ q + r * 2**32 (mod p)``,
    and every intermediate fits in an unsigned 64-bit word.
    """
    x = x.astype(np.uint64)
    low = (x & np.uint64((1 << 29) - 1)) << np.uint64(32)
    high = x >> np.uint64(29)
    return (low + high) % np.uint64(MERSENNE_61)


def rotl_vec_mod(x: np.ndarray, k: int) -> np.ndarray:
    """Elementwise ``x * 2**k`` mod p on any ``int64`` values.

    With ``x = q * 2^(61-k) + r`` (``q`` the arithmetic shift, so
    ``0 <= r < 2^(61-k)``), ``x * 2^k = q * 2^61 + r * 2^k ≡ q + r * 2^k
    (mod p)`` (``0 < k < 61``).  For a canonical residue this is a left
    rotation of the 61-bit word, and the result is canonical too (a
    canonical residue is never all ones); any other ``x`` gives a
    congruent value within ``2^(k+2)`` of ``[0, 2^61)``.
    ``k = 61 - j`` divides by ``2^j``.
    """
    low = np.int64((1 << (61 - k)) - 1)
    return (x >> np.int64(61 - k)) + ((x & low) << np.int64(k))


def mul_vec_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact elementwise ``(a * b) mod p`` for residue arrays in [0, p).

    numpy has no 128-bit integers, so the product is assembled from
    32-bit halves entirely in ``uint64``: with ``a = a1·2^32 + a0`` and
    ``b = b1·2^32 + b0``,

        a·b = a1·b1·2^64 + (a1·b0 + a0·b1)·2^32 + a0·b0,

    where ``2^64 ≡ 8 (mod p)`` and the middle term reduces through
    :func:`shl32_vec_mod`.  Every partial product stays below 2^64.
    Unlike :func:`scale_vec_mod` this never routes through ``object``
    dtype, which is what keeps the batched update kernel vectorised.
    Returns an ``int64`` residue array in [0, p).
    """
    p = np.uint64(MERSENNE_61)
    mask32 = np.uint64(0xFFFFFFFF)
    a = np.asarray(a).astype(np.uint64)
    b = np.asarray(b).astype(np.uint64)
    a1, a0 = a >> np.uint64(32), a & mask32
    b1, b0 = b >> np.uint64(32), b & mask32
    # a1·b1 < 2^58, times 2^64 ≡ 8: still < 2^61.
    top = (a1 * b1 * np.uint64(8)) % p
    cross = shl32_vec_mod((a1 * b0 + a0 * b1) % p)
    low = (a0 * b0) % p
    return ((top + cross + low) % p).astype(np.int64)


def pow_vec_mod(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise ``base**exponent mod p`` by square-and-multiply.

    ``base`` is an array of residues in [0, p); the exponent is a
    single nonnegative Python integer shared by every element.  Runs in
    ``O(log exponent)`` calls to :func:`mul_vec_mod`, fully vectorised —
    this is the batched-Fermat primitive the decode kernels use to
    invert whole arrays of cell weights at once.
    """
    if exponent < 0:
        raise ValueError(f"pow_vec_mod needs exponent >= 0, got {exponent}")
    base = np.asarray(base, dtype=np.int64) % np.int64(MERSENNE_61)
    result = np.ones_like(base)
    e = exponent
    while e:
        if e & 1:
            result = mul_vec_mod(result, base)
        e >>= 1
        if e:
            base = mul_vec_mod(base, base)
    return result


def inv_vec_mod(a: np.ndarray) -> np.ndarray:
    """Elementwise multiplicative inverse mod p via batched Fermat.

    Zero elements map to zero (callers mask them out — a decode cell
    with ``w ≡ 0`` is never a valid 1-sparse cell anyway).  The input
    is first compressed through ``np.unique``: decode batches invert
    thousands of cell weights that take only a handful of distinct
    values (±1..r times small multiplicities), so the square-and-
    multiply ladder runs on the tiny unique set and the result is
    scattered back.
    """
    a = np.asarray(a, dtype=np.int64) % np.int64(MERSENNE_61)
    uniq, inverse = np.unique(a, return_inverse=True)
    inv_uniq = pow_vec_mod(uniq, MERSENNE_61 - 2)
    inv_uniq[uniq == 0] = 0
    return inv_uniq[inverse].reshape(a.shape)


def add_vec_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a + b) mod p`` on ``int64`` residue arrays."""
    s = a.astype(np.int64) + b.astype(np.int64)
    s = np.where(s >= MERSENNE_61, s - MERSENNE_61, s)
    return s.astype(np.int64)


def sub_vec_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a - b) mod p`` on ``int64`` residue arrays."""
    d = a.astype(np.int64) - b.astype(np.int64)
    d = np.where(d < 0, d + MERSENNE_61, d)
    return d.astype(np.int64)


def sum_mod(values: Iterable[int]) -> int:
    """Sum an iterable of residues mod p."""
    total = 0
    for v in values:
        total = add_mod(total, v % MERSENNE_61)
    return total
