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

import numpy as np

#: The Mersenne prime 2^61 - 1 used by every fingerprinting structure.
MERSENNE_61 = (1 << 61) - 1


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
    It never routes through ``object`` dtype, which is what keeps the
    batched update kernel vectorised.
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


def add_vec_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a + b) mod p`` on ``int64`` residue arrays."""
    s = a.astype(np.int64) + b.astype(np.int64)
    s = np.where(s >= MERSENNE_61, s - MERSENNE_61, s)
    return s.astype(np.int64)
