"""Philox4x64-10 (Salmon et al., SC'11) as numpy array work.

``philox4x64(k0, k1, counter)`` gives the block of four 64-bit words that
Philox computes from the counter ``(counter, 0, 0, 0)`` under the key
``(k0, k1)``. numpy's Philox adds one to its 256-bit counter before it
computes each block, so ``Philox(key=[k0, k1], counter=[c, 0, 0, 0])``
starts its ``random_raw`` stream with the block of ``philox4x64(k0, k1,
c + 1)``, and a fresh ``Philox(key=[k0, k1])`` with that of counter 1.
Keys and counters broadcast against each other, so one call computes the
blocks of many keys, or of many counters, at once.
"""

from __future__ import annotations

import numpy as np

# Round multipliers and key increments, as numpy's Philox uses them.
_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a, b):
    """High and low words of the 128-bit products ``a * b`` of uint64 values,
    from the four products of their 32-bit halves; no sum below overflows."""
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    mid = a_lo * b_hi + (a_lo * b_lo >> _S32)
    cross = a_hi * b_lo + (mid & _LO32)
    return a_hi * b_hi + (mid >> _S32) + (cross >> _S32), a * b


def philox4x64(k0, k1, counter) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four words of each block, as uint64 arrays of the broadcast shape
    of the keys and counters (Python ints in [0, 2^64) or uint64 arrays)."""
    # At least 1-d: numpy warns when uint64 scalars wrap, but not arrays.
    k0, k1, c0 = (np.atleast_1d(np.asarray(v, dtype=np.uint64)) for v in (k0, k1, counter))
    # The first round's second product is of the zero word c2, so it is zero.
    hi0, lo0 = _mulhilo(_M[0], c0)
    c0, c1, c2, c3 = k0, np.zeros_like(lo0), hi0 ^ k1, lo0
    for _ in range(9):
        k0, k1 = k0 + _W[0], k1 + _W[1]
        hi0, lo0 = _mulhilo(_M[0], c0)
        hi1, lo1 = _mulhilo(_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3
