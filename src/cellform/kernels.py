"""Batch numpy kernels for the inner loops that work on machine integers.

Three loops dominate desk-scale runtimes: scanning permutations for
convergence during enumeration, canonicalizing the survivors under the
two-sided dihedral action, and counting points on the Legendre curves over
F_p.  Each has one vectorized implementation here; the plain-Python oracles
they are tested against are ``configurations.is_convergent``,
``configurations.coset_images`` (whose least element is the canonical key) and
``modforms.legendre_trace``.
Everything involving arbitrary-precision integers lives elsewhere.
"""
from __future__ import annotations

import itertools

import numpy as np

from ._primes import check_prime

# Read by perfbench/worker.py for its machine record; every kernel is numpy.
USE_NUMBA = False

_BATCH = 1 << 17
_LEGENDRE_ROWS = 256  # lambdas per block: memory stays O(256 p), not O(p^2)


# ---------------------------------------------------------------------------
# Convergence scan
#
# A window of k seats in sigma is "blocking" if its set of values is a cyclic
# interval of 1..N.  sigma is convergent iff no window with 2 <= k <= N-2
# blocks; complementary windows block together, so scanning k <= N//2
# suffices.  Runs of cyclically-adjacent values are counted incrementally as
# the window grows: the window is a cyclic value interval iff one run remains.
# ---------------------------------------------------------------------------

def convergent_mask(batch: np.ndarray) -> np.ndarray:
    """Boolean mask of convergent rows for a (rows, N) batch of permutations."""
    batch = np.ascontiguousarray(batch, dtype=np.int64)
    rows, n = batch.shape
    kmax = n // 2
    ridx = np.arange(rows)
    alive = np.ones(rows, dtype=np.bool_)
    member = np.empty((rows, n + 1), dtype=np.int8)
    runs = np.empty(rows, dtype=np.int16)
    for i in range(n):
        member[:] = 0
        runs[:] = 0
        for k in range(1, kmax + 1):
            v = batch[:, (i + k - 1) % n]
            left = np.where(v == 1, n, v - 1)
            right = np.where(v == n, 1, v + 1)
            runs += 1 - member[ridx, left] - member[ridx, right]
            member[ridx, v] = 1
            if k >= 2:
                alive &= runs != 1
    return alive


def convergent_permutations(n: int) -> np.ndarray:
    """All convergent permutations of 1..n with first entry 1, as an array.

    Fixing the first entry selects one representative per cyclic rotation of
    seats, which is enough to hit every configuration class.
    """
    rows = []
    pool = tuple(range(2, n + 1))
    it = itertools.permutations(pool)
    while True:
        chunk = list(itertools.islice(it, _BATCH))
        if not chunk:
            break
        batch = np.empty((len(chunk), n), dtype=np.int64)
        batch[:, 0] = 1
        batch[:, 1:] = chunk
        rows.append(batch[convergent_mask(batch)])
    return np.concatenate(rows) if rows else np.empty((0, n), dtype=np.int64)


# ---------------------------------------------------------------------------
# Batch canonicalization under the two-sided dihedral action
#
# The 4N candidates of configurations.canonical_configuration are compared
# through a base-(N+1) integer encoding, whose numeric order is the
# lexicographic order on sequences.
# ---------------------------------------------------------------------------

def _dihedral_maps(n: int) -> np.ndarray:
    """The 2n dihedral permutations of the cycle 1..n, as 0-based arrays."""
    maps = np.empty((2 * n, n), dtype=np.int64)
    base = np.arange(n)
    for r in range(n):
        maps[r] = (base + r) % n
        maps[n + r] = (r - base) % n
    return maps


def _check_key_width(n: int) -> None:
    if (n + 1) ** n > np.iinfo(np.int64).max:
        raise ValueError(f"canonical keys of N={n} points overflow int64; N <= 15 is supported")


def _encode(batch: np.ndarray) -> np.ndarray:
    n = batch.shape[1]
    _check_key_width(n)
    weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return batch @ weights


def canonical_keys(batch: np.ndarray) -> np.ndarray:
    """Per-row canonical double-coset key (encoded canonical sequence)."""
    batch = np.ascontiguousarray(batch, dtype=np.int64)
    n = batch.shape[1]
    best = np.full(batch.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    for seat_map in _dihedral_maps(n):
        seats = batch[:, seat_map]
        shift = seats - seats[:, :1]
        for image in (shift % n + 1, -shift % n + 1):
            np.minimum(best, _encode(image), out=best)
    return best


def decode_key(key: int, n: int) -> tuple[int, ...]:
    """Invert the base-(N+1) sequence encoding."""
    digits = []
    for _ in range(n):
        key, d = divmod(key, n + 1)
        digits.append(d)
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# Legendre point counts: a(p, lambda) = -sum_x phi(x (x-1) (x-lambda))
# ---------------------------------------------------------------------------

def legendre_traces(p: int) -> np.ndarray:
    """Traces a(p, lambda) for lambda = 2..p-1 (Hasse bound asserted)."""
    check_prime(p)
    phi = np.full(p, -1, dtype=np.int8)
    x = np.arange(1, p, dtype=np.int64)
    phi[(x * x) % p] = 1
    phi[0] = 0
    xs = np.arange(p, dtype=np.int64)
    base = xs * (xs - 1) % p
    traces = np.empty(p - 2, dtype=np.int64)
    for lo in range(2, p, _LEGENDRE_ROWS):
        lams = np.arange(lo, min(lo + _LEGENDRE_ROWS, p), dtype=np.int64)
        f = base[None, :] * (xs[None, :] - lams[:, None]) % p
        traces[lo - 2 : lo - 2 + lams.size] = -phi[f].sum(axis=1, dtype=np.int64)
    if traces.size and int(np.max(traces * traces)) > 4 * p:
        raise AssertionError(f"Hasse bound violated at p={p}")
    return traces
