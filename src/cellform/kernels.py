"""Batch numpy kernels for the inner loops that work on machine integers.

Three loops dominate desk-scale runtimes: generating the convergent
permutations during enumeration, canonicalizing them under the two-sided
dihedral action, and counting points on the Legendre curves over F_p.  Each
has one vectorized implementation here.  The first two are tested against
the plain-Python oracles ``configurations.is_convergent`` (for the convergence
test the generator applies seat by seat) and ``coset_images`` in
``tests/oracles.py`` (whose least element is the canonical key); the traces against
``modforms.legendre_trace``, a second route that evaluates each curve's cubic
directly, and the tests check that one against a plain sum of characters.
Everything involving arbitrary-precision integers lives elsewhere.
"""
from __future__ import annotations

import numpy as np

from ._primes import check_prime

# Read by perfbench/worker.py for its machine record; every kernel is numpy.
USE_NUMBA = False

_BATCH = 1 << 17  # rows per block: generation frontiers and canonicalization


# ---------------------------------------------------------------------------
# Convergence
#
# A window of k seats in sigma is "blocking" if its set of values is a cyclic
# interval of 1..N.  sigma is convergent iff no window with 2 <= k <= N-2
# blocks.  A window's values are held as a bitmask (value v is bit v-1), and
# a table of 2^N booleans marks the masks of the cyclic intervals of those
# sizes.  The complement of a wrapping seat window is a non-wrapping one and
# the complement of a cyclic interval is a cyclic interval, so testing the
# non-wrapping windows, each the XOR of two prefix masks, tests every window.
# ---------------------------------------------------------------------------

def _interval_table(n: int) -> np.ndarray:
    """table[mask] is True iff mask holds a cyclic interval of 2..n-2 values."""
    if n > 15:
        raise ValueError(f"interval tables have 2^N entries; N <= 15 is supported, got N={n}")
    full = (1 << n) - 1
    table = np.zeros(1 << n, dtype=np.bool_)
    for k in range(2, n - 1):
        run = (1 << k) - 1
        for a in range(n):
            table[(run << a | run >> (n - a)) & full] = True
    return table


def convergent_mask(batch: np.ndarray) -> np.ndarray:
    """Boolean mask of convergent rows for a (rows, N) batch of permutations."""
    batch = np.asarray(batch, dtype=np.int64)
    rows, n = batch.shape
    table = _interval_table(n)
    prefix = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(1 << (batch - 1), axis=1, out=prefix[:, 1:])
    alive = np.ones(rows, dtype=np.bool_)
    for j in range(2, n + 1):  # the windows seats[i:j] with i <= j-2
        alive &= ~table[prefix[:, : j - 1] ^ prefix[:, j : j + 1]].any(axis=1)
    return alive


def convergent_permutations(n: int) -> np.ndarray:
    """The convergent permutations of 1..n with first seat 1, one of each
    reflection pair (the one with seat[1] > seat[n-1]), as an int8 array of
    shape (rows, n).

    Rotating and reflecting the seats keeps the configuration class, so these
    rows hit every class.  They are generated seat by seat, never scanned.
    """
    blocks = _completions(_interval_table(n), n, np.ones((1, 1), dtype=np.int8),
                          np.array([[0, 1]], dtype=np.int32))
    return np.concatenate([np.empty((0, n), dtype=np.int8), *blocks])


def _completions(table: np.ndarray, n: int, seats: np.ndarray, masks: np.ndarray):
    """Yield blocks of the convergent completions of the prefixes in seats.

    masks[:, i] is the value mask of seats[:, :i], for i = 0..d.  A new seat
    is kept only if no window ending at it blocks.  A frontier larger than
    _BATCH rows is split, and its parts are finished depth first.
    """
    d = seats.shape[1]
    if d == n:
        yield seats[seats[:, 1] > seats[:, -1]]  # one row of each reflection pair
        return
    last = masks[:, -1]
    parents, values, grown = [], [], []
    for v in range(2, n + 1):
        bit = 1 << (v - 1)
        rows = np.flatnonzero((last & bit) == 0)
        new = last[rows] | bit
        ok = ~table[masks[rows] ^ new[:, None]].any(axis=1)
        parents.append(rows[ok])
        values.append(np.full(np.count_nonzero(ok), v, dtype=np.int8))
        grown.append(new[ok])
    parents = np.concatenate(parents)
    seats = np.hstack([seats[parents], np.concatenate(values)[:, None]])
    masks = np.hstack([masks[parents], np.concatenate(grown)[:, None]])
    for lo in range(0, len(seats), _BATCH):
        yield from _completions(table, n, seats[lo : lo + _BATCH], masks[lo : lo + _BATCH])


# ---------------------------------------------------------------------------
# Batch canonicalization under the two-sided dihedral action
#
# The 4N candidates of configurations.canonical_configuration are compared
# through a base-(N+1) integer encoding, whose numeric order is the
# lexicographic order on sequences.  Every candidate starts with 1, and its
# second digit is 1 plus a cyclic seat gap g or N - g, so only the candidates
# whose second digit is the row's least are gathered and encoded.
# ---------------------------------------------------------------------------

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
    # The images are built in int8 (entries are at most N <= 15, which
    # _encode checks); only the encoding widens to int64.
    batch = np.ascontiguousarray(batch, dtype=np.int8)
    rows, n = batch.shape
    gaps = (np.roll(batch, -1, axis=1) - batch) % n  # gaps[:, j] = seat j+1 - seat j
    least = np.minimum(gaps, n - gaps).min(axis=1)
    best = np.full(rows, np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(n):
        for step in (1, -1):  # read the seats forward or backward from seat r
            gap = gaps[:, r if step == 1 else r - 1]
            seat_map = (r + step * np.arange(n)) % n
            for sign in (1, -1):  # the value map sends seat r to 1, keeping or reversing the order
                at = np.flatnonzero((gap if sign == step else n - gap) == least)
                seats = batch[at][:, seat_map]
                image = sign * (seats - seats[:, :1]) % n + 1
                best[at] = np.minimum(best[at], _encode(image))
    return best


# ---------------------------------------------------------------------------
# Legendre point counts: a(p, lambda) = -sum_x phi(x (x-1)) phi(x - lambda), so
# one correlation of u = phi(x (x-1)) against phi written out twice in a row
# gives every lambda in O(p) memory; no sum of p terms of size 1 can overflow.
# ---------------------------------------------------------------------------

def legendre_traces(p: int) -> np.ndarray:
    """Traces a(p, lambda) for lambda = 2..p-1 (Hasse bound asserted)."""
    check_prime(p)
    phi = np.full(p, -1, dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    phi[xs * xs % p] = 1
    phi[0] = 0
    # corr[k] = sum_x u(x) phi(x + k); lambda = p - k runs 2..p-1 as k runs p-2..1
    corr = np.correlate(np.concatenate([phi, phi]), phi[xs * (xs - 1) % p], mode="valid")
    traces = -corr[p - 2 : 0 : -1]
    if traces.size and int(np.max(traces * traces)) > 4 * p:
        raise AssertionError(f"Hasse bound violated at p={p}")
    return traces
