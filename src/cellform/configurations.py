"""Dihedral structures and configurations on {1..N}.

A dihedral structure is a seating order up to rotation and reflection; a
configuration is a pair of dihedral structures up to simultaneous relabeling,
stored here through the representative [id, sigma] and canonicalized as the
lexicographic minimum over the two-sided dihedral action.  The module also
provides the convergence test, catalog enumeration and duality.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import kernels


def _check_permutation(seq) -> tuple[int, ...]:
    """seq as a checked permutation; a str is the comma-separated form.  Other
    entries must be integers, numpy ones included: floats and bools are rejected."""
    if isinstance(seq, str):
        seq = tuple(int(x) for x in seq.split(","))
    else:
        seq = tuple(seq)
        try:
            if bool in map(type, seq):
                raise TypeError
            seq = tuple(map(operator.index, seq))
        except TypeError:
            raise ValueError(f"permutation entries must be integers: {seq}") from None
    n = len(seq)
    if n == 0 or sorted(seq) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {seq}")
    return seq


def dihedral_images(seq: tuple[int, ...]):
    """All 2N rotations and reflections of a sequence."""
    n = len(seq)
    for s in (seq, seq[::-1]):
        for r in range(n):
            yield s[r:] + s[:r]


@dataclass(frozen=True, order=True)
class Configuration:
    """The double coset of sigma, represented by [id, sigma] with sigma canonical."""

    n_points: int
    sigma: tuple[int, ...]

    def __str__(self) -> str:
        return format_configuration(self)


def format_configuration(c: Configuration) -> str:
    """One-line comma-separated form, e.g. '8,3,6,1,4,7,2,5'."""
    return ",".join(str(v) for v in c.sigma)


def parse_configuration(text: str) -> Configuration:
    return canonical_configuration(text)


def canonical_configuration(sigma) -> Configuration:
    """Canonical double-coset representative of [id, sigma]: the least
    rho1 o sigma o rho2 over dihedral value maps rho1 and seat maps rho2.

    The least image starts with 1: per seat image only the value rotation and
    reflection sending its first seat to 1 can win, 4N candidates (as in
    kernels.canonical_keys).  They are compared digit by digit, the second digit
    from the cyclic seat gaps, and only the survivor is built.
    """
    seq = _check_permutation(sigma)
    n = len(seq)
    seats = seq + seq
    # A candidate (r, d, e) reads seat r + d*k as e * (seats[r + d*k] - seats[r]) % n + 1.
    gaps = [(seats[j + 1] - seats[j]) % n for j in range(n)]
    least = min(min(g, n - g) for g in gaps)
    cands = []
    for j, g in enumerate(gaps):
        if g == least:
            cands += [(j, 1, 1), (j + 1, -1, -1)]
        if n - g == least:
            cands += [(j, 1, -1), (j + 1, -1, 1)]
    k = 2
    while len(cands) > 1 and k < n:
        digits = [e * (seats[r + d * k] - seats[r]) % n for r, d, e in cands]
        least = min(digits)
        cands = [c for c, x in zip(cands, digits) if x == least]
        k += 1
    r, d, e = cands[0]  # any survivor left after the last digit builds the same image
    return Configuration(n, tuple(e * (seats[r + d * k] - seats[r]) % n + 1 for k in range(n)))


def _as_sigma(c) -> tuple[int, ...]:
    return c.sigma if isinstance(c, Configuration) else _check_permutation(c)


def inverse_permutation(seq: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(seq)
    for i, v in enumerate(seq):
        inv[v - 1] = i + 1
    return tuple(inv)


def dual(c: Configuration) -> Configuration:
    """The configuration of sigma^{-1}; an involution on configurations."""
    return canonical_configuration(inverse_permutation(_as_sigma(c)))


def is_convergent(sigma) -> bool:
    """True iff no k-set (2 <= k <= N-2) is cyclically consecutive in both
    the natural order and sigma.

    Windows of sigma are grown one seat at a time while counting runs of
    cyclically-adjacent values; a window blocks when one run remains.
    """
    seq = _as_sigma(sigma)
    n = len(seq)
    if n < 5:
        raise ValueError("convergence is defined for N >= 5")
    for i in range(n):
        member = bytearray(n + 1)
        runs = 0
        for k in range(1, n - 1):
            v = seq[(i + k - 1) % n]
            left = n if v == 1 else v - 1
            right = 1 if v == n else v + 1
            runs += 1 - member[left] - member[right]
            member[v] = 1
            if k >= 2 and runs == 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumerationResult:
    configurations: list[Configuration]
    count: int
    count_dual_identified: int
    duals: list[Configuration]  # duals[i] is the dual of configurations[i]


def enumerate_convergent(n: int) -> EnumerationResult:
    """All convergent configurations on {1..n}, with counts under both
    conventions (dual pairs distinct / identified) and the dual of each.

    Raises ValueError if duality does not map the classes onto themselves,
    which would mean classes were lost.
    """
    if n < 5:
        raise ValueError("enumeration needs N >= 5")
    kernels._check_key_width(n)  # before generating any row
    rows = kernels.convergent_permutations(n)
    keys = np.empty(0, dtype=np.int64)
    for lo in range(0, len(rows), kernels._BATCH):  # memory: one block plus the classes
        keys = np.union1d(keys, kernels.canonical_keys(rows[lo : lo + kernels._BATCH]))
    # Every class key decoded at once, its most significant digit first.
    sigmas = keys[:, None] // (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64) % (n + 1)
    configs = [Configuration(n, tuple(sigma)) for sigma in sigmas.tolist()]
    # The dual of each class is the canonical key of its inverse permutation.
    dual_keys = kernels.canonical_keys(np.argsort(sigmas, axis=1) + 1)
    at = np.searchsorted(keys, dual_keys)
    missing = np.count_nonzero(keys[np.minimum(at, len(keys) - 1)] != dual_keys)
    if missing:
        raise ValueError(f"N={n}: the class set misses the duals of {missing} of its {len(keys)} classes")
    # A dual pair counts once and a self-dual class once.
    self_dual = int(np.count_nonzero(dual_keys == keys))
    return EnumerationResult(configs, len(configs), (len(configs) + self_dual) // 2,
                             [configs[i] for i in at])
