"""Exact fitting of linear recurrences with polynomial coefficients.

The overdetermined linear system for the unknown coefficient polynomials is
solved modulo a fixed ladder of primes below 2^31 by int64 row reduction; the
nullspace vector is recovered over Q by CRT plus rational reconstruction and
then certified by exact integer verification against every supplied term.
Only primes whose pivot columns match the best seen enter the CRT (a rank
drop mod p shows in them); a candidate that fails certification triggers more
primes, and nothing is ever accepted on residual evidence alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from ._primes import is_prime

_OVERDETERMINATION_MARGIN = 10
# Residues below 2^31 keep every product of two of them below 2^62, so the
# int64 row reduction cannot overflow.
_WORD_PRIME_LIMIT = 1 << 31
_MAX_PRIMES = 48  # 48 x 31 bits: the CRT modulus reaches about 1,488 bits


def _prime_ladder():
    p = _WORD_PRIME_LIMIT - 1
    while True:
        while not is_prime(p):
            p -= 2
        yield p
        p -= 2


@dataclass(frozen=True)
class PolyRecurrence:
    """sum_j p_j(n) s(n+j) = 0 with exact rational polynomial coefficients.

    coefficients[j][t] is the degree-t coefficient of p_j; the first nonzero
    polynomial has leading value 1.
    """

    order: int
    degree: int
    coefficients: tuple[tuple[Fraction, ...], ...]

    def poly_value(self, j: int, n: int) -> Fraction:
        acc = Fraction(0)
        for t in range(self.degree, -1, -1):
            acc = acc * n + self.coefficients[j][t]
        return acc

    def verify(self, seq) -> bool:
        """Exact check of every supplied term, in integers: the coefficients
        are scaled once by the lcm of their denominators."""
        scale = lcm(*(c.denominator for row in self.coefficients for c in row))
        polys = [[int(c * scale) for c in reversed(row)] for row in self.coefficients]
        for n in range(len(seq) - self.order):
            total = 0
            for j, poly in enumerate(polys):
                acc = 0
                for c in poly:
                    acc = acc * n + c
                total += acc * seq[n + j]
            if total:
                return False
        return True

    def extend(self, seq, count: int) -> list[int]:
        """Forward-predict terms after seq using the recurrence."""
        values = list(seq)
        r = self.order
        for _ in range(count):
            n = len(values) - r
            lead = self.poly_value(r, n)
            if lead == 0:
                raise ZeroDivisionError(f"leading polynomial vanishes at n={n}")
            total = sum(self.poly_value(j, n) * values[n + j] for j in range(r))
            nxt = -total / lead
            if nxt.denominator != 1:
                raise ArithmeticError(f"non-integer prediction at n={n}")
            values.append(nxt.numerator)
        return values[len(seq):]


def _rref_mod(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod a prime p < 2^31, by int64 rank-1 updates;
    returns (rows, pivot column list)."""
    if p >= _WORD_PRIME_LIMIT:
        raise ValueError(f"p = {p} is not below 2^31; int64 products would overflow")
    rows = np.array(matrix, dtype=np.int64) % p
    n_rows, n_cols = rows.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        nonzero = np.flatnonzero(rows[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        rows[[r, pivot]] = rows[[pivot, r]]
        rows[r] = rows[r] * pow(int(rows[r, c]), -1, p) % p
        col = rows[:, c].copy()
        col[r] = 0
        rows -= np.outer(col, rows[r])  # each product is below p^2 < 2^62
        rows %= p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def _nullspace_vector_mod(matrix, p):
    """Deterministic nullspace sample mod p: last free column set to 1."""
    rows, pivots = _rref_mod(matrix, p)
    n_cols = rows.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    if not free:
        return None, pivots
    choice = free[-1]
    vec = [0] * n_cols
    vec[choice] = 1
    for pc, x in zip(pivots, rows[:, choice].tolist()):
        vec[pc] = -x % p
    return vec, pivots


def _crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> int:
    h = (res_b - res_a) * pow(mod_a, -1, mod_b) % mod_b
    return res_a + mod_a * h


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    """n/d = a (mod m) with |n|, d <= sqrt(m/2), via the half-extended Euclid."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or t1 == 0:
        return None
    if gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)


def fit(seq, order: int, degree: int) -> PolyRecurrence | None:
    """Fit sum_j p_j(n) s(n+j) = 0 with deg p_j <= degree, exactly.

    Needs (order+1)(degree+1) + order + 10 terms; returns None when only the
    zero solution exists.  The returned recurrence is verified against every
    supplied term before being returned.
    """
    seq = [int(x) for x in seq]
    unknowns = (order + 1) * (degree + 1)
    needed = unknowns + order + _OVERDETERMINATION_MARGIN
    if len(seq) < needed:
        raise ValueError(f"need at least {needed} terms, got {len(seq)}")
    n_rows = len(seq) - order

    def build_rows(p):
        # Row n holds seq[n+j] n^t mod p in column j (degree+1) + t.  The int64
        # products need p < 2^31, which _rref_mod checks before using them.
        values = np.array([[seq[n + j] % p for j in range(order + 1)] for n in range(n_rows)],
                          dtype=np.int64)
        powers = np.ones((n_rows, degree + 1), dtype=np.int64)
        ns = np.arange(n_rows, dtype=np.int64) % p
        for t in range(1, degree + 1):
            powers[:, t] = powers[:, t - 1] * ns % p
        return (values[:, :, None] * powers[:, None, :] % p).reshape(n_rows, -1)

    ladder = _prime_ladder()
    best = None  # (-rank, pivot list) of the primes in the CRT
    for _ in range(_MAX_PRIMES):
        p = next(ladder)
        vec, pivots = _nullspace_vector_mod(build_rows(p), p)
        if vec is None:
            return None  # full column rank mod p, hence over Q
        # Mod p every prefix of the columns has at most its rank over Q, so a
        # lucky prime has the longest pivot list and, among lists that long,
        # the lexicographically least: keep the primes with the best key.
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, combined, modulus = key, vec, p
        elif key == best:
            combined = [_crt(x, modulus, y, p) for x, y in zip(combined, vec)]
            modulus *= p
        else:
            continue
        rationals = [_rational_reconstruct(x, modulus) for x in combined]
        if any(v is None for v in rationals):
            continue
        candidate = _normalize(order, degree, rationals)
        if candidate is not None and candidate.verify(seq):
            return candidate
    raise ArithmeticError("modular fitting did not stabilize; sequence too large?")


def _normalize(order, degree, flat) -> PolyRecurrence | None:
    coeffs = [
        [flat[j * (degree + 1) + t] for t in range(degree + 1)] for j in range(order + 1)
    ]
    scale = None
    for j in range(order + 1):
        nz = [t for t in range(degree, -1, -1) if coeffs[j][t] != 0]
        if nz:
            scale = coeffs[j][nz[0]]
            break
    if scale is None:
        return None
    coeffs = tuple(tuple(c / scale for c in row) for row in coeffs)
    actual_degree = max(
        (t for row in coeffs for t in range(degree + 1) if row[t] != 0), default=0
    )
    return PolyRecurrence(order, actual_degree, tuple(tuple(row[: actual_degree + 1]) for row in coeffs))


def check_self_duality_symmetry(rec: PolyRecurrence) -> bool:
    """Exact test of p_j(n) = -p_{4-j}(-5-n) across all five coefficients.

    Both sides are polynomials of degree <= rec.degree, so agreement at the
    degree + 1 points n = 0..degree makes them equal.  The identity for j is
    the one for 4 - j with n -> -5 - n, so j <= 2 covers all five.  It is
    invariant under the global scalar normalization the fitter applies, so it
    can be checked directly.
    """
    if rec.order != 4:
        raise ValueError("symmetry check applies to order-4 recurrences only")
    return all(
        rec.poly_value(j, n) == -rec.poly_value(4 - j, -5 - n)
        for j in range(3)
        for n in range(rec.degree + 1)
    )
