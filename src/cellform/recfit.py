"""Exact fitting of linear recurrences with polynomial coefficients.

The overdetermined linear system for the unknown coefficient polynomials is
solved modulo a fixed ladder of 62-bit primes; the nullspace vector is
recovered over Q by CRT plus rational reconstruction and then certified by
exact integer verification against every supplied term.  Only primes whose
pivot columns match the best seen enter the CRT (a rank drop mod p shows in
them); a candidate that fails certification triggers more primes, and
nothing is ever accepted on residual evidence alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from ._primes import is_prime

_OVERDETERMINATION_MARGIN = 10


def _prime_ladder():
    p = (1 << 62) - 57
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
        return all(
            sum(self.poly_value(j, n) * seq[n + j] for j in range(self.order + 1)) == 0
            for n in range(len(seq) - self.order)
        )

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


def _rref_mod(matrix: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rows, pivot column list)."""
    rows = [row[:] for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def _nullspace_vector_mod(matrix, p):
    """Deterministic nullspace sample mod p: last free column set to 1."""
    rows, pivots = _rref_mod(matrix, p)
    n_cols = len(matrix[0])
    free = [c for c in range(n_cols) if c not in pivots]
    if not free:
        return None, pivots
    choice = free[-1]
    vec = [0] * n_cols
    vec[choice] = 1
    for row, pc in zip(rows, pivots):
        vec[pc] = -row[choice] % p
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
        rows = []
        for n in range(n_rows):
            row = []
            for j in range(order + 1):
                val = seq[n + j] % p
                npow = 1
                for _ in range(degree + 1):
                    row.append(val * npow % p)
                    npow = npow * n % p
            rows.append(row)
        return rows

    ladder = _prime_ladder()
    best = None  # (-rank, pivot list) of the primes in the CRT
    for _ in range(24):  # plenty for desk-scale coefficient sizes
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
