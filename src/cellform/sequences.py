"""Closed-form binomial sequences, exact harmonic numbers and their residues,
and the elementary congruence checkers that back the supercongruence proofs.

`apery_a` and `apery_b` are the direct binomial sums: they define the two
Apery sequences and serve as test oracles.  The verifiers evaluate them with
`apery_values`, one pass of the three-term recurrence with every division
checked to be exact.  `a_sigma8` squares one packed big integer;
`a_sigma8_mod` gives its residue from word-size convolutions.  The lemma
checks are direct sums in exact integer or residue arithmetic (three as numpy
products mod p), so they stay independent of clever identities.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm, prod

import numpy as np

from ._primes import check_prime


def apery_a(n: int) -> int:
    """sum_k C(n,k)^2 C(n+k,k), the zeta(2) sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def apery_b(n: int) -> int:
    """sum_k C(n,k)^2 C(n+k,k)^2, the zeta(3) sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def apery_values(which: str, n_max: int) -> list[int]:
    """[u(0), ..., u(n_max)] for u = apery_a ("a") or apery_b ("b"), in one
    pass of Apery's three-term recurrence; every division is checked exact."""
    if which not in ("a", "b"):
        raise ValueError("which must be 'a' or 'b'")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = [1]
    prev, cur = 0, 1
    for n in range(n_max):
        if which == "a":  # (n+1)^2 u+ = (11n^2+11n+3) u + n^2 u-
            num, den = (11 * n * n + 11 * n + 3) * cur + n * n * prev, (n + 1) ** 2
        else:  # (n+1)^3 u+ = (34n^3+51n^2+27n+5) u - n^3 u-
            num, den = (34 * n**3 + 51 * n * n + 27 * n + 5) * cur - n**3 * prev, (n + 1) ** 3
        nxt, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"apery_values({which!r}): inexact division at n={n}")
        values.append(nxt)
        prev, cur = cur, nxt
    return values


def a_sigma8(n: int) -> int:
    """Constrained quadruple sum over k_i <= n with k1+k2 = k3+k4 of
    prod C(n,k_i) C(n+k_i,k_i) = sum_s conv(s)^2, conv the self-convolution
    of c_k = C(n,k) C(n+k,k).

    conv is read off one big-integer square (Kronecker substitution): the c_k
    go into byte-aligned slots wide enough for any entry of conv, at most
    (n+1) max(c)^2, so no slot carries into the next.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = [comb(n, k) * comb(n + k, k) for k in range(n + 1)]
    width = (2 * max(c).bit_length() + (n + 1).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(ck.to_bytes(width, "little") for ck in c), "little")
    square = (packed * packed).to_bytes((2 * n + 1) * width, "little")
    return sum(
        int.from_bytes(square[i : i + width], "little") ** 2
        for i in range(0, len(square), width)
    )


def _residue_dtype(terms: int, modulus: int):
    """int64 while `terms` products of two residues mod modulus sum below 2^63, else object."""
    return np.int64 if terms * (modulus - 1) ** 2 < 2**63 else object


def a_sigma8_mod(n: int, m: int) -> int:
    """a_sigma8(n) mod m, from the residues c_k mod m: one convolution, each
    entry reduced, then the sum of their squares mod m.

    The c_k come from c_0 = 1 by the exact ratio c_(k+1) = c_k (n-k)(n+k+1) / (k+1)^2.
    The convolution sums n+1 products below (m-1)^2 (see `_residue_dtype`).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be positive")
    residues, ck = [], 1
    for k in range(n + 1):
        residues.append(ck % m)
        ck, rem = divmod(ck * (n - k) * (n + k + 1), (k + 1) ** 2)
        if rem:
            raise ArithmeticError(f"a_sigma8_mod: inexact ratio at n={n}, k={k}")
    c = np.array(residues, dtype=_residue_dtype(n + 1, m))
    conv = np.convolve(c, c) % m
    return sum((conv * conv % m).tolist()) % m


def rising_factorial(a: int, n: int) -> int:
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return prod(range(a, a + n))


def harmonic(n: int) -> Fraction:
    """H_n = sum_{j<=n} 1/j as an exact rational, H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    den = lcm(*range(1, n + 1))
    return Fraction(sum(den // j for j in range(1, n + 1)), den)


def _harmonic_residues(n: int, modulus: int) -> list[int]:
    """[H_0, ..., H_n] mod modulus, as prefix sums of inverses; valid while n is
    below every prime factor of modulus."""
    inverses = (pow(j, -1, modulus) for j in range(1, n + 1))
    return list(accumulate(inverses, lambda h, inv: (h + inv) % modulus, initial=0))


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

def _check_half_factorial_fourth_power(p: int) -> bool:
    # ((p-1)/2)!^4 == 1 (mod p)
    return pow(factorial((p - 1) // 2), 4, p) == 1


def _check_central_binomial(p: int) -> bool:
    # C(p-1, (p-1)/2) == (-1)^((p-1)/2) 2^(2p-2) (mod p^2)
    m = (p - 1) // 2
    p2 = p * p
    lhs = comb(p - 1, m) % p2
    rhs = (-1) ** m * pow(2, 2 * p - 2, p2) % p2
    return lhs == rhs


def _check_fermat_quotient(p: int) -> bool:
    # 2^(p-1) - 1 == p (1 + 1/3 + ... + 1/(p-2)) (mod p^2)
    p2 = p * p
    s = sum(pow(j, -1, p2) for j in range(1, p - 1, 2))
    return (pow(2, p - 1, p2) - 1) % p2 == p * s % p2


def _check_wolstenholme(p: int) -> bool:
    # H_{p-1} == 0 (mod p^2), p > 3
    return _harmonic_residues(p - 1, p * p)[-1] == 0


def _check_two_power_harmonic(p: int) -> bool:
    # 2^(2p-2) == 1 - p H_{(p-1)/2} (mod p^2), p > 3
    p2 = p * p
    rhs = (1 - p * _harmonic_residues((p - 1) // 2, p2)[-1]) % p2
    return pow(2, 2 * p - 2, p2) == rhs


def _check_pochhammer_square_sum(p: int) -> bool:
    # sum_{k=0}^{p-1} (k+1)_m^2 == -1 (mod p)
    m = (p - 1) // 2
    total = sum((rising_factorial(k + 1, m) % p) ** 2 for k in range(p))
    return total % p == p - 1


def _harmonic_window_residues(p: int) -> list[int]:
    """(H_{m+k} - H_k) mod p for 0 <= k <= m."""
    m = (p - 1) // 2
    h = _harmonic_residues(p - 1, p)
    return [(h[m + k] - h[k]) % p for k in range(m + 1)]


def _check_harmonic_quadruple_sum(p: int) -> bool:
    # sum over k_i <= m, sum k_i = p-1 of [prod (k_i+1)_m^2] (H_{m+k4} - H_k4) == 0 (mod p):
    # the x^(p-1) coefficient of P(x)^3 (P hw)(x), P = sum_k (k+1)_m^2 x^k, a sum of p products
    m = (p - 1) // 2
    dtype = _residue_dtype(p, p)
    poch = np.array([rising_factorial(k + 1, m) ** 2 % p for k in range(m + 1)], dtype=dtype)
    hw = np.array(_harmonic_window_residues(p), dtype=dtype)
    square = np.convolve(poch, poch) % p
    weighted = np.convolve(poch, poch * hw % p) % p
    return int(np.dot(square, weighted[::-1])) % p == 0


def _binomial_pair_residues(p: int, modulus: int) -> list[int]:
    m = (p - 1) // 2
    return [comb(m, k) * comb(m + k, k) % modulus for k in range(m + 1)]


def _check_constrained_sum_equivalence(p: int) -> bool:
    # Quadruple sum with sum k_i = p-1 matches the one with k1+k2 = k3+k4 (mod p^2).
    # x = the self-convolution of C(m,k) C(m+k,k), p entries x[0..p-1]; both sums have p terms
    p2 = p * p
    cb = np.array(_binomial_pair_residues(p, p2), dtype=_residue_dtype(p, p2))
    x = np.convolve(cb, cb) % p2
    return int(np.dot(x, x[::-1])) % p2 == int(np.dot(x, x)) % p2


def _check_binomial_to_pochhammer(p: int) -> bool:
    # C(m+k,k) == (k+1)_m / m! and C(m,k) C(m+k,k) == (-1)^k ((k+1)_m / m!)^2 (mod p)
    m = (p - 1) // 2
    inv_mfact = pow(factorial(m) % p, -1, p)
    for k in range(m + 1):
        poch = rising_factorial(k + 1, m) * inv_mfact % p
        if comb(m + k, k) % p != poch:
            return False
        if comb(m, k) * comb(m + k, k) % p != (-1) ** k * poch * poch % p:
            return False
    return True


def _check_reflected_binomial(p: int) -> bool:
    # C(p-1-k, m) == (-1)^m C(m+k, k) (mod p)
    m = (p - 1) // 2
    return all(
        comb(p - 1 - k, m) % p == (-1) ** m * comb(m + k, k) % p for k in range(m + 1)
    )


def _check_power_sums(p: int) -> bool:
    # sum_{j=1}^{p-1} j^s == -1 if (p-1) | s else 0 (mod p), for 1 <= s <= 2(p-1)
    power = j = np.array(range(1, p), dtype=_residue_dtype(p, p))  # power: j^s mod p
    for s in range(1, 2 * (p - 1) + 1):
        expected = p - 1 if s % (p - 1) == 0 else 0
        if int(power.sum()) % p != expected:
            return False
        power = power * j % p
    return True


LEMMA_CHECKS = {
    "half_factorial_fourth_power": (_check_half_factorial_fourth_power, 3),
    "central_binomial_two_power": (_check_central_binomial, 3),
    "fermat_quotient_odd_harmonic": (_check_fermat_quotient, 3),
    "wolstenholme_harmonic": (_check_wolstenholme, 5),
    "two_power_half_harmonic": (_check_two_power_harmonic, 5),
    "pochhammer_square_sum": (_check_pochhammer_square_sum, 3),
    "harmonic_quadruple_sum": (_check_harmonic_quadruple_sum, 3),
    "constrained_sum_equivalence": (_check_constrained_sum_equivalence, 3),
    "binomial_to_pochhammer": (_check_binomial_to_pochhammer, 3),
    "reflected_binomial": (_check_reflected_binomial, 3),
    "power_sums": (_check_power_sums, 3),
}


def lemma_suite(p: int) -> dict[str, bool | None]:
    """Run every elementary congruence check at an odd prime.

    Returns check name -> True/False, or None where the statement needs p > 3
    and p is 3.
    """
    check_prime(p)
    report: dict[str, bool | None] = {}
    for name, (check, min_p) in LEMMA_CHECKS.items():
        report[name] = check(p) if p >= min_p else None
    return report
