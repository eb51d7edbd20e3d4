"""Multiplicative character tables over F_p and finite-field hypergeometric
sums restricted to quadratic/trivial parameters.

The character sums are evaluated exactly in one prime field F_q with
q = 1 (mod p-1), where an element of order p-1 stands in for the root of
unity zeta_(p-1); a bound on the Jacobi sums makes the symmetric lift of the
result the exact integer numerator over p^(n+1).  The Legendre point-count
route provides an independent value for the 2F1 case.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from ._primes import _phi, check_prime, is_prime, primes_up_to
from .modforms import legendre_trace
from .sequences import _binomial_pair_residues, _harmonic_window_residues


def _element_of_order(n: int, m: int) -> int:
    """The first g^((m-1)/n), g = 2, 3, ..., of order exactly n mod the prime m."""
    prime_factors = [r for r in primes_up_to(n) if n % r == 0]
    candidates = (pow(g, (m - 1) // n, m) for g in range(2, m))
    return next(w for w in candidates if all(pow(w, n // r, m) != 1 for r in prime_factors))


def build_table(p: int) -> tuple[int, tuple[int, ...]]:
    """(g, dlog): the least primitive root g mod p and the discrete logs over it,
    with g^dlog[x] = x for x in 1..p-1 (dlog[0] is unused)."""
    check_prime(p)
    g = _element_of_order(p - 1, p)
    dlog = [0] * p
    acc = 1
    for e in range(p - 1):
        dlog[acc] = e
        acc = acc * g % p
    return g, tuple(dlog)


# ---------------------------------------------------------------------------
# Character values in one prime field
#
# chi_j(x) = zeta^(j dlog x) with zeta = zeta_(p-1).  The numerator
# N = p^(n+1) (n+1)F(n)(x) = p/(p-1) sum_chi J_chi^(n+1) chi(x), with the Jacobi
# sums J_chi = p C(phi chi, chi) in Z[zeta].  Expanding the J_chi and summing
# over chi by orthogonality gives (p-1) times a character sum over F_p^(n+1),
# so N is a rational integer; each |J_chi| is sqrt(p) or 1 (Weil), so
# |N| <= p^((n+3)/2).  For a prime q = 1 (mod p-1) and omega of order exactly
# p-1 in F_q, zeta -> omega is a ring map Z[zeta] -> F_q, and q > 2 p^(7/2)
# makes the symmetric lift of N mod q equal to N for every n <= 4.
# ---------------------------------------------------------------------------

def _character_field(p: int) -> tuple[int, list[int]]:
    """A prime q = 1 (mod p-1) above 2 p^(7/2), and omega^t for t < p-1."""
    order = p - 1
    q = (2 * isqrt(p**7) // order + 1) * order + 1
    while not is_prime(q):
        q += order
    omega = _element_of_order(order, q)
    powers = [1] * order
    for t in range(1, order):
        powers[t] = powers[t - 1] * omega % q
    return q, powers


def _greene_binomials(dlog: tuple[int, ...], q: int, powers: list[int]) -> list[int]:
    """Jacobi sums J_chi = p C(phi*chi, chi) mod q for every chi.

    C(A, B) = B(-1)/p sum_x A(x) conj(B)(1-x); terms with a zero character
    value drop out.
    """
    p = len(dlog)
    order = p - 1
    phi = order // 2
    dlog_m1 = dlog[p - 1]  # dlog(-1)
    # (dlog x, dlog(1-x)); x=0 kills A(x) and x=1 kills conj(B)(1-x)
    pairs = [(dlog[x], dlog[p + 1 - x]) for x in range(2, p)]
    out = []
    for j in range(order):
        a_idx = (phi + j) % order
        total = sum(powers[(a_idx * u - j * v) % order] for u, v in pairs)
        out.append(powers[j * dlog_m1 % order] * total % q)
    return out


@lru_cache(maxsize=1)
def _jacobi_sums(p: int) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]:
    """(dlog, q, omega powers, Jacobi sums) for p, kept for the last p only.

    Building them costs O(p^2); every Greene sum at the same p reuses them.
    """
    _, dlog = build_table(p)
    q, powers = _character_field(p)
    return dlog, q, tuple(powers), tuple(_greene_binomials(dlog, q, powers))


def hyp_greene(p: int, n_upper: int, x: int) -> Fraction:
    """(n+1)F(n) at x with all upper parameters quadratic and lower trivial.

    Evaluates p/(p-1) sum_chi C(phi chi, chi)^(n+1) chi(x) exactly: its
    numerator over p^(n+1) is computed in one prime field F_q and lifted
    symmetrically, which the bound on the Jacobi sums makes exact.
    """
    if not 1 <= n_upper <= 4:
        raise ValueError("supported range is 2F1 through 5F4")
    dlog, q, powers, binoms = _jacobi_sums(p)
    x %= p
    if x == 0:
        return Fraction(0)  # chi(0) = 0 for every chi, including the trivial one
    dlog_x = dlog[x]
    total = sum(pow(b, n_upper + 1, q) * powers[j * dlog_x % (p - 1)] for j, b in enumerate(binoms))
    numerator = p * pow(p - 1, -1, q) * total % q
    if numerator > q // 2:
        numerator -= q
    return Fraction(numerator, p ** (n_upper + 1))


def hyp2f1_from_trace(p: int, trace: int) -> Fraction:
    """2F1 at lambda from the Legendre trace a(p,lambda): -phi(-1) a(p,lambda) / p."""
    return Fraction(-_phi(p, -1) * trace, p)


def hyp2f1_exact(p: int, lam: int) -> Fraction:
    """2F1 at lambda through the elliptic point count of `modforms.legendre_trace`."""
    return hyp2f1_from_trace(p, legendre_trace(p, lam))


def teichmuller(x: int, p: int, n: int) -> int:
    """The multiplicative lift of x mod p to Z/p^n: x^(p^(n-1)) mod p^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= x < p:
        raise ValueError("x must lie in 0..p-1")
    return pow(x, p ** (n - 1), p**n)


def truncated_2f1_reference(p: int, lam: int) -> int:
    """Exact residue the truncated sum is congruent to: -phi(-1) phi(-lam) p 2F1(1/lam).

    The extra phi(-1) relative to the bare -phi(-lam) p 2F1(1/lam) lift is
    forced by the lambda = 1 special value together with
    sum_j (-1)^j C(m,j) C(m+j,j) = (-1)^m; it is invisible for p = 1 (mod 4)
    and cancels entirely in fourth powers.
    """
    lam %= p
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    p2 = p * p
    sign = -_phi(p, -1) * _phi(p, (-lam) % p)
    if lam == 1:
        p_2f1 = -_phi(p, -1)  # p * 2F1(1)
    else:
        p_2f1 = int(p * hyp2f1_exact(p, pow(lam, -1, p)))
    return sign * p_2f1 % p2


@lru_cache(maxsize=1)
def _truncation_residues(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """C(m,j) C(m+j,j) mod p^2 and (H_{m+j} - H_j) mod p for j <= m = (p-1)/2,
    kept for the last p only: they do not depend on lambda."""
    return tuple(_binomial_pair_residues(p, p * p)), tuple(_harmonic_window_residues(p))


def truncated_2f1_mod_p2(p: int, lam: int) -> int:
    """Truncated half-range sum congruent to -phi(-lambda) p 2F1(1/lambda) mod p^2.

    (p+1) sum_j C(m,j) C(m+j,j) (-1)^j (1 + 2jp (H_{m+j} - H_j)) omega(lambda)^j
    with m = (p-1)/2 and omega the multiplicative lift mod p^2.
    """
    check_prime(p, least=5)
    lam %= p
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    p2 = p * p
    omega = teichmuller(lam, p, 2)
    total = 0
    om_pow = 1
    pairs, windows = _truncation_residues(p)
    for j, (pair, hw) in enumerate(zip(pairs, windows)):
        term = pair * (1 + 2 * j * p * hw) % p2
        if j % 2:
            term = -term
        total = (total + term * om_pow) % p2
        om_pow = om_pow * omega % p2
    return (p + 1) * total % p2
