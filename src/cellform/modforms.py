"""Fourier coefficients of the relevant newforms by three independent routes:
a Gaussian-integer closed form coming from Hecke characters of Q(i), eta
product q-expansions (sparse multiplies by Euler's pentagonal series), and
Legendre-curve point counts: one correlation in `kernels.legendre_traces`
gives every lambda at p, and `legendre_trace` evaluates one curve's cubic
directly.  The tests hold the kernel to `legendre_trace`, and it to the plain
sum of characters that is the naive oracle of both.

The weight-k CM coefficient at an odd prime p is
    (-1)^((x+y-1)(k-1)/2) [(x+iy)^(k-1) + (x-iy)^(k-1)]   for p = x^2+y^2, x odd,
and 0 for p = 3 mod 4.  No floating point appears anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from ._primes import check_prime
from .kernels import legendre_traces


def two_squares(p: int) -> tuple[int, int]:
    """(x, y) with p = x^2 + y^2, x odd and y even, both positive; it is unique."""
    check_prime(p)
    if p % 4 != 1:
        raise ValueError(f"no two-squares decomposition: {p} != 1 (mod 4)")
    for x in range(1, isqrt(p) + 1, 2):
        y2 = p - x * x
        y = isqrt(y2)
        if y * y == y2:
            return x, y
    raise AssertionError(f"no decomposition found for prime {p} = 1 (mod 4)")


def gamma_cm(k: int, p: int) -> int:
    """Prime coefficient of the weight-k CM newform attached to Q(i)."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    check_prime(p)
    if p % 4 == 3:
        return 0
    x, y = two_squares(p)
    e = k - 1
    # Re (x + iy)^e: the even binomial terms, i^t = (-1)^(t/2)
    re = sum((-1) ** (t // 2) * comb(e, t) * x ** (e - t) * y**t for t in range(0, e + 1, 2))
    sign = -1 if ((x + y - 1) * e // 2) % 2 else 1
    return sign * 2 * re


def gamma_cm_power_identity(k: int, m: int, p: int) -> bool:
    """m-th powers of prime coefficients expand over higher weights with
    p-power binomial weights, plus a central term when p = 1 (mod 4), m even."""
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    lhs = gamma_cm(k, p) ** m
    rhs = sum(
        comb(m, t) * p ** (t * (k - 1)) * gamma_cm((m - 2 * t) * (k - 1) + 1, p)
        for t in range((m - 1) // 2 + 1)
    )
    if p % 4 == 1 and m % 2 == 0:
        rhs += comb(m, m // 2) * p ** ((m // 2) * (k - 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Eta products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaProductSpec:
    """prod_i eta(m_i z)^{e_i}; the leading q-power sum(m_i e_i)/24 must be integral."""

    factors: tuple[tuple[int, int], ...]

    @property
    def leading_power(self) -> int:
        total = sum(m * e for m, e in self.factors)
        if total % 24 != 0 or total <= 0:
            raise ValueError("leading q-power must be a positive integer")
        return total // 24


ETA12_2Z = EtaProductSpec(((2, 12),))      # weight 6, level 4
ETA6_4Z = EtaProductSpec(((4, 6),))        # weight 3, level 16
ETA4_2Z_4Z = EtaProductSpec(((2, 4), (4, 4)))  # weight 4, level 8


def eta_qexp(spec: EtaProductSpec, n_max: int) -> list[int]:
    """Exact integer q-expansion of an eta product: index n holds the q^n
    coefficient, for n up to n_max.  Each power of prod_j (1 - q^(scale j)) is
    one int64 multiply by the pentagonal series sum_k (-1)^k q^(scale k(3k-1)/2);
    OverflowError is raised before any multiply whose sums could reach 2^63."""
    shift = spec.leading_power
    length = max(n_max + 1 - shift, 1)
    prod = np.zeros(length, dtype=np.int64)
    prod[0] = 1
    for scale, exponent in spec.factors:
        ks = range(-isqrt(length), isqrt(length) + 1)  # k(3k-1)/2 >= k^2
        terms = [(e, (-1) ** abs(k)) for k in ks if (e := scale * k * (3 * k - 1) // 2) < length]
        for _ in range(exponent):
            if int(np.abs(prod).max()) * (len(terms) + 1) >= 2**63:
                raise OverflowError(f"eta_qexp{spec.factors} to q^{n_max} could pass 2^63 in int64")
            nxt = np.zeros_like(prod)
            for e, sign in terms:
                nxt[e:] += sign * prod[: length - e]
            prod = nxt
    return ([0] * shift + prod.tolist())[: n_max + 1]


# ---------------------------------------------------------------------------
# Legendre point counts
# ---------------------------------------------------------------------------

def legendre_trace(p: int, lam: int) -> int:
    """a(p, lambda) = p + 1 - #E_lambda(F_p) for y^2 = x(x-1)(x-lambda): the
    cubic at every x of F_p, reduced after each product, looked up in a table
    of squares."""
    check_prime(p)
    lam %= p
    if lam in (0, 1):
        raise ValueError("lambda must avoid 0 and 1")
    xs = np.arange(p, dtype=np.int64)
    square = np.zeros(p, dtype=np.bool_)
    square[xs * xs % p] = True
    cubic = xs * (xs - 1) % p * (xs - lam) % p
    # phi is 0 at the roots 0, 1 and lambda; at each other x, +1 where the cubic is a square, else -1
    squares = int(np.count_nonzero(square[cubic])) - 3
    a = p - 3 - 2 * squares
    if a * a > 4 * p:
        raise AssertionError(f"Hasse bound violated: |{a}| > 2 sqrt({p})")
    return a


def gamma_eta12_pointcount(p: int) -> int:
    """Weight-6 prime coefficient from quartic moments of the Legendre traces."""
    traces = legendre_traces(p)
    quartic = int(np.sum(traces.astype(object) ** 4)) if traces.size else 0
    return 2 * p**3 - 4 * p**2 - 9 * p - 3 - quartic
