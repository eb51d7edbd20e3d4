"""Linear-form models of cellular-integral integrands and their constant terms.

For a convergent sigma on N points, normalizing three marked points to 1, 0,
infinity turns the integrand's numerator into a product of N-2 interval sums
x_{a,b} = x_a + ... + x_b over d = N-2 nonnegative variables, while the
denominator collapses to the monomial x_1...x_d.  The leading coefficient is
then the coefficient of (x_1...x_d)^n in the n-th power of that product,
extracted exactly by an interval sweep: factors are consumed sorted by left
endpoint, exponents are capped at n, and a variable is projected out with its
exponent pinned to n as soon as its last covering factor has been consumed;
one sweep plan per model fixes that schedule.  All coefficients are
arbitrary-precision integers.  The model swept is the cheapest one given by
the 2N seat images of a class's representative, ranked by their plans.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Catalog
from .configurations import (
    Configuration,
    canonical_configuration,
    dihedral_images,
    format_configuration,
    inverse_permutation,
    is_convergent,
    _as_sigma,
)


class ModelError(RuntimeError):
    """Internal inconsistency in an interval model or during a sweep."""


@dataclass(frozen=True)
class IntervalFormProduct:
    """Multiset of integer intervals standing for prod x_{a,b}."""

    n_vars: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.factors) != self.n_vars:
            raise ModelError("factor count must equal the number of variables")
        covered = set()
        for a, b in self.factors:
            if not (1 <= a <= b <= self.n_vars):
                raise ModelError(f"interval ({a},{b}) out of range")
            covered.update(range(a, b + 1))
        if covered != set(range(1, self.n_vars + 1)):
            raise ModelError("every variable must be covered by some interval")


@dataclass
class SequenceRecord:
    config: Configuration
    terms: list[int]


def _convergent_sigma(sigma) -> tuple[int, ...]:
    seq = _as_sigma(sigma)
    if not is_convergent(seq):
        raise ValueError(f"not a convergent permutation: {seq}")
    return seq


def _interval_factors(seq: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Sorted interval factors of a permutation already known to be convergent."""
    n = len(seq)
    inv = (0,) + inverse_permutation(seq)
    v_inf = seq[-1]
    intervals = []
    for j in range(1, n + 1):
        jn = j % n + 1
        if j == v_inf or jn == v_inf:
            continue
        a, b = inv[j], inv[jn]
        if a > b:
            a, b = b, a
        intervals.append((a, b - 1))
    return tuple(sorted(intervals))


def linear_form_model(sigma) -> IntervalFormProduct:
    """Interval model of the integrand for the literal representative sigma.

    The marked points at seats N-2, N-1, N of sigma go to 1, 0, infinity; seat
    differences become the variables x_i (x_{N-2} kept formal), the two
    numerator factors through the infinite point drop (their ratio against the
    dropped denominator factors tends to 1), and each surviving numerator
    factor z_j - z_{j+1} is +/- one interval sum.
    """
    seq = _convergent_sigma(sigma)
    return IntervalFormProduct(len(seq) - 2, _interval_factors(seq))


# ---------------------------------------------------------------------------
# Constant-term sweep
# ---------------------------------------------------------------------------

def _linear_pass(state, weights, n):
    """Multiply the state once by the sum of the variables at the given digit
    weights, dropping every term whose exponent would pass the cap n."""
    base = n + 1
    new = {}
    get = new.get
    for key, coef in state.items():
        for w in weights:
            if (key // w) % base < n:
                k2 = key + w
                new[k2] = get(k2, 0) + coef
    return new


def _sweep_plan(factors) -> list[tuple[int, int, int, list[int]]]:
    """The sweep's schedule: one step (width, lo, hi, closing) per factor.

    Factors are consumed by left endpoint, so the variables seen so far are
    1..top and the open ones sit in the packed keys in increasing order: a
    step's keys have width digits, its factor covers digits lo..hi-1, and the
    digits in closing (variables it covers last) are dropped after it."""
    factors = sorted(factors)
    last = {v: i for i, (a, b) in enumerate(factors) for v in range(a, b + 1)}
    closes: list[list[int]] = [[] for _ in factors]
    for v, i in last.items():
        closes[i].append(v)
    open_vars: list[int] = []
    top = 0
    plan = []
    for (a, b), closed in zip(factors, closes):
        if b > top:
            open_vars += range(top + 1, b + 1)
            top = b
        lo = open_vars.index(a)
        plan.append((len(open_vars), lo, lo + b - a + 1, [lo + v - a for v in closed]))
        for v in closed:
            open_vars.remove(v)
    return plan


def _closing_multiply(state, step, n, fact):
    """Multiply by a factor power while pinning the closing variables to n.

    The digits come from the plan step.  Each closing variable's share of the
    factor is forced, the remaining degree is spread over the factor's
    surviving variables with multinomial weights, and the closed digits are
    projected out of the packed keys.
    """
    width, lo, hi, closing = step
    base = n + 1
    survivors = [pos for pos in range(width) if pos not in closing]
    kept = [(pos, base ** j) for j, pos in enumerate(survivors)]
    open_w = [w for pos, w in kept if lo <= pos < hi]

    # Pin the closing exponents: each term lands in a bucket by the leftover
    # degree r its factor share must spread over the surviving variables.
    buckets: dict[int, dict[int, int]] = {}
    for key, coef in state.items():
        digits = []
        k = key
        for _ in range(width):
            k, dg = divmod(k, base)
            digits.append(dg)
        r = n
        outer = fact[n]
        for p in closing:
            kk = n - digits[p]
            r -= kk
            outer //= fact[kk]
        if r < 0:
            continue
        outer //= fact[r]
        base_key = 0
        for pos, w in kept:
            base_key += digits[pos] * w
        bucket = buckets.setdefault(r, {})
        bucket[base_key] = bucket.get(base_key, 0) + coef * outer

    if not open_w:
        return buckets.get(0, {})

    # Horner pass: acc = sum_r bucket_r * (x_open1 + ... + x_openk)^r, merging
    # terms after every linear convolution instead of spreading compositions.
    acc: dict[int, int] = {}
    for r in range(max(buckets, default=0), -1, -1):
        if acc:
            acc = _linear_pass(acc, open_w, n)
        for key, coef in buckets.get(r, {}).items():
            acc[key] = acc.get(key, 0) + coef
    return acc


def constant_term(model: IntervalFormProduct, n: int) -> int:
    """Coefficient of (x_1...x_d)^n in the n-th power of the interval product."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    fact = [math.factorial(i) for i in range(n + 1)]

    # terms maps packed exponent keys (base n+1 digits <= n, one per open
    # variable) to integer coefficients; a variable's digit is dropped at its
    # closing step, where only its exponent-n terms survive.
    terms = {0: 1}
    for step in _sweep_plan(model.factors):
        _, lo, hi, closing = step
        if closing:
            terms = _closing_multiply(terms, step, n, fact)
        else:
            weights = [(n + 1) ** p for p in range(lo, hi)]
            for _ in range(n):
                terms = _linear_pass(terms, weights, n)
    # The unspecialized final variable is pinned by homogeneity, never filtered;
    # anything left off-lattice here is an engine bug.
    if any(k != 0 for k in terms):
        raise ModelError("sweep failed to close all variables")
    return terms.get(0, 0)


def _sweep_cost(factors: tuple[tuple[int, int], ...]) -> tuple:
    """Proxy for sweep cost: window widths as the factors are consumed."""
    widths = [width for width, _, _, _ in _sweep_plan(factors)]
    return (max(widths), sum(4 ** w for w in widths))


def best_model(c: Configuration) -> IntervalFormProduct:
    """Cheapest-to-sweep model among the dihedral representatives of c.

    The constant term does not depend on the representative (tested as a
    package invariant), so the narrowest sweep window is used.  Only the 2N
    seat images count: a dihedral relabelling of the values permutes the
    cyclic pairs (j, j+1) and moves v_inf with them, and it leaves the seat
    positions alone, so the interval set is the same.  Only the winner is
    built and validated as a product.
    """
    seq = _convergent_sigma(c)
    factors = min(map(_interval_factors, dihedral_images(seq)), key=lambda f: (*_sweep_cost(f), f))
    return IntervalFormProduct(len(seq) - 2, factors)


def leading_coefficients(c, n_max: int, catalog: Catalog | None = None) -> SequenceRecord:
    """Terms J(0..n_max) for a convergent configuration, cache-backed.

    Only terms are read from the catalog; the model is searched again, since the
    file comes from outside the program and an ``IntervalFormProduct`` cannot
    tell when a stored model belongs to another class.
    """
    if n_max < 0:
        raise ValueError(f"the term count must be nonnegative, got {n_max}")
    config = c if isinstance(c, Configuration) else canonical_configuration(c)
    key = format_configuration(config)
    terms: list[int] = []
    if catalog is not None:
        cached = catalog.get_terms(key)
        if cached is not None:
            terms = cached
    if len(terms) <= n_max:
        model = best_model(config)
        for n in range(len(terms), n_max + 1):
            terms.append(constant_term(model, n))
        if catalog is not None:
            catalog.store(config, model.factors, terms)
    return SequenceRecord(config, terms[: n_max + 1])
