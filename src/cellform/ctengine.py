"""Linear-form models of cellular-integral integrands and their constant terms.

For a convergent sigma on N points, normalizing three marked points to 1, 0,
infinity turns the integrand's numerator into a product of N-2 interval sums
x_{a,b} = x_a + ... + x_b over d = N-2 nonnegative variables, while the
denominator collapses to the monomial x_1...x_d.  The leading coefficient is
then the coefficient of (x_1...x_d)^n in the n-th power of that product,
extracted exactly by an interval sweep: factors are consumed sorted by left
endpoint, exponents are capped at n, and a variable is projected out with its
exponent pinned to n as soon as its last covering factor has been consumed;
one sweep plan per model fixes that schedule.  Digits sit in the packed keys
by closing rank, so a closing step reads and drops only its closing digits,
the lowest ones.  All coefficients are arbitrary-precision integers.  The
model swept is the one of the 2N seat images of a class's representative
whose sweep is estimated to do the least work at the reference n = 10
(_RANK_N), whatever n is asked for.
"""
from __future__ import annotations

import functools
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

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        d = len(self.factors)  # one factor per variable
        covered = set()
        for a, b in self.factors:
            if not (1 <= a <= b <= d):
                raise ModelError(f"interval ({a},{b}) out of range")
            covered.update(range(a, b + 1))
        if covered != set(range(1, d + 1)):
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
    return IntervalFormProduct(_interval_factors(seq))


# ---------------------------------------------------------------------------
# Constant-term sweep
# ---------------------------------------------------------------------------

def _linear_pass(state, weights, n):
    """Multiply the state once by the sum of the variables at the given digit
    weights, dropping every term whose exponent would pass the cap n.

    The digit at weight w is below n exactly when key % (w*(n+1)) < n*w,
    since every digit is at most n: one test per weight and term."""
    new = {}
    get = new.get
    items = state.items()
    for w in weights:
        span = w * (n + 1)
        cap = n * w
        for key, coef in items:
            if key % span < cap:
                k2 = key + w
                new[k2] = get(k2, 0) + coef
    return new


def _last_cover(factors) -> list[int]:
    """last[v-1]: index of the last of the sorted factors to cover variable v
    (a model has as many variables as factors)."""
    last = [0] * len(factors)
    for i, (a, b) in enumerate(factors):
        last[a - 1 : b] = [i] * (b - a + 1)
    return last


def _sweep_plan(factors) -> list[tuple[list[int], int]]:
    """The sweep's schedule: one step (positions, closing) per factor.

    Factors are consumed by left endpoint.  A variable's digit sits in the
    packed keys by closing rank, the order in which the variables are covered
    for the last time, so the closing variables of every step hold its lowest
    digits: the step's factor covers the digits in positions, and the lowest
    closing of them are dropped after it."""
    factors = sorted(factors)
    last = _last_cover(factors)
    rank = [0] * len(last)
    for r, v in enumerate(sorted(range(len(last)), key=last.__getitem__)):
        rank[v] = r
    plan = []
    closed = 0
    for i, (a, b) in enumerate(factors):
        closing = last.count(i)
        plan.append(([rank[v] - closed for v in range(a - 1, b)], closing))
        closed += closing
    return plan


def _closing_multiply(state, positions, closing, n, fact):
    """Multiply by a factor power while pinning the closing variables to n.

    The closing digits are the lowest ones, so one divmod splits each key into
    the surviving key and the pattern of closing digits.  Each closing
    variable's share of the factor is forced by the pattern, the remaining
    degree r is spread over the factor's surviving variables with multinomial
    weights, and the weight and bucket of a pattern are worked out once.
    """
    base = n + 1
    low = base ** closing
    open_w = [base ** (p - closing) for p in positions if p >= closing]

    # Pin the closing exponents: each term lands in a bucket by the leftover
    # degree r its factor share must spread over the surviving variables.
    buckets: dict[int, dict[int, int]] = {}
    shares: dict[int, tuple] = {}
    for key, coef in state.items():
        rest, pattern = divmod(key, low)
        share = shares.get(pattern)
        if share is None:
            r = n - closing * n
            outer = fact[n]
            digits = pattern
            for _ in range(closing):
                digits, dg = divmod(digits, base)
                r += dg
                outer //= fact[n - dg]
            share = shares[pattern] = (buckets.setdefault(r, {}), outer // fact[r]) if r >= 0 else ()
        if share:
            bucket, outer = share
            bucket[rest] = bucket.get(rest, 0) + coef * outer

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

    # terms maps packed exponent keys (base n+1 digits <= n, one per variable
    # not yet closed, by closing rank) to integer coefficients; a variable's
    # digit is dropped at its closing step, where only its exponent-n terms
    # survive.
    terms = {0: 1}
    for positions, closing in _sweep_plan(model.factors):
        if closing:
            terms = _closing_multiply(terms, positions, closing, n, fact)
        else:
            weights = [(n + 1) ** p for p in positions]
            for _ in range(n):
                terms = _linear_pass(terms, weights, n)
    # The unspecialized final variable is pinned by homogeneity, never filtered;
    # anything left off-lattice here is an engine bug.
    if any(k != 0 for k in terms):
        raise ModelError("sweep failed to close all variables")
    return terms.get(0, 0)


# The exponent bound at which plans are ranked; a constant, so a class always
# gets the same model.
_RANK_N = 10


@functools.cache
def _lattice_count(width: int, n: int, total: int) -> int:
    """Exponent vectors in [0, n]^width with the given total degree."""
    if width == 0 or total <= 0:
        return int(total == 0)
    return sum(_lattice_count(width - 1, n, total - e) for e in range(min(n, total) + 1))


@functools.cache
def _step_cost(width: int, covered: int, closing: int, filled: int) -> int:
    """Estimated dict operations of one sweep step at n = _RANK_N.

    The state entering the step has total degree filled*n over width open
    variables and is counted as every such exponent vector.  A non-closing
    step makes n linear passes; a closing step makes one bucket pass and then
    a Horner pass per leftover degree over its surviving variables."""
    n = _RANK_N
    total = filled * n
    if not closing:
        return covered * sum(_lattice_count(width, n, total + j) for j in range(n))
    out = total + n - closing * n
    horner = sum(_lattice_count(width - closing, n, out - r) for r in range(1, n + 1))
    return _lattice_count(width, n, total) + (covered - closing) * horner


def _sweep_cost(factors: tuple[tuple[int, int], ...]) -> int:
    """Estimated work of the sweep over sorted factors: its steps' costs."""
    last = _last_cover(factors)
    cost = top = closed = 0
    for i, (a, b) in enumerate(factors):
        top = max(top, b)
        closing = last.count(i)
        cost += _step_cost(top - closed, b - a + 1, closing, i - closed)
        closed += closing
    return cost


def best_model(c: Configuration) -> IntervalFormProduct:
    """Cheapest-to-sweep model among the dihedral representatives of c.

    The constant term does not depend on the representative (tested as a
    package invariant), so the model whose sweep is estimated to do the least
    work at the reference n = 10 (_RANK_N) is used, ties going to the smaller
    factor tuple.  The estimate counts each step's state as every exponent
    vector of its width and total degree: a non-closing step costs n linear
    passes over its covered digits, and a closing step one bucket pass, which
    reads only the closing digits, plus its Horner passes.  Only the 2N seat
    images count: a dihedral relabelling of the values permutes the cyclic
    pairs (j, j+1) and moves v_inf with them, and it leaves the seat positions
    alone, so the interval set is the same.  Only the winner is built and
    validated as a product.
    """
    seq = _convergent_sigma(c)
    factors = min(map(_interval_factors, dihedral_images(seq)), key=lambda f: (_sweep_cost(f), f))
    return IntervalFormProduct(factors)


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
