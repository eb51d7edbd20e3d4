"""Linear-form models of cellular-integral integrands and their constant terms.

For a convergent sigma on N points, normalizing three marked points to 1, 0,
infinity turns the integrand's numerator into a product of N-2 interval sums
x_{a,b} = x_a + ... + x_b over d = N-2 nonnegative variables, while the
denominator collapses to the monomial x_1...x_d.  The leading coefficient is
then the coefficient of (x_1...x_d)^n in the n-th power of that product,
extracted exactly by an interval sweep: factors are consumed sorted by left
endpoint, exponents are capped at n, and a variable is projected out with its
exponent pinned to n as soon as its last covering factor has been consumed.
All coefficients are arbitrary-precision integers.  The model swept is the
cheapest one given by the 2N seat images of a class's representative.
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
    inv = [0] * (n + 1)
    for i, v in enumerate(seq):
        inv[v] = i + 1
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


def _linear_multiplies(state, active, fvars, n):
    """Multiply the state by (x_a + ... + x_b)^n as n capped linear passes."""
    weights = [(n + 1) ** active.index(v) for v in fvars]
    for _ in range(n):
        state = _linear_pass(state, weights, n)
    return state


def _closing_multiply(state, active, fvars, closing, n):
    """Multiply by a factor power while pinning the closing variables to n.

    Each closing variable's share of the factor is forced, the remaining
    degree is spread over the factor's surviving variables with multinomial
    weights, and the closed digits are projected out of the packed keys.
    """
    base = n + 1
    idx = {v: j for j, v in enumerate(active)}
    closing_set = set(closing)
    open_f = [v for v in fvars if v not in closing_set]
    new_active = [v for v in active if v not in closing_set]
    new_idx = {v: j for j, v in enumerate(new_active)}
    kept = [(idx[v], base ** new_idx[v]) for v in new_active]
    close_pos = [idx[v] for v in closing]
    open_w = [base ** new_idx[v] for v in open_f]
    fact = [math.factorial(i) for i in range(n + 1)]
    n_active = len(active)

    # Pin the closing exponents: each term lands in a bucket by the leftover
    # degree r its factor share must spread over the surviving variables.
    buckets: dict[int, dict[int, int]] = {}
    for key, coef in state.items():
        digits = []
        k = key
        for _ in range(n_active):
            k, dg = divmod(k, base)
            digits.append(dg)
        r = n
        outer = fact[n]
        for p in close_pos:
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
        return buckets.get(0, {}), new_active

    # Horner pass: acc = sum_r bucket_r * (x_open1 + ... + x_openk)^r, merging
    # terms after every linear convolution instead of spreading compositions.
    acc: dict[int, int] = {}
    for r in range(max(buckets, default=0), -1, -1):
        if acc:
            acc = _linear_pass(acc, open_w, n)
        for key, coef in buckets.get(r, {}).items():
            acc[key] = acc.get(key, 0) + coef
    return acc, new_active


def _last_cover(factors) -> dict[int, int]:
    """Closing schedule: index of the last factor covering each variable."""
    return {v: i for i, (a, b) in enumerate(factors) for v in range(a, b + 1)}


def constant_term(model: IntervalFormProduct, n: int) -> int:
    """Coefficient of (x_1...x_d)^n in the n-th power of the interval product."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    factors = sorted(model.factors)
    last = _last_cover(factors)

    # terms maps packed exponent keys (base n+1 digits, one per variable of
    # active, every digit <= n) to integer coefficients; once a variable's last
    # covering factor is consumed only exponent-n terms survive and its digit
    # is dropped.
    active: list[int] = []
    terms = {0: 1}
    seen = set()
    for i, (a, b) in enumerate(factors):
        fvars = list(range(a, b + 1))
        for v in fvars:
            if v not in seen:
                seen.add(v)
                active.append(v)
        closing = [v for v in fvars if last[v] == i]
        if closing:
            terms, active = _closing_multiply(terms, active, fvars, closing, n)
        else:
            terms = _linear_multiplies(terms, active, fvars, n)
    # The unspecialized final variable is pinned by homogeneity, never filtered;
    # anything left open or off-lattice here is an engine bug.
    if active or any(k != 0 for k in terms):
        raise ModelError("sweep failed to close all variables")
    return terms.get(0, 0)


def _sweep_cost(factors: tuple[tuple[int, int], ...]) -> tuple:
    """Proxy for sweep cost: window widths as the factors are consumed."""
    factors = sorted(factors)
    last = _last_cover(factors)
    open_vars: set[int] = set()
    widths = []
    for i, (a, b) in enumerate(factors):
        open_vars.update(range(a, b + 1))
        widths.append(len(open_vars))
        open_vars -= {v for v in open_vars if last[v] == i}
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
