"""Naive oracles, identity checks and test data that only the tests run.

No command and no benchmark reaches these definitions, so they live beside the
tests rather than in the package (test_package.py keeps it that way):

- ``coset_images`` and ``enumerate_convergent_reference``, the plain-Python
  oracles of ``canonical_configuration``, ``kernels.canonical_keys`` and
  ``enumerate_convergent``;
- ``apery_power_sigma`` and ``apery_power_family``, the 2M+1 point family whose
  leading coefficients are powers of the zeta(2) Apery numbers;
- Brown's partial star multiplication of pairs of dihedral structures
  (F. Brown, arXiv:1412.6508), which the tests use to check the sweep engine
  on J_gamma = J_alpha J_beta;
- ``orthogonality_check``, ``gamma_cm_power_identity`` and the exact
  ``harmonic`` numbers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from cellform.configurations import (
    Configuration,
    _as_sigma,
    _check_permutation,
    canonical_configuration,
    dihedral_images,
    is_convergent,
)
from cellform.ffhyper import _character_field, build_table
from cellform.modforms import gamma_cm


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def coset_images(sigma) -> list[tuple[int, ...]]:
    """All distinct rho1 o sigma o rho2, every value map over every seat image:
    the brute-force oracle for canonical_configuration and canonical_keys."""
    seq = _as_sigma(sigma)
    # the dihedral relabelings of the values 1..N, as 1-indexed lookup tuples
    vmaps = [(0,) + image for image in dihedral_images(tuple(range(1, len(seq) + 1)))]
    return sorted({tuple(vm[x] for x in s) for s in dihedral_images(seq) for vm in vmaps})


def enumerate_convergent_reference(n: int) -> list[Configuration]:
    """Plain-Python enumeration, for cross-checking the kernels at small N."""
    found = set()
    for suffix in itertools.permutations(range(2, n + 1)):
        seq = (1,) + suffix
        if is_convergent(seq):
            found.add(canonical_configuration(seq).sigma)
    return [Configuration(n, s) for s in sorted(found)]


def apery_power_sigma(m: int) -> tuple[int, ...]:
    """Literal permutation of the 2M+1 point family whose leading coefficients
    are the (M-1)-st power of the zeta(2) Apery numbers."""
    if m < 2:
        raise ValueError("family is defined for M >= 2")
    widths = list(range(m - 1, 0, -1)) + list(range(1, m))
    tail = [m + (w if i % 2 == 0 else -w) for i, w in enumerate(widths)]
    return tuple([2 * m, m, 2 * m + 1] + tail)


def apery_power_family(m: int) -> Configuration:
    return canonical_configuration(apery_power_sigma(m))


# ---------------------------------------------------------------------------
# Star multiplication
# ---------------------------------------------------------------------------

class NotMultipliableError(ValueError):
    """Raised when a star product is requested along an invalid site."""


@dataclass(frozen=True, order=True)
class DihedralStructure:
    """A cyclic sequence up to rotation/reflection, held by its lex-least linear form."""

    order: tuple[int, ...]

    def __post_init__(self):
        seq = _check_permutation(self.order)
        object.__setattr__(self, "order", min(dihedral_images(seq)))

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class MultiplicationSite:
    """Gluing data: s lives in the first factor's ground set, t in the second's."""

    s: tuple[int, int, int]
    t: tuple[int, int, int]


def multiplication_triples(delta: DihedralStructure, delta_prime: DihedralStructure):
    """Triples (t1,t2,t3) consecutive in delta (t2 middle) with t1,t3 adjacent
    in delta_prime; the pair (delta, delta_prime) is multipliable along these."""
    adjacent = {s[:2] for s in dihedral_images(delta_prime.order)}
    triples = []
    for s in itertools.islice(dihedral_images(delta.order), len(delta)):
        if len(s) > 2 and (s[0], s[2]) in adjacent:
            triples += [s[:3], s[2::-1]]
    return triples


def _orient(cyc: tuple[int, ...], prefix: tuple[int, ...]) -> tuple[int, ...]:
    """The first dihedral image of cyc that starts with prefix."""
    for image in dihedral_images(cyc):
        if image[: len(prefix)] == prefix:
            return image
    raise NotMultipliableError(f"{prefix} is not consecutive in {cyc}")


def _glue(consec: tuple[int, ...], t: tuple[int, int, int], adj: tuple[int, ...]) -> tuple[int, ...]:
    """Unique shuffle of two cyclic sequences sharing exactly the triple t.

    consec carries (t1,t2,t3) consecutively, adj carries the edge t1-t3; the
    complementary arc of consec is spliced into that edge.
    """
    arc = _orient(consec, t)[3:]
    return (t[0],) + tuple(reversed(arc)) + _orient(adj, t[::2])[1:]


def star_product_pair(alpha_pair, beta_pair, site: MultiplicationSite, rest_order=None):
    """Raw star product (gamma, gamma') on the glued ground set.

    The first factor's ground set X is identified into Z = {1..M+N-3}: s_i maps
    to t_i and the remaining N-3 elements map, in increasing order by default,
    to M+1, M+2, ...; rest_order overrides that order (the resulting
    configuration does not depend on the choice).
    """
    alpha, alpha_p = alpha_pair
    beta, beta_p = beta_pair
    s, t = tuple(site.s), tuple(site.t)
    if len(set(s)) != 3 or len(set(t)) != 3:
        raise NotMultipliableError("site triples must have three distinct elements")
    n, m = len(alpha), len(beta)

    rest = [x for x in range(1, n + 1) if x not in s]
    if rest_order is not None:
        if sorted(rest_order) != sorted(rest):
            raise ValueError("rest_order must permute the non-site elements")
        rest = list(rest_order)
    fmap = {s[i]: t[i] for i in range(3)}
    for j, x in enumerate(rest):
        fmap[x] = m + 1 + j
    a = tuple(fmap[x] for x in alpha.order)
    a_p = tuple(fmap[x] for x in alpha_p.order)

    # (alpha, alpha') multipliable along s; the dual (beta', beta) along t.
    gamma = _glue(a, t, beta.order)
    gamma_p = _glue(beta_p.order, t, a_p)
    return gamma, gamma_p


def multiply(alpha_pair, beta_pair, site: MultiplicationSite, rest_order=None) -> Configuration:
    """Star product as a configuration (sign ambiguities never surface here)."""
    gamma, gamma_p = star_product_pair(alpha_pair, beta_pair, site, rest_order)
    tau = {g: i + 1 for i, g in enumerate(gamma)}
    return canonical_configuration(tau[g] for g in gamma_p)


# ---------------------------------------------------------------------------
# Characters, CM coefficients and harmonic numbers
# ---------------------------------------------------------------------------

def orthogonality_check(p: int, chi_index: int) -> bool:
    """Verify sum_x chi(x) = p-1 for the trivial character and 0 otherwise."""
    _, dlog = build_table(p)
    q, powers = _character_field(p)
    total = sum(powers[chi_index * dlog[x] % (p - 1)] for x in range(1, p)) % q
    expected = p - 1 if chi_index % (p - 1) == 0 else 0
    return total == expected


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


def harmonic(n: int) -> Fraction:
    """H_n = sum_{j<=n} 1/j as an exact rational, H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    den = lcm(*range(1, n + 1))
    return Fraction(sum(den // j for j in range(1, n + 1)), den)
