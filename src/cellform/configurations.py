"""Dihedral structures and configurations on {1..N}.

A dihedral structure is a seating order up to rotation and reflection; a
configuration is a pair of dihedral structures up to simultaneous relabeling,
stored here through the representative [id, sigma] and canonicalized as the
lexicographic minimum over the two-sided dihedral action.  The module also
provides the convergence test, catalog enumeration, duality, and the partial
star multiplication of pairs of dihedral structures.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels


class NotMultipliableError(ValueError):
    """Raised when a star product is requested along an invalid site."""


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
class DihedralStructure:
    """A cyclic sequence up to rotation/reflection, held by its lex-least linear form."""

    order: tuple[int, ...]

    def __post_init__(self):
        seq = _check_permutation(self.order)
        object.__setattr__(self, "order", min(dihedral_images(seq)))

    def __len__(self) -> int:
        return len(self.order)


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
    rho1 o sigma o rho2 over dihedral value maps rho1 and seat maps rho2."""
    seq = _check_permutation(sigma)
    n = len(seq)
    # The least image starts with 1: per seat image s only the value rotation and
    # reflection sending s[0] to 1 can win, 4N candidates (as in canonical_keys).
    return Configuration(n, min(tuple(e * (v - s[0]) % n + 1 for v in s)
                                for s in dihedral_images(seq) for e in (1, -1)))


def _as_sigma(c) -> tuple[int, ...]:
    return c.sigma if isinstance(c, Configuration) else _check_permutation(c)


def coset_images(sigma) -> list[tuple[int, ...]]:
    """All distinct rho1 o sigma o rho2, every value map over every seat image:
    the brute-force oracle for canonical_configuration and canonical_keys."""
    seq = _as_sigma(sigma)
    # the dihedral relabelings of the values 1..N, as 1-indexed lookup tuples
    vmaps = [(0,) + image for image in dihedral_images(tuple(range(1, len(seq) + 1)))]
    return sorted({tuple(vm[x] for x in s) for s in dihedral_images(seq) for vm in vmaps})


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
# Star multiplication
# ---------------------------------------------------------------------------

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
    configs = [Configuration(n, kernels.decode_key(int(k), n)) for k in keys]
    # The dual of each class is the canonical key of its inverse permutation.
    sigmas = np.array([c.sigma for c in configs], dtype=np.int64).reshape(-1, n)
    dual_keys = kernels.canonical_keys(np.argsort(sigmas, axis=1) + 1)
    at = np.searchsorted(keys, dual_keys)
    missing = np.count_nonzero(keys[np.minimum(at, len(keys) - 1)] != dual_keys)
    if missing:
        raise ValueError(f"N={n}: the class set misses the duals of {missing} of its {len(keys)} classes")
    # A dual pair counts once and a self-dual class once.
    self_dual = int(np.count_nonzero(dual_keys == keys))
    return EnumerationResult(configs, len(configs), (len(configs) + self_dual) // 2,
                             [configs[i] for i in at])


def enumerate_convergent_reference(n: int) -> list[Configuration]:
    """Plain-Python enumeration, for cross-checking the kernels at small N."""
    found = set()
    for suffix in itertools.permutations(range(2, n + 1)):
        seq = (1,) + suffix
        if is_convergent(seq):
            found.add(canonical_configuration(seq).sigma)
    return [Configuration(n, s) for s in sorted(found)]
