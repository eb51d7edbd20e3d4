"""Verification harness for the supercongruence statements.

THM1, THM2, AHLGREN and BEUKERS compare residues along two independent routes
(closed-form binomial sums against modular coefficient sources), so a pass is
meaningful evidence.  COSTER and CONJ1 compare two terms of one sequence: they
test the congruence, not the terms.  Reports are deterministic: cases come out
sorted by their parameters and rerunning yields identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._primes import check_prime, odd_primes_in
from .catalog import Catalog
from .configurations import Configuration, format_configuration
from .ctengine import leading_coefficients
from .modforms import ETA4_2Z_4Z, ETA6_4Z, eta_qexp, gamma_cm, gamma_eta12_pointcount
from .sequences import a_sigma8, a_sigma8_mod, apery_values


@dataclass(frozen=True)
class CongruenceCase:
    statement: str
    params: tuple[tuple[str, object], ...]
    lhs: int
    rhs: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "lhs", self.lhs % self.modulus)
        object.__setattr__(self, "rhs", self.rhs % self.modulus)

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> dict:
        return {
            "id": self.statement,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "modulus": str(self.modulus),
            "pass": self.passed,
        }


@dataclass
class CongruenceReport:
    cases: list[CongruenceCase]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list[CongruenceCase]:
        return [c for c in self.cases if not c.passed]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def _half(p_max: int) -> int:
    """The largest (p-1)/2 over odd p <= p_max, or 0."""
    return max(p_max - 1, 0) // 2


def _at_half(statement, least, p_max, lhs, rhs, params=()) -> CongruenceReport:
    """lhs((p-1)/2) against rhs(p) mod p^2, one case per odd prime least <= p <= p_max."""
    return CongruenceReport(
        [
            CongruenceCase(statement, (*params, ("p", p)), lhs((p - 1) // 2), rhs(p), p * p)
            for p in odd_primes_in(least, p_max + 1)
        ]
    )


def verify_thm1(l: int, p_max: int) -> CongruenceReport:
    """a((p-1)/2)^l against the weight 2l+1 CM coefficient, mod p^2, p >= 5."""
    if l < 1:
        raise ValueError("l must be >= 1")
    a = apery_values("a", _half(p_max))
    lhs = lambda h: pow(a[h], l, (2 * h + 1) ** 2)  # mod p^2 = (2h+1)^2: a[h]^l itself is far larger
    return _at_half("THM1", 5, p_max, lhs, lambda p: gamma_cm(2 * l + 1, p), (("l", l),))


def verify_thm2(p_max: int) -> CongruenceReport:
    """a_sigma8((p-1)/2) against the weight-6 point-count coefficient, odd p.

    The cases read a_sigma8 through its residue route, a_sigma8_mod.  First
    both forms are tied to the cellular integral they stand for: the sweep of
    sigma8 must give a_sigma8(n) exactly, and a_sigma8_mod(n, M) mod the
    report's largest p^2 = M, for n <= min(6, (p_max-1)/2).
    """
    swept = leading_coefficients((8, 3, 6, 1, 4, 7, 2, 5), min(6, _half(p_max))).terms
    modulus = max(odd_primes_in(3, p_max + 1), default=1) ** 2
    for n, term in enumerate(swept):
        if term != a_sigma8(n):
            raise ArithmeticError(f"sigma8 sweep gives J({n}) = {term}, a_sigma8({n}) = {a_sigma8(n)}")
        residue = a_sigma8_mod(n, modulus)
        if term % modulus != residue:
            raise ArithmeticError(
                f"sigma8 sweep gives J({n}) = {term % modulus} mod {modulus}, "
                f"a_sigma8_mod({n}, {modulus}) = {residue}"
            )
    lhs = lambda h: a_sigma8_mod(h, (2 * h + 1) ** 2)  # mod p^2 = (2h+1)^2
    return _at_half("THM2", 3, p_max, lhs, gamma_eta12_pointcount)


def verify_ahlgren(p_max: int) -> CongruenceReport:
    """a((p-1)/2) against the weight-3 eta-product coefficient, p >= 5."""
    series = eta_qexp(ETA6_4Z, p_max)
    a = apery_values("a", _half(p_max))
    return _at_half("AHLGREN", 5, p_max, a.__getitem__, series.__getitem__)


def verify_beukers(p_max: int) -> CongruenceReport:
    """b((p-1)/2) against the weight-4 eta-product coefficient, odd p."""
    series = eta_qexp(ETA4_2Z_4Z, p_max)
    b = apery_values("b", _half(p_max))
    return _at_half("BEUKERS", 3, p_max, b.__getitem__, series.__getitem__)


def _check_power_args(p: int, m: int, r: int) -> None:
    """The arguments of f(m p^r) = f(m p^(r-1)) mod p^(3r): a prime p >= 5 and m, r >= 1."""
    check_prime(p, least=5)
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")


def _at_power(statement, params, f, p: int, m: int, r: int) -> CongruenceCase:
    """f[m p^r] against f[m p^(r-1)] mod p^(3r)."""
    n = m * p ** (r - 1)
    return CongruenceCase(statement, (*params, ("p", p), ("m", m), ("r", r)), f[n * p], f[n], p ** (3 * r))


def verify_coster(which: str, p: int, m: int, r: int) -> CongruenceCase:
    """f(m p^r) against f(m p^(r-1)) mod p^(3r), f one of the two Apery sequences."""
    if which not in ("a", "b"):
        raise ValueError("which must be 'a' or 'b'")
    _check_power_args(p, m, r)
    return _at_power(f"COSTER_{which.upper()}", (), apery_values(which, m * p**r), p, m, r)


def verify_conjecture1(
    c: Configuration | str, p: int, m: int, r: int, catalog: Catalog | None = None
) -> CongruenceCase:
    """Leading coefficients at m p^r versus m p^(r-1), mod p^(3r).

    A recorded verdict is evidence for the supercongruence conjecture, never a
    proof; values come from the constant-term engine (cache-backed).
    """
    _check_power_args(p, m, r)
    record = leading_coefficients(c, m * p**r, catalog)
    return _at_power("CONJ1", (("sigma", format_configuration(record.config)),), record.terms, p, m, r)
