from fractions import Fraction

import pytest

from cellform._primes import _phi, odd_primes_in
from cellform.ffhyper import (
    build_table,
    hyp2f1_exact,
    hyp_greene,
    orthogonality_check,
    teichmuller,
    truncated_2f1_mod_p2,
    truncated_2f1_reference,
)
from cellform.modforms import ETA4_2Z_4Z, eta_qexp, gamma_cm


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------

def test_build_table_small():
    g, dlog = build_table(5)
    assert g in (2, 3)
    for x in range(1, 5):
        assert pow(g, dlog[x], 5) == x
    assert build_table(3)[0] == 2
    assert build_table(7)[1][1] == 0


def test_build_table_consistency_sweep():
    for p in odd_primes_in(3, 60):
        g, dlog = build_table(p)
        assert dlog[g] == 1
        assert sorted(dlog[1:]) == list(range(p - 1))


def test_build_table_rejects_composite():
    with pytest.raises(ValueError):
        build_table(15)


def test_orthogonality():
    assert orthogonality_check(5, 0)   # trivial character sums to p-1
    assert orthogonality_check(5, 2)   # quadratic character sums to 0
    for j in range(1, 6):
        assert orthogonality_check(7, j)


# ---------------------------------------------------------------------------
# 2F1, exact and Greene
# ---------------------------------------------------------------------------

def test_hyp2f1_exact_values():
    assert hyp2f1_exact(5, 2) == Fraction(2, 5)
    assert hyp2f1_exact(5, 3) == Fraction(-2, 5)
    with pytest.raises(ValueError):
        hyp2f1_exact(5, 1)
    with pytest.raises(ValueError):
        hyp2f1_exact(5, 0)


def test_greene_2f1_special_value():
    # p 2F1(1) = -phi(-1)
    for p in odd_primes_in(3, 40):
        assert hyp_greene(p, 1, 1) * p == -_phi(p, -1)


def test_greene_matches_exact_2f1():
    for p in odd_primes_in(3, 60):
        for lam in range(2, p):
            assert hyp_greene(p, 1, lam) == hyp2f1_exact(p, lam)


def test_transformation_law():
    for p in odd_primes_in(3, 60):
        for lam in range(2, p):
            inv = pow(lam, -1, p)
            assert hyp2f1_exact(p, lam) == _phi(p, lam) * hyp2f1_exact(p, inv)


def test_transformation_law_worked_example():
    # at p = 5: 2F1(2) = phi(2) 2F1(3) with phi(2) = -1
    assert hyp_greene(5, 1, 2) == (-1) * hyp2f1_exact(5, 3)


# 5F4 numerators over p^5 at x = 1, 2, p-1, computed independently with
# complex floats under a tracked error bound
FIVE_F_FOUR = {
    5: [100, -95, -105],
    7: [0, 217, -553],
    13: [-3900, 377, -1313],
    101: [221796, 990305, -2969097],
}


def test_higher_hypergeometric_values_land_on_lattice():
    for p in (5, 7, 13, 101):
        for n_upper in (2, 3, 4):
            for x in (1, 2, p - 1):
                assert (hyp_greene(p, n_upper, x) * p ** (n_upper + 1)).denominator == 1
        assert [hyp_greene(p, 4, x) * p**5 for x in (1, 2, p - 1)] == FIVE_F_FOUR[p]
    with pytest.raises(ValueError):
        hyp_greene(5, 5, 1)


def test_greene_tables_follow_p():
    # The Jacobi sums are kept for one p at a time; switching p back and
    # forth must rebuild them, not reuse the last prime's.
    for p in (5, 7, 5, 7, 5):
        for lam in range(2, p):
            assert hyp_greene(p, 1, lam) == hyp2f1_exact(p, lam)
        assert [hyp_greene(p, 4, x) * p**5 for x in (1, 2, p - 1)] == FIVE_F_FOUR[p]


@pytest.mark.parametrize("p", odd_primes_in(3, 60) + [2017])
def test_special_values_match_modular_coefficients(p):
    # Ono: p^2 3F2(1) is the weight-3 CM coefficient; Ahlgren-Ono: p^3 4F3(1)
    # is -b(p) - p for the weight-4 eta product eta(2z)^4 eta(4z)^4.
    assert p**2 * hyp_greene(p, 2, 1) == gamma_cm(3, p)
    b = eta_qexp(ETA4_2Z_4Z, p)
    assert p**3 * hyp_greene(p, 3, 1) == -b[p] - p


def test_five_f_four_exact_past_two_thousand():
    # Beyond double precision: the p^-5 lattice spacing is below 1e-16 here.
    # The numerator is p times a character sum and at most p^(7/2) in size.
    p = 2017
    n = hyp_greene(p, 4, 1) * p**5
    assert n.denominator == 1 and n % p == 0 and n**2 <= p**7


# ---------------------------------------------------------------------------
# Teichmuller lift and the truncated congruence
# ---------------------------------------------------------------------------

def test_teichmuller_values():
    assert teichmuller(0, 5, 2) == 0
    assert teichmuller(1, 5, 2) == 1
    assert teichmuller(2, 5, 2) == 7
    with pytest.raises(ValueError):
        teichmuller(5, 5, 2)


def test_teichmuller_is_multiplicative_lift():
    for p in odd_primes_in(3, 100):
        mod = p * p
        for x in range(p):
            w = teichmuller(x, p, 2)
            assert 0 <= w < mod
            assert pow(w, p, mod) == w
            assert w % p == x


def test_truncated_sum_lambda_1():
    assert truncated_2f1_mod_p2(5, 1) == 1


def test_truncated_congruence_all_small_primes():
    for p in odd_primes_in(5, 60):
        for lam in range(1, p):
            assert truncated_2f1_mod_p2(p, lam) == truncated_2f1_reference(p, lam)


def test_truncated_sum_needs_signed_lift():
    # The bare -phi(-lambda) p 2F1(1/lambda) lift misses the truncated sum by
    # phi(-1) when p = 3 (mod 4): at p = 7, lambda = 1 the sum is -1, not 1.
    assert truncated_2f1_mod_p2(7, 1) == 48
    assert _phi(7, -1) == -1


def test_truncated_rejects():
    with pytest.raises(ValueError):
        truncated_2f1_mod_p2(5, 0)
    with pytest.raises(ValueError):
        truncated_2f1_mod_p2(9, 2)
