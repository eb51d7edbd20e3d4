import numpy as np
import pytest

from cellform._primes import _phi, odd_primes_in
from cellform.kernels import legendre_traces
from cellform.modforms import (
    ETA4_2Z_4Z,
    ETA6_4Z,
    ETA12_2Z,
    EtaProductSpec,
    eta_qexp,
    gamma_cm,
    gamma_eta12_pointcount,
    legendre_trace,
    two_squares,
)

from oracles import gamma_cm_power_identity


# ---------------------------------------------------------------------------
# two squares
# ---------------------------------------------------------------------------

def test_two_squares_small():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)


def test_two_squares_bruteforce_agreement():
    for p in odd_primes_in(3, 300):
        if p % 4 != 1:
            continue
        solutions = {
            (x, y)
            for x in range(1, p)
            for y in range(1, p)
            if x * x + y * y == p and x % 2 == 1 and y % 2 == 0
        }
        assert solutions == {two_squares(p)}


def test_two_squares_rejects():
    with pytest.raises(ValueError):
        two_squares(7)
    with pytest.raises(ValueError):
        two_squares(21)


# ---------------------------------------------------------------------------
# CM coefficients
# ---------------------------------------------------------------------------

def test_gamma_cm_values():
    assert gamma_cm(3, 5) == -6
    assert gamma_cm(5, 5) == -14
    for k in (2, 3, 4, 7):
        assert gamma_cm(k, 7) == 0


def test_gamma_cm_rejects():
    with pytest.raises(ValueError):
        gamma_cm(1, 5)
    with pytest.raises(ValueError):
        gamma_cm(3, 15)


def test_gamma_cm_sign_flip_invariance():
    # the sign prefactor and the power sum co-vary under (x,y) -> (-x,y), (x,-y)
    def variant(k, p, sx, sy):
        x, y = two_squares(p)
        x, y = sx * x, sy * y
        re, im = 1, 0
        for _ in range(k - 1):
            re, im = re * x - im * y, re * y + im * x
        return (-1) ** (((x + y - 1) * (k - 1) // 2) % 2) * 2 * re

    for p in odd_primes_in(3, 200):
        if p % 4 != 1:
            continue
        for k in range(2, 9):
            base = gamma_cm(k, p)
            assert variant(k, p, -1, 1) == base
            assert variant(k, p, 1, -1) == base


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gamma_cm_power_identity(m):
    for p in odd_primes_in(3, 100):
        assert gamma_cm_power_identity(3, m, p)


def test_gamma_cm_power_identity_trivial_cases():
    assert gamma_cm_power_identity(5, 1, 13)  # m = 1 collapses to equality
    assert gamma_cm_power_identity(3, 3, 7)  # both sides vanish at p = 3 mod 4


# ---------------------------------------------------------------------------
# eta products
# ---------------------------------------------------------------------------

def test_eta12_2z_coefficients():
    s = eta_qexp(ETA12_2Z, 12)
    assert s[1] == 1
    assert s[3] == -12
    assert s[5] == 54
    assert all(s[n] == 0 for n in range(0, 12, 2))


def test_eta6_4z_coefficients():
    s = eta_qexp(ETA6_4Z, 13)
    assert s[1] == 1
    assert s[5] == -6
    assert s[13] == 10


def test_eta4_2z_4z_normalized():
    s = eta_qexp(ETA4_2Z_4Z, 5)
    assert s[1] == 1
    assert s[3] == -4
    assert s[5] == -2


def _naive_eta_qexp(spec, n_max):
    """prod_i prod_j (1 - q^(m_i j))^(e_i), one factor at a time by full
    truncated multiplication, shifted by the leading q-power."""
    poly = [1] + [0] * n_max
    for scale, exponent in spec.factors:
        for step in range(scale, n_max + 1, scale):
            factor = [0] * (n_max + 1)
            factor[0], factor[step] = 1, -1
            for _ in range(exponent):
                poly = [sum(poly[i] * factor[k - i] for i in range(k + 1)) for k in range(n_max + 1)]
    return ([0] * spec.leading_power + poly)[: n_max + 1]


@pytest.mark.parametrize("spec", [ETA12_2Z, ETA6_4Z, ETA4_2Z_4Z], ids=["eta12_2z", "eta6_4z", "eta4_2z_4z"])
def test_eta_qexp_matches_naive_product(spec):
    # every coefficient, composite indices included
    assert eta_qexp(spec, 80) == _naive_eta_qexp(spec, 80)


DELTA = EtaProductSpec(((1, 24),))  # q prod (1 - q^n)^24, the coefficients are tau(n)


def test_eta_qexp_gives_ramanujan_tau():
    s = eta_qexp(DELTA, 80)
    assert s[:4] == [0, 1, -24, 252]
    assert s == _naive_eta_qexp(DELTA, 80)
    # tau(1000) = tau(8) tau(125), with tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
    tau5 = 4830
    tau125 = tau5 * (tau5 * tau5 - 5**11) - 5**11 * tau5
    assert eta_qexp(DELTA, 1000)[1000] == 84480 * tau125


def test_eta_qexp_raises_before_int64_wraps():
    # |tau(2563)| is the first |tau(n)| to reach 2^63.
    with pytest.raises(OverflowError, match="2\\^63"):
        eta_qexp(DELTA, 2563)


def test_eta_rejects_fractional_leading_power():
    with pytest.raises(ValueError):
        eta_qexp(EtaProductSpec(((1, 1),)), 10)


# ---------------------------------------------------------------------------
# Legendre traces
# ---------------------------------------------------------------------------

def _count_points(p, lam):
    points = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y - x * (x - 1) * (x - lam)) % p == 0:
                points += 1
    return points


def test_legendre_trace_small_by_enumeration():
    assert _count_points(5, 2) == 8
    assert legendre_trace(5, 2) == -2
    assert _count_points(5, 3) == 4
    assert legendre_trace(5, 3) == 2
    for p in (3, 5, 7, 11):
        for lam in range(2, p):
            assert legendre_trace(p, lam) == p + 1 - _count_points(p, lam)


def _naive_legendre_trace(p, lam):
    """-sum_x phi(x (x-1) (x-lambda)), each character by Euler's criterion."""
    return -sum(_phi(p, x * (x - 1) * (x - lam)) for x in range(p))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 97, 101, 397])
def test_legendre_trace_matches_the_naive_sum(p):
    assert [legendre_trace(p, lam) for lam in range(2, p)] == [_naive_legendre_trace(p, lam) for lam in range(2, p)]
    # lambda is read mod p, from either side of 0
    assert legendre_trace(p, 2 + 3 * p) == legendre_trace(p, 2 - 3 * p) == _naive_legendre_trace(p, 2)


def test_legendre_trace_rejects():
    with pytest.raises(ValueError):
        legendre_trace(5, 0)
    with pytest.raises(ValueError):
        legendre_trace(5, 1)
    with pytest.raises(ValueError):
        legendre_trace(15, 2)


def test_trace_square_sum_identity():
    for p in odd_primes_in(3, 200):
        traces = legendre_traces(p)
        assert int((traces.astype(object) ** 2).sum()) == p * p - 2 * p - 3


def test_hasse_bound_enforced():
    for p in odd_primes_in(3, 100):
        traces = legendre_traces(p)
        assert np.all(traces * traces <= 4 * p)


# ---------------------------------------------------------------------------
# weight-6 coefficients by point count
# ---------------------------------------------------------------------------

def test_gamma_eta12_pointcount_values():
    assert gamma_eta12_pointcount(3) == -12
    assert gamma_eta12_pointcount(5) == 54
    series = eta_qexp(ETA12_2Z, 7)
    assert gamma_eta12_pointcount(7) == series[7]


def test_source_agreement_cm_vs_eta():
    series = eta_qexp(ETA6_4Z, 500)
    for p in odd_primes_in(3, 500):
        assert gamma_cm(3, p) == series[p]


def test_source_agreement_pointcount_vs_eta():
    series = eta_qexp(ETA12_2Z, 200)
    for p in odd_primes_in(3, 200):
        assert gamma_eta12_pointcount(p) == series[p]
