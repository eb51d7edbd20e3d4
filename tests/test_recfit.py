import math
from fractions import Fraction

import pytest

from cellform import recfit
from cellform.recfit import PolyRecurrence, check_self_duality_symmetry, fit
from cellform.sequences import a_sigma8, apery_a


def test_constant_sequence():
    rec = fit([1] * 30, 1, 0)
    assert rec.order == 1 and rec.degree == 0
    # s(n+1) - s(n) = 0 up to the global scalar
    assert rec.coefficients[0][0] == -rec.coefficients[1][0]


def test_insufficient_terms():
    with pytest.raises(ValueError):
        fit([1, 2, 3], 2, 2)


def test_no_recurrence_returns_none():
    # factorial growth defeats a first-order constant-coefficient ansatz
    import math

    seq = [math.factorial(n) for n in range(40)]
    assert fit(seq, 1, 0) is None


def test_apery_recurrence_and_forward_check():
    seq = [apery_a(n) for n in range(30)]
    rec = fit(seq, 2, 2)
    assert rec is not None and rec.verify(seq)
    assert rec.extend(seq, 11) == [apery_a(n) for n in range(30, 41)]


def test_fit_is_scalar_stable():
    seq = [apery_a(n) for n in range(30)]
    assert fit(seq, 2, 2) == fit(seq, 2, 2)


def test_sigma8_recurrence():
    seq = [a_sigma8(n) for n in range(121)]
    rec = fit(seq, 4, 15)
    assert rec is not None
    assert rec.order == 4 and rec.degree == 15
    assert rec.verify(seq)
    assert check_self_duality_symmetry(rec)
    assert rec.extend(seq, 10) == [a_sigma8(n) for n in range(121, 131)]


def test_symmetry_rejects_wrong_order():
    rec = fit([apery_a(n) for n in range(30)], 2, 2)
    with pytest.raises(ValueError):
        check_self_duality_symmetry(rec)


def test_symmetry_negative_control():
    seq = [a_sigma8(n) for n in range(121)]
    rec = fit(seq, 4, 15)
    perturbed = [list(row) for row in rec.coefficients]
    perturbed[1][0] += Fraction(1, 7)
    broken = PolyRecurrence(4, 15, tuple(tuple(row) for row in perturbed))
    assert not check_self_duality_symmetry(broken)


# p_j(n) = -p_{4-j}(-5-n) for every j: p_0 = n^2, p_1 = n, p_2 = 2n + 5,
# p_3 = n + 5, p_4 = -(n + 5)^2 (coefficients from degree 0 up).
SYMMETRIC_DEGREE_2 = ((0, 0, 1), (0, 1, 0), (5, 2, 0), (5, 1, 0), (-25, -10, -1))


def test_symmetry_holds_for_a_symmetric_recurrence():
    as_fractions = tuple(tuple(Fraction(c) for c in row) for row in SYMMETRIC_DEGREE_2)
    assert check_self_duality_symmetry(PolyRecurrence(4, 2, as_fractions))
    constant = tuple((Fraction(c),) for c in (1, 2, 0, -2, -1))
    assert check_self_duality_symmetry(PolyRecurrence(4, 0, constant))
    assert not check_self_duality_symmetry(PolyRecurrence(4, 0, constant[:2] + ((Fraction(1),),) + constant[3:]))


@pytest.mark.parametrize("j", range(5))
def test_symmetry_sees_the_top_coefficient(j):
    rows = [[Fraction(c) for c in row] for row in SYMMETRIC_DEGREE_2]
    rows[j][2] += 1
    assert not check_self_duality_symmetry(PolyRecurrence(4, 2, tuple(tuple(row) for row in rows)))


def test_fit_survives_unlucky_primes(monkeypatch):
    # 2, 3 and 5 drop the rank of the apery_a system; the pivot rule skips them
    cases = [([apery_a(n) for n in range(30)], 2, 2), ([1] * 30, 1, 0)]
    expected = [fit(seq, order, degree) for seq, order, degree in cases]
    default_ladder = recfit._prime_ladder

    def ladder():
        yield from (2, 3, 5, 7)
        yield from default_ladder()

    monkeypatch.setattr(recfit, "_prime_ladder", ladder)
    assert [fit(seq, order, degree) for seq, order, degree in cases] == expected
    assert fit([math.factorial(n) for n in range(40)], 1, 0) is None
