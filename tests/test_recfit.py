import math
import random
from fractions import Fraction

import pytest

from cellform import recfit
from cellform._primes import is_prime
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


def _naive_rref_mod(matrix: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rows, pivot column list)."""
    rows = [row[:] for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def _matrices(p, rng):
    """Seeded residue matrices mod p: full rank, rank deficient, all p - 1."""
    for n_rows, n_cols in ((6, 4), (4, 6), (12, 9), (9, 12)):
        yield [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
        basis = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(2)]
        yield [
            [(a * x + b * y) % p for x, y in zip(*basis)]
            for a, b in ((rng.randrange(p), rng.randrange(p)) for _ in range(n_rows))
        ]
        yield [[p - 1] * n_cols for _ in range(n_rows)]
        worst = [[p - 1] * n_cols for _ in range(n_rows)]
        for i in range(min(n_rows, n_cols)):
            worst[i][i] = p - 2 if p > 2 else 0
        yield worst


@pytest.mark.parametrize("p", [2, 3, 5, 7, (1 << 31) - 1])
def test_int64_elimination_matches_the_naive_oracle(p):
    rng = random.Random(p)
    for matrix in _matrices(p, rng):
        rows, pivots = recfit._rref_mod(matrix, p)
        assert (rows.tolist(), pivots) == _naive_rref_mod(matrix, p)


def test_elimination_rejects_a_prime_past_the_word_limit(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(recfit.np, "array", no_array)
    for p in (1 << 31, (1 << 31) + 11, (1 << 62) - 57):
        with pytest.raises(ValueError, match="not below 2"):
            recfit._rref_mod([[1, 2], [3, 4]], p)


def test_default_ladder_stays_below_the_word_limit():
    ladder = recfit._prime_ladder()
    primes = [next(ladder) for _ in range(recfit._MAX_PRIMES)]
    assert recfit._MAX_PRIMES == 48
    assert primes[0] == (1 << 31) - 1 and all(a > b for a, b in zip(primes, primes[1:]))
    assert all(p < 1 << 31 and is_prime(p) for p in primes)


def test_verify_rejects_a_single_wrong_term():
    seq = [apery_a(n) for n in range(30)]
    rec = fit(seq, 2, 2)
    for n in (0, 17, 29):
        broken = seq[:n] + [seq[n] + 1] + seq[n + 1 :]
        assert not rec.verify(broken)
    scaled = PolyRecurrence(2, rec.degree, tuple(tuple(c / 7 for c in row) for row in rec.coefficients))
    assert scaled.verify(seq)
