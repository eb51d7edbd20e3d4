from fractions import Fraction
from math import comb, isqrt

import pytest

from cellform._primes import odd_primes_in
from cellform.sequences import (
    _harmonic_residues,
    _harmonic_window_residues,
    a_sigma8,
    a_sigma8_mod,
    apery_a,
    apery_b,
    apery_values,
    harmonic,
    lemma_suite,
    rising_factorial,
)


def test_apery_values():
    assert apery_a(0) == 1 and apery_b(0) == 1
    assert apery_a(1) == 3 and apery_b(1) == 5
    assert apery_a(2) == 19 and apery_b(2) == 73
    assert apery_a(3) == 147


@pytest.mark.parametrize("n_max", [0, 1, 2, 300])
@pytest.mark.parametrize("which, direct", [("a", apery_a), ("b", apery_b)])
def test_apery_values_match_direct_sums(which, direct, n_max):
    assert apery_values(which, n_max) == [direct(k) for k in range(n_max + 1)]


def test_apery_values_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apery_values("c", 5)
    with pytest.raises(ValueError):
        apery_values("a", -1)


def test_a_sigma8_initial_terms():
    values = [a_sigma8(n) for n in range(6)]
    assert values == [1, 33, 8929, 4124193, 2435948001, 1657775448033]


def test_a_sigma8_matches_direct_quadruple_sum():
    # independent oracle: iterate the constrained quadruple sum literally
    def direct(n):
        total = 0
        for k1 in range(n + 1):
            for k2 in range(n + 1):
                for k3 in range(n + 1):
                    k4 = k1 + k2 - k3
                    if 0 <= k4 <= n:
                        total += (
                            comb(n, k1) * comb(n + k1, k1)
                            * comb(n, k2) * comb(n + k2, k2)
                            * comb(n, k3) * comb(n + k3, k3)
                            * comb(n, k4) * comb(n + k4, k4)
                        )
        return total

    for n in range(7):
        assert a_sigma8(n) == direct(n)


def test_a_sigma8_matches_double_loop_convolution():
    # oracle: the self-convolution of c_k = C(n,k) C(n+k,k) term by term
    def double_loop(n):
        c = [comb(n, k) * comb(n + k, k) for k in range(n + 1)]
        conv = [0] * (2 * n + 1)
        for i, ci in enumerate(c):
            for j, cj in enumerate(c):
                conv[i + j] += ci * cj
        return sum(x * x for x in conv)

    for n in range(201):
        assert a_sigma8(n) == double_loop(n)


def test_a_sigma8_mod_matches_the_exact_value(monkeypatch):
    import cellform.sequences as sequences

    dtypes = []
    convolve = sequences.np.convolve
    monkeypatch.setattr(sequences.np, "convolve", lambda a, b: dtypes.append(a.dtype) or convolve(a, b))
    for n in range(61):
        exact = a_sigma8(n)
        # the largest m with (n+1)(m-1)^2 < 2^63 is the last one done in int64
        last_int64 = isqrt((2**63 - 1) // (n + 1)) + 1
        moduli = [p * p for p in (3, 5, 7, 101, 401, 7919, 1_000_003)] + [1, 2, last_int64, last_int64 + 1]
        for m in moduli:
            dtypes.clear()
            assert a_sigma8_mod(n, m) == exact % m, (n, m)
            assert dtypes == [sequences.np.dtype(object if m > last_int64 else sequences.np.int64)]
    with pytest.raises(ValueError):
        a_sigma8_mod(-1, 9)
    with pytest.raises(ValueError):
        a_sigma8_mod(3, 0)


def test_rising_factorial():
    assert rising_factorial(1, 4) == 24
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(7, 0) == 1
    assert rising_factorial(2, 2) % 5 == 1  # 2*3 mod 5
    with pytest.raises(ValueError):
        rising_factorial(2, -1)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


def _residue(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def test_harmonic_residues_match_exact_values():
    exact = [harmonic(k) for k in range(199)]
    for p in odd_primes_in(3, 200):
        for modulus in (p, p * p):
            assert _harmonic_residues(p - 1, modulus) == [_residue(h, modulus) for h in exact[:p]]
        m = (p - 1) // 2
        windows = [_residue(exact[m + k] - exact[k], p) for k in range(m + 1)]
        assert _harmonic_window_residues(p) == windows, p


def test_lemma_suite_p5_all_pass():
    report = lemma_suite(5)
    assert report and all(v is True for v in report.values())


def test_lemma_suite_p3_skips_large_prime_checks():
    report = lemma_suite(3)
    assert report["wolstenholme_harmonic"] is None
    assert report["two_power_half_harmonic"] is None
    others = {k: v for k, v in report.items() if v is not None}
    assert others and all(others.values())


def test_lemma_suite_rejects_composites():
    with pytest.raises(ValueError):
        lemma_suite(9)
    with pytest.raises(ValueError):
        lemma_suite(2)


def test_pochhammer_sum_example_p7():
    # direct value of the square sum at p = 7 is 6, i.e. -1
    total = sum(rising_factorial(k + 1, 3) ** 2 for k in range(7)) % 7
    assert total == 6
    assert lemma_suite(7)["pochhammer_square_sum"] is True


def test_lemma_suite_all_odd_primes_below_100():
    for p in odd_primes_in(3, 100):
        report = lemma_suite(p)
        bad = [name for name, verdict in report.items() if verdict is False]
        assert not bad, f"p={p}: {bad}"


@pytest.mark.parametrize("f", [apery_a, apery_b])
def test_apery_supercongruence_full_grid(f):
    # both sequences drop m p^(r-1) from m p^r modulo p^(3r) on the whole grid
    for p in (5, 7, 11, 13):
        for m in (1, 2):
            for r in (1, 2):
                modulus = p ** (3 * r)
                assert (f(m * p**r) - f(m * p ** (r - 1))) % modulus == 0
