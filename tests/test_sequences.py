import itertools
from fractions import Fraction
from math import comb, isqrt

import pytest

from cellform import sequences
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


def _naive_harmonic_quadruple_sum(p: int) -> bool:
    # sum over k_i <= m, sum k_i = p-1 of [prod (k_i+1)_m^2] (H_{m+k4} - H_k4) == 0 (mod p)
    m = (p - 1) // 2
    poch = [rising_factorial(k + 1, m) ** 2 % p for k in range(m + 1)]
    hw = sequences._harmonic_window_residues(p)
    total = 0
    target = p - 1
    for k1 in range(m + 1):
        for k2 in range(m + 1):
            lo = max(0, target - k1 - k2 - m)
            hi = min(m, target - k1 - k2)
            for k3 in range(lo, hi + 1):
                k4 = target - k1 - k2 - k3
                total += poch[k1] * poch[k2] % p * poch[k3] % p * poch[k4] % p * hw[k4]
    return total % p == 0


def _naive_power_sums(p: int) -> bool:
    # sum_{j=1}^{p-1} j^s == -1 if (p-1) | s else 0 (mod p), for 1 <= s <= 2(p-1)
    for s in range(1, 2 * (p - 1) + 1):
        total = sum(pow(j, s, p) for j in range(1, p)) % p
        expected = p - 1 if s % (p - 1) == 0 else 0
        if total != expected:
            return False
    return True


def _naive_constrained_sum_equivalence(p: int) -> bool:
    # Quadruple sum with sum k_i = p-1 matches the one with k1+k2 = k3+k4 (mod p^2).
    p2 = p * p
    cb = sequences._binomial_pair_residues(p, p2)
    m = (p - 1) // 2
    x = [0] * (2 * m + 1)
    for i, ci in enumerate(cb):
        for j, cj in enumerate(cb):
            x[i + j] = (x[i + j] + ci * cj) % p2
    lhs = sum(x[s] * x[p - 1 - s] for s in range(max(0, p - 1 - 2 * m), min(2 * m, p - 1) + 1)) % p2
    rhs = sum(v * v for v in x) % p2
    return lhs == rhs


# (check, its loop oracle, the power of p its residues are taken mod)
LEMMA_ORACLES = {
    "harmonic_quadruple_sum": (sequences._check_harmonic_quadruple_sum, _naive_harmonic_quadruple_sum, 1),
    "constrained_sum_equivalence": (sequences._check_constrained_sum_equivalence,
                                    _naive_constrained_sum_equivalence, 2),
    "power_sums": (sequences._check_power_sums, _naive_power_sums, 1),
}


@pytest.mark.parametrize("name", LEMMA_ORACLES)
def test_lemma_checks_match_their_loop_oracles(name):
    check, oracle, _ = LEMMA_ORACLES[name]
    for p in odd_primes_in(3, 98):
        assert check(p) is oracle(p) is True, p


@pytest.mark.parametrize("name", LEMMA_ORACLES)
def test_lemma_checks_in_python_integers(name, monkeypatch):
    # Above the int64 bound the same check runs on dtype=object arrays; each
    # check asks for the bound of its longest sum, p products of two residues.
    check, _, power = LEMMA_ORACLES[name]
    asked = []
    monkeypatch.setattr(sequences, "_residue_dtype", lambda terms, modulus: asked.append((terms, modulus)) or object)
    for p in (3, 5, 7, 97):
        asked.clear()
        assert check(p) is True
        assert asked == [(p, p**power)]


def test_residue_dtype_switches_at_two_to_the_63():
    # two products of residues below 2^31 sum to at most 2^63 - 2^32 + 2
    assert sequences._residue_dtype(2, 2**31) is sequences.np.int64
    assert sequences._residue_dtype(2, 2**31 + 1) is object  # 2 (2^31)^2 = 2^63


def _quadruple_weights(p: int) -> list[int]:
    """A[k4] mod p, the coefficient of (H_{m+k4} - H_k4) in the harmonic quadruple sum."""
    m = (p - 1) // 2
    poch = [rising_factorial(k + 1, m) ** 2 % p for k in range(m + 1)]
    weights = [0] * (m + 1)
    for k1, k2, k3 in itertools.product(range(m + 1), repeat=3):
        k4 = p - 1 - k1 - k2 - k3
        if 0 <= k4 <= m:
            weights[k4] = (weights[k4] + poch[k1] * poch[k2] * poch[k3] * poch[k4]) % p
    return weights


def test_harmonic_quadruple_sum_reads_each_window_with_its_weight(monkeypatch):
    # The sum is linear in the windows: a window vector orthogonal to the
    # weights mod p must pass, and a single window with a nonzero weight fail.
    for p in (5, 7, 11, 13, 29):
        weights = _quadruple_weights(p)
        i, j = [k for k, w in enumerate(weights) if w][:2]
        cancel = [0] * len(weights)
        cancel[i], cancel[j] = weights[j], -weights[i] % p
        for window, verdict in ((cancel, True), ([int(k == i) for k in range(len(weights))], False)):
            monkeypatch.setattr(sequences, "_harmonic_window_residues", lambda p, window=window: window)
            assert sequences._check_harmonic_quadruple_sum(p) is verdict, (p, window)
            assert _naive_harmonic_quadruple_sum(p) is verdict, (p, window)


@pytest.mark.parametrize(
    "name, poisoned",
    [("harmonic_quadruple_sum", "_harmonic_window_residues"),
     ("constrained_sum_equivalence", "_binomial_pair_residues")],
)
def test_poisoned_residues_fail_check_and_oracle(name, poisoned, monkeypatch):
    check, oracle, _ = LEMMA_ORACLES[name]
    residues = getattr(sequences, poisoned)
    monkeypatch.setattr(sequences, poisoned, lambda p, *mod: [r + k for k, r in enumerate(residues(p, *mod))])
    for p in (5, 7, 11, 13, 97):
        assert check(p) is False, p
        assert oracle(p) is False, p


@pytest.mark.parametrize("f", [apery_a, apery_b])
def test_apery_supercongruence_full_grid(f):
    # both sequences drop m p^(r-1) from m p^r modulo p^(3r) on the whole grid
    for p in (5, 7, 11, 13):
        for m in (1, 2):
            for r in (1, 2):
                modulus = p ** (3 * r)
                assert (f(m * p**r) - f(m * p ** (r - 1))) % modulus == 0
