import pytest

from cellform._primes import odd_primes_in
from cellform.configurations import canonical_configuration, enumerate_convergent
from cellform.congruences import (
    CongruenceCase,
    verify_ahlgren,
    verify_beukers,
    verify_conjecture1,
    verify_coster,
    verify_thm1,
    verify_thm2,
)
from cellform.ctengine import best_model
from cellform.modforms import ETA4_2Z_4Z, ETA6_4Z, eta_qexp, gamma_cm
from cellform.sequences import apery_a, apery_b

SIGMA7 = (1, 3, 7, 5, 2, 6, 4)
SIGMA8 = (8, 3, 6, 1, 4, 7, 2, 5)


def _case_for(report, **params):
    for case in report.cases:
        if all(dict(case.params).get(k) == v for k, v in params.items()):
            return case
    raise LookupError(params)


def test_thm1_worked_cases():
    report = verify_thm1(1, 7)
    c5 = _case_for(report, p=5)
    assert (c5.lhs, c5.rhs, c5.modulus) == (19, 19, 25)  # 19 = -6 mod 25
    c7 = _case_for(report, p=7)
    assert c7.lhs == 0 and c7.rhs == 0 and c7.modulus == 49  # 147 = 3*49

    l2 = _case_for(verify_thm1(2, 5), p=5)
    assert (l2.lhs, l2.rhs) == (11, 11)  # 361 and -14, both 11 mod 25


def test_thm1_rejects_bad_l():
    with pytest.raises(ValueError):
        verify_thm1(0, 50)


def test_thm2_ties_the_closed_form_to_the_sweep(monkeypatch):
    import cellform.congruences as congruences

    exact = congruences.a_sigma8
    monkeypatch.setattr(congruences, "a_sigma8", lambda n: exact(n) + (n == 3))
    with pytest.raises(ArithmeticError, match=r"J\(3\) = 4124193, a_sigma8\(3\) = 4124194"):
        verify_thm2(13)


def test_thm2_ties_the_residue_route_to_the_sweep(monkeypatch):
    import cellform.congruences as congruences

    residue = congruences.a_sigma8_mod
    monkeypatch.setattr(congruences, "a_sigma8_mod", lambda n, m: (residue(n, m) + (n == 3)) % m)
    # J(3) = 4124193 is 86 mod 169, the square of the largest prime up to 13
    with pytest.raises(ArithmeticError, match=r"J\(3\) = 86 mod 169, a_sigma8_mod\(3, 169\) = 87"):
        verify_thm2(13)


def test_thm2_worked_cases():
    report = verify_thm2(7)
    p3 = _case_for(report, p=3)
    assert (p3.lhs, p3.rhs, p3.modulus) == (6, 6, 9)  # 33 and -12 mod 9
    p5 = _case_for(report, p=5)
    assert (p5.lhs, p5.rhs, p5.modulus) == (4, 4, 25)  # 8929 and 54 mod 25
    p7 = _case_for(report, p=7)
    assert p7.passed


def test_ahlgren_and_beukers_worked_cases():
    a5 = _case_for(verify_ahlgren(5), p=5)
    assert a5.passed and (a5.lhs, a5.modulus) == (19, 25)
    b = verify_beukers(5)
    b3 = _case_for(b, p=3)
    assert b3.passed and b3.lhs == 5 % 9
    assert _case_for(b, p=5).passed


def test_coster_cases():
    assert verify_coster("a", 5, 1, 1).passed  # a(5) = a(1) mod 125
    assert verify_coster("b", 5, 1, 1).passed
    case = verify_coster("a", 5, 1, 2)
    assert case.passed and case.modulus == 5**6
    with pytest.raises(ValueError):
        verify_coster("a", 4, 1, 1)
    with pytest.raises(ValueError):
        verify_coster("c", 5, 1, 1)


def test_conjecture1_cases(shared_catalog):
    s8 = canonical_configuration(SIGMA8)
    assert verify_conjecture1(s8, 5, 1, 1, shared_catalog).passed
    s7 = canonical_configuration(SIGMA7)
    case = verify_conjecture1(s7, 5, 1, 1, shared_catalog)
    assert case.passed and case.modulus == 125
    with pytest.raises(ValueError):
        verify_conjecture1(s8, 5, 1, 0, shared_catalog)


@pytest.mark.parametrize(
    "p, m, r, message",
    [(3, 1, 1, "p must be a prime >= 5, got 3"), (5, 0, 1, "m and r must be >= 1"), (5, 1, 0, "m and r must be >= 1")],
    ids=["p=3", "m=0", "r=0"],
)
def test_supercongruences_share_one_argument_rule(p, m, r, message, tmp_path, monkeypatch):
    import cellform.congruences as congruences
    from cellform.catalog import Catalog

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the arguments were checked")

    monkeypatch.setattr(congruences, "leading_coefficients", no_sweep)
    catalog = Catalog(tmp_path / "catalog.json")
    with pytest.raises(ValueError) as coster:
        verify_coster("a", p, m, r)
    with pytest.raises(ValueError) as conj1:
        verify_conjecture1(SIGMA8, p, m, r, catalog)
    assert str(coster.value) == str(conj1.value) == message
    assert not catalog.unsaved and not (tmp_path / "catalog.json").exists()


def test_reports_without_a_prime_are_empty():
    for report in (verify_thm1(1, 4), verify_beukers(2)):
        assert (report.cases, report.total, report.all_pass) == ([], 0, True)


def test_conjecture1_full_small_catalog(shared_catalog):
    for n in (5, 6, 7, 8):
        for config in enumerate_convergent(n).configurations:
            for p in (5, 7, 11, 13):
                assert verify_conjecture1(config, p, 1, 1, shared_catalog).passed


def test_reports_are_reproducible():
    first = [case.to_json() for case in verify_thm2(50).cases]
    second = [case.to_json() for case in verify_thm2(50).cases]
    assert first == second


def test_closed_form_verifiers_match_direct_sums():
    # Reports rebuilt here from the direct binomial sums, prime by prime.
    def rows(cases):
        return [c.to_json() for c in cases]

    p_max = 199
    eta6, eta4 = eta_qexp(ETA6_4Z, p_max), eta_qexp(ETA4_2Z_4Z, p_max)
    thm1 = [
        CongruenceCase("THM1", (("l", 4), ("p", p)), apery_a((p - 1) // 2) ** 4, gamma_cm(9, p), p * p)
        for p in odd_primes_in(5, p_max + 1)
    ]
    ahlgren = [
        CongruenceCase("AHLGREN", (("p", p),), apery_a((p - 1) // 2), eta6[p], p * p)
        for p in odd_primes_in(5, p_max + 1)
    ]
    beukers = [
        CongruenceCase("BEUKERS", (("p", p),), apery_b((p - 1) // 2), eta4[p], p * p)
        for p in odd_primes_in(3, p_max + 1)
    ]
    assert rows(verify_thm1(4, p_max).cases) == rows(thm1)
    assert rows(verify_ahlgren(p_max).cases) == rows(ahlgren)
    assert rows(verify_beukers(p_max).cases) == rows(beukers)
    params = (("p", 5), ("m", 1), ("r", 2))
    for which, direct in (("a", apery_a), ("b", apery_b)):
        expected = CongruenceCase(f"COSTER_{which.upper()}", params, direct(25), direct(5), 5**6)
        assert verify_coster(which, 5, 1, 2).to_json() == expected.to_json()


def test_str_sigma_is_the_comma_separated_form():
    # A str is the comma-separated form, never one value per character:
    # '13524' is not the permutation (1, 3, 5, 2, 4), and N >= 10 must parse.
    sigma = (1, 3, 5, 2, 4)
    assert canonical_configuration("1,3,5,2,4") == canonical_configuration(sigma)
    assert best_model("1,3,5,2,4") == best_model(sigma)
    assert verify_conjecture1("1,3,5,2,4", 5, 1, 1) == verify_conjecture1(sigma, 5, 1, 1)
    for call in (canonical_configuration, best_model, lambda s: verify_conjecture1(s, 5, 1, 1)):
        with pytest.raises(ValueError):
            call("13524")
    ten = "1,3,5,7,9,2,4,6,8,10"
    assert canonical_configuration(ten) == canonical_configuration(tuple(range(1, 11, 2)) + tuple(range(2, 11, 2)))
