"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines;
all comparisons are exact unless a criterion states a runtime budget.
"""
import sys
import time
from contextlib import contextmanager

from cellform._primes import _phi, odd_primes_in
from cellform.configurations import canonical_configuration, enumerate_convergent
from cellform.congruences import (
    verify_ahlgren,
    verify_beukers,
    verify_conjecture1,
    verify_coster,
    verify_thm1,
    verify_thm2,
)
from cellform.ctengine import constant_term, leading_coefficients, linear_form_model
from cellform.ffhyper import (
    hyp2f1_exact,
    hyp_greene,
    truncated_2f1_mod_p2,
    truncated_2f1_reference,
)
from cellform.kernels import legendre_traces
from cellform.modforms import (
    ETA6_4Z,
    ETA12_2Z,
    eta_qexp,
    gamma_cm,
    gamma_eta12_pointcount,
)
from cellform.recfit import check_self_duality_symmetry, fit
from cellform.sequences import a_sigma8, apery_a, apery_b, lemma_suite

from oracles import (
    DihedralStructure,
    MultiplicationSite,
    apery_power_family,
    apery_power_sigma,
    multiplication_triples,
    multiply,
    star_product_pair,
)

SIGMA8 = (8, 3, 6, 1, 4, 7, 2, 5)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def test_criterion_01_enumeration_counts():
    with criterion(1, "enumeration counts 1,1,5,17,105 (<60s) and 771 at N=10 (<1h); duals kept distinct"):
        start = time.perf_counter()
        counts = {n: enumerate_convergent(n).count for n in (5, 6, 7, 8, 9)}
        small_elapsed = time.perf_counter() - start
        assert counts == {5: 1, 6: 1, 7: 5, 8: 17, 9: 105}
        assert small_elapsed < 60, f"N=5..9 took {small_elapsed:.1f}s"
        start = time.perf_counter()
        result10 = enumerate_convergent(10)
        big_elapsed = time.perf_counter() - start
        assert result10.count == 771
        assert big_elapsed < 3600, f"N=10 took {big_elapsed:.1f}s"
        # the matching convention keeps dual pairs distinct: identifying them
        # would undercount (3 instead of 5 at N=7, 401 instead of 771 at N=10)
        assert enumerate_convergent(7).count_dual_identified == 3
        assert result10.count_dual_identified == 401


def test_criterion_02_leading_coefficients(shared_catalog):
    with criterion(2, "leading coefficients: published initial terms and power-family oracles, exactly"):
        model = linear_form_model(SIGMA8)
        assert [constant_term(model, n) for n in range(6)] == [
            1, 33, 8929, 4124193, 2435948001, 1657775448033,
        ]
        s5 = leading_coefficients(canonical_configuration((1, 3, 5, 2, 4)), 20, shared_catalog)
        assert s5.terms == [apery_a(n) for n in range(21)]
        s6 = leading_coefficients(canonical_configuration((1, 5, 3, 6, 2, 4)), 15, shared_catalog)
        assert s6.terms == [apery_b(n) for n in range(16)]
        s7 = leading_coefficients(canonical_configuration((1, 3, 7, 5, 2, 6, 4)), 15, shared_catalog)
        assert s7.terms == [apery_a(n) ** 2 for n in range(16)]
        for m in (2, 3, 4):
            family = leading_coefficients(apery_power_family(m), 8, shared_catalog)
            assert family.terms == [apery_a(n) ** (m - 1) for n in range(9)]


def test_criterion_03_star_product():
    with criterion(3, "star product: worked 7-point example, the power chain, and sigma8 non-multipliable"):
        pair = (DihedralStructure((1, 2, 3, 4, 5)), DihedralStructure((1, 3, 5, 2, 4)))
        site = MultiplicationSite((1, 2, 3), (4, 2, 5))
        gamma, gamma_p = star_product_pair(pair, pair, site)
        assert DihedralStructure(gamma) == DihedralStructure((1, 2, 3, 4, 7, 6, 5))
        assert DihedralStructure(gamma_p) == DihedralStructure((1, 3, 5, 7, 2, 6, 4))
        # chain: multiplying the five-point factor walks up the power family
        for m in (2, 3, 4):
            rho = apery_power_sigma(m)
            n = len(rho)
            product = multiply(
                pair,
                (DihedralStructure(tuple(range(1, n + 1))), DihedralStructure(rho)),
                MultiplicationSite((1, 2, 3), (n - 1, rho[1], n)),
            )
            assert product == apery_power_family(m + 1)
        id8 = DihedralStructure(tuple(range(1, 9)))
        s8 = DihedralStructure(SIGMA8)
        assert multiplication_triples(id8, s8) == []
        assert multiplication_triples(s8, id8) == []


def test_criterion_04_modular_sources():
    with criterion(4, "three coefficient sources agree on their stated ranges in under two minutes"):
        start = time.perf_counter()
        eta6 = eta_qexp(ETA6_4Z, 500)
        assert all(gamma_cm(3, p) == eta6[p] for p in odd_primes_in(3, 500))
        eta12 = eta_qexp(ETA12_2Z, 200)
        assert all(gamma_eta12_pointcount(p) == eta12[p] for p in odd_primes_in(3, 200))
        for p in odd_primes_in(3, 200):
            traces = legendre_traces(p).astype(object)
            assert int((traces**2).sum()) == p * p - 2 * p - 3
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"modular source sweep took {elapsed:.1f}s"


def test_criterion_05_powers_of_zeta2_sequence():
    with criterion(5, "a((p-1)/2)^l matches the weight 2l+1 CM coefficient mod p^2, l<=4, p<500"):
        for l in (1, 2, 3, 4):
            report = verify_thm1(l, 499)
            assert report.total == len(odd_primes_in(5, 500))
            assert report.all_pass, report.failures[:3]


def test_criterion_06_weight6_congruence():
    with criterion(6, "half-range sum matches the weight-6 coefficient mod p^2 for odd p<200"):
        report = verify_thm2(199)
        assert report.total == len(odd_primes_in(3, 200))
        assert report.all_pass, report.failures[:3]


def test_criterion_07_classical_mod_p2_congruences():
    with criterion(7, "the two classical mod p^2 congruences hold below 300"):
        ahlgren = verify_ahlgren(299)
        assert ahlgren.total == len(odd_primes_in(5, 300))
        assert ahlgren.all_pass, ahlgren.failures[:3]
        beukers = verify_beukers(299)
        assert beukers.total == len(odd_primes_in(3, 300))
        assert beukers.all_pass, beukers.failures[:3]


def test_criterion_08_apery_supercongruences():
    with criterion(8, "both Apery sequences pass m p^r vs m p^(r-1) mod p^(3r) on the stated grid"):
        for which in ("a", "b"):
            for p in (5, 7, 11, 13):
                for m in (1, 2):
                    assert verify_coster(which, p, m, 1).passed
            assert verify_coster(which, 5, 1, 2).passed


def test_criterion_09_conjecture_evidence(shared_catalog):
    with criterion(9, "supercongruence evidence: all 24 configurations N<=8 pass, sigma8 also mod 5^6"):
        checked = 0
        for n in (5, 6, 7, 8):
            for config in enumerate_convergent(n).configurations:
                for p in (5, 7, 11, 13):
                    case = verify_conjecture1(config, p, 1, 1, shared_catalog)
                    assert case.passed, case.to_json()
                    checked += 1
        assert checked == 24 * 4
        deep = verify_conjecture1(canonical_configuration(SIGMA8), 5, 1, 2, shared_catalog)
        assert deep.passed and deep.modulus == 5**6


def test_criterion_10_lemma_suite():
    with criterion(10, "every elementary congruence check passes for every odd prime below 100"):
        for p in odd_primes_in(3, 100):
            report = lemma_suite(p)
            failures = [name for name, verdict in report.items() if verdict is False]
            assert not failures, f"p={p}: {failures}"


def test_criterion_11_hypergeometric_identities():
    with criterion(11, "2F1 identities and the truncated mod p^2 congruence, p<60, exact in F_q"):
        for p in odd_primes_in(3, 60):
            # special value p 2F1(1) = -phi(-1)
            assert hyp_greene(p, 1, 1) * p == -_phi(p, -1)
            for lam in range(2, p):
                exact = hyp2f1_exact(p, lam)
                assert hyp_greene(p, 1, lam) == exact  # point-count route
                inv = pow(lam, -1, p)
                phi_lam = 1 if pow(lam, (p - 1) // 2, p) == 1 else -1
                assert exact == phi_lam * hyp2f1_exact(p, inv)
            if p >= 5:
                for lam in range(1, p):
                    assert truncated_2f1_mod_p2(p, lam) == truncated_2f1_reference(p, lam)


def test_criterion_12_recurrence_fit():
    with criterion(12, "the 121-term fit returns order 4 degree 15 with exact dual symmetry and predicts 10 more terms"):
        seq = [a_sigma8(n) for n in range(121)]
        rec = fit(seq, 4, 15)
        assert rec is not None
        assert rec.order == 4 and rec.degree == 15
        assert check_self_duality_symmetry(rec)
        assert rec.extend(seq, 10) == [a_sigma8(n) for n in range(121, 131)]
