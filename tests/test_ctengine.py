import hashlib
import itertools
from collections import defaultdict

import pytest

from cellform.configurations import (
    canonical_configuration,
    dihedral_images,
    dual,
    enumerate_convergent,
)
from cellform.ctengine import (
    IntervalFormProduct,
    ModelError,
    _lattice_count,
    _sweep_cost,
    best_model,
    constant_term,
    leading_coefficients,
    linear_form_model,
)
from cellform.sequences import a_sigma8, apery_a, apery_b

from oracles import apery_power_family, coset_images

SIGMA5 = (1, 3, 5, 2, 4)
SIGMA6 = (1, 5, 3, 6, 2, 4)
SIGMA7 = (1, 3, 7, 5, 2, 6, 4)
SIGMA8 = (8, 3, 6, 1, 4, 7, 2, 5)


def naive_coefficient(model: IntervalFormProduct, n: int) -> int:
    """Independent oracle: expand the full product term by term, no sweep,
    no caps, then read off the diagonal coefficient.  Exponential; keep n tiny."""
    d = len(model.factors)
    poly = {(0,) * d: 1}
    for a, b in model.factors:
        for _ in range(n):
            new = defaultdict(int)
            for expo, coef in poly.items():
                for v in range(a - 1, b):
                    bumped = list(expo)
                    bumped[v] += 1
                    new[tuple(bumped)] += coef
            poly = dict(new)
    return poly.get((n,) * d, 0)


# ---------------------------------------------------------------------------
# linear_form_model
# ---------------------------------------------------------------------------

def test_model_sigma8_matches_displayed_integrand():
    m = linear_form_model(SIGMA8)
    assert len(m.factors) == 6
    assert sorted(m.factors) == [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)]


def test_model_sigma5():
    m = linear_form_model(SIGMA5)
    assert len(m.factors) == 3
    assert sorted(m.factors) == [(1, 2), (1, 3), (2, 3)]


def test_model_interval_count_is_n_minus_2():
    for n in (5, 6, 7, 8):
        for c in enumerate_convergent(n).configurations:
            assert len(linear_form_model(c).factors) == n - 2


def test_model_rejects_nonconvergent():
    with pytest.raises(ValueError):
        linear_form_model((1, 2, 3, 4, 5))


def test_interval_product_validates_coverage():
    with pytest.raises(ModelError):
        IntervalFormProduct(((1, 2), (1, 2), (1, 2)))
    with pytest.raises(ModelError):
        IntervalFormProduct(((1, 3), (1, 3)))


# ---------------------------------------------------------------------------
# constant_term
# ---------------------------------------------------------------------------

def test_constant_term_n0_is_1():
    assert constant_term(linear_form_model(SIGMA5), 0) == 1
    assert constant_term(linear_form_model(SIGMA8), 0) == 1


def test_constant_term_against_naive_oracle():
    for sigma in (SIGMA5, SIGMA6, SIGMA8):
        model = linear_form_model(sigma)
        for n in (1, 2):
            assert constant_term(model, n) == naive_coefficient(model, n)


def test_constant_term_of_every_best_model_against_naive_oracle():
    # Best models reach windows of width 7 and close four variables at one
    # factor; the literal models above stop at width 5 and three closes.
    for n_points, ns in ((5, (1, 2)), (6, (1, 2)), (7, (1, 2)), (8, (1, 2)), (9, (1,))):
        for c in enumerate_convergent(n_points).configurations:
            model = best_model(c)
            for n in ns:
                assert constant_term(model, n) == naive_coefficient(model, n), (c, n)


def test_constant_term_closing_above_an_open_variable_against_naive_oracle():
    # At the factor (4, 7) variables 4 and 7 are covered for the last time
    # while 5 and 6 stay open, so the closing variables are not the lowest
    # open ones.
    model = IntervalFormProduct(((1, 3), (1, 4), (2, 5), (3, 5), (3, 7), (4, 7), (5, 6)))
    last = {v: i for i, (a, b) in enumerate(model.factors) for v in range(a, b + 1)}
    assert any(
        last[v] == i and any(u < v and last[u] > i for u in range(1, v))
        for i, (a, b) in enumerate(model.factors) for v in range(a, b + 1)
    )
    for n in (1, 2):
        assert constant_term(model, n) == naive_coefficient(model, n)


def test_constant_term_sigma5_n1_by_hand():
    # (x1+x2+x3)(x2+x3)(x1+x2) has x1 x2 x3 coefficient 3
    assert constant_term(linear_form_model(SIGMA5), 1) == 3


def test_sigma8_initial_terms():
    model = linear_form_model(SIGMA8)
    values = [constant_term(model, n) for n in range(6)]
    assert values == [1, 33, 8929, 4124193, 2435948001, 1657775448033]


def test_representative_independence():
    targets = [SIGMA5, SIGMA6, SIGMA7, SIGMA8]
    for sigma in targets:
        reference = [constant_term(linear_form_model(sigma), n) for n in range(4)]
        for image in dihedral_images(sigma):
            model = linear_form_model(image)
            assert [constant_term(model, n) for n in range(4)] == reference


def test_relabeled_representative_independence():
    reference = [constant_term(linear_form_model(SIGMA7), n) for n in range(4)]
    images = coset_images(SIGMA7)
    for image in images[:: max(1, len(images) // 12)]:
        model = linear_form_model(image)
        assert [constant_term(model, n) for n in range(4)] == reference


# ---------------------------------------------------------------------------
# oracle equivalences
# ---------------------------------------------------------------------------

def test_sigma5_equals_apery_a(shared_catalog):
    record = leading_coefficients(canonical_configuration(SIGMA5), 20, shared_catalog)
    assert record.terms == [apery_a(n) for n in range(21)]


def test_sigma6_equals_apery_b(shared_catalog):
    record = leading_coefficients(canonical_configuration(SIGMA6), 15, shared_catalog)
    assert record.terms == [apery_b(n) for n in range(16)]


def test_sigma7_equals_apery_a_squared(shared_catalog):
    record = leading_coefficients(canonical_configuration(SIGMA7), 15, shared_catalog)
    assert record.terms == [apery_a(n) ** 2 for n in range(16)]


def test_power_family_oracle(shared_catalog):
    for m in (2, 3, 4):
        record = leading_coefficients(apery_power_family(m), 8, shared_catalog)
        assert record.terms == [apery_a(n) ** (m - 1) for n in range(9)]


def test_sigma8_matches_closed_form_to_30(shared_catalog):
    record = leading_coefficients(canonical_configuration(SIGMA8), 30, shared_catalog)
    assert record.terms == [a_sigma8(n) for n in range(31)]


def test_monotone_growth(shared_catalog):
    for n_points in (5, 6, 7, 8):
        for c in enumerate_convergent(n_points).configurations:
            terms = leading_coefficients(c, 5, shared_catalog).terms
            assert all(terms[i + 1] > terms[i] for i in range(5))


def test_dual_coefficients_measured(shared_catalog):
    # Whether duality preserves the coefficients is left open upstream.
    # Measured here: it does NOT in general.  Freeze one witness pair so a
    # future engine change that silently symmetrizes the values gets caught.
    c = canonical_configuration((1, 3, 5, 2, 7, 4, 6))
    d = dual(c)
    assert leading_coefficients(c, 3, shared_catalog).terms == [1, 11, 559, 42923]
    assert leading_coefficients(d, 3, shared_catalog).terms == [1, 7, 199, 8359]
    # Self-dual configurations agree trivially; count how common each case is.
    differing = 0
    for n_points in (5, 6, 7, 8):
        for cfg in enumerate_convergent(n_points).configurations:
            dl = dual(cfg)
            a = leading_coefficients(cfg, 3, shared_catalog).terms
            b = leading_coefficients(dl, 3, shared_catalog).terms
            if cfg == dl:
                assert a == b
            elif a != b:
                differing += 1
    assert differing == 16  # 4 one-sided pairs at N=7, 12 at N=8


def test_best_model_is_equivalent(shared_catalog):
    c = canonical_configuration(SIGMA8)
    model = best_model(c)
    assert [constant_term(model, n) for n in range(3)] == [1, 33, 8929]


def _best_over_double_coset(c):
    """The search best_model used to make: every double-coset image, each checked."""
    best = None
    for image in coset_images(c.sigma):
        m = linear_form_model(image)
        key = (_sweep_cost(m.factors), m.factors)
        if best is None or key < best[0]:
            best = (key, m)
    return best[1]


def test_best_model_matches_double_coset_search():
    for n in (5, 6, 7, 8, 9):
        for c in enumerate_convergent(n).configurations:
            assert best_model(c) == _best_over_double_coset(c), c


def test_lattice_count_matches_enumeration():
    # The ranking counts a step's state as the exponent vectors of its width
    # and total degree under the cap.
    for width in range(5):
        for n in range(1, 5):
            for total in range(-1, width * n + 2):
                brute = sum(sum(e) == total for e in itertools.product(range(n + 1), repeat=width))
                assert _lattice_count(width, n, total) == brute, (width, n, total)


# sha256 of repr([best_model(c).factors for c in enumerate_convergent(N).configurations]).
# The rule: the least estimated sweep work at the reference n = 10 (each
# step's state counted as the exponent vectors of its width and total degree),
# ties to the smaller factor tuple.  The double-coset oracle above ranks with
# _sweep_cost too, so a change in the estimate, its reference n or the
# tie-break would move both sides of that test; it shows here.
BEST_MODEL_SHA256 = {
    9: "c605e5ba8e545532c193eed2f0b9ba14e29d7354180b9352fd761db9b1f58b0f",
    10: "9892544773be193dc0b6148f4279addc790976e8b1ab6f7d3b5b10ba7b4e0ff3",
}


def test_best_model_choices_are_pinned():
    for n_points, digest in BEST_MODEL_SHA256.items():
        factors = [best_model(c).factors for c in enumerate_convergent(n_points).configurations]
        assert hashlib.sha256(repr(factors).encode()).hexdigest() == digest, n_points


def test_seat_images_give_every_double_coset_model():
    # Relabelling values dihedrally leaves the interval model unchanged.
    for n in (5, 6, 7, 8):
        for c in enumerate_convergent(n).configurations:
            over_coset = {linear_form_model(image) for image in coset_images(c.sigma)}
            over_seats = {linear_form_model(image) for image in dihedral_images(c.sigma)}
            assert over_coset == over_seats, c


def test_best_model_rejects_nonconvergent():
    with pytest.raises(ValueError, match="not a convergent permutation"):
        best_model(canonical_configuration((1, 2, 3, 4, 5)))


def test_star_product_multiplies_coefficients(shared_catalog):
    # Gluing the 5- and 6-point configurations must multiply their
    # coefficient sequences; multiply() and the sweep know nothing of each
    # other, so agreement here checks both at once.
    from oracles import DihedralStructure, MultiplicationSite, multiply

    pair5 = (DihedralStructure((1, 2, 3, 4, 5)), DihedralStructure(SIGMA5))
    pair6 = (DihedralStructure(tuple(range(1, 7))), DihedralStructure(SIGMA6))
    product = multiply(pair5, pair6, MultiplicationSite((1, 2, 3), (5, 3, 6)))
    assert product.n_points == 8
    terms = leading_coefficients(product, 6, shared_catalog).terms
    assert terms == [apery_a(n) * apery_b(n) for n in range(7)]
