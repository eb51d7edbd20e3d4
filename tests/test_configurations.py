import hashlib
import itertools
import random

import numpy as np
import pytest

from cellform.configurations import (
    canonical_configuration,
    dihedral_images,
    dual,
    enumerate_convergent,
    format_configuration,
    inverse_permutation,
    is_convergent,
    parse_configuration,
)

from oracles import (
    DihedralStructure,
    MultiplicationSite,
    NotMultipliableError,
    apery_power_family,
    apery_power_sigma,
    coset_images,
    enumerate_convergent_reference,
    multiplication_triples,
    multiply,
    star_product_pair,
)

SIGMA5 = (1, 3, 5, 2, 4)
SIGMA8 = (8, 3, 6, 1, 4, 7, 2, 5)


# ---------------------------------------------------------------------------
# DihedralStructure
# ---------------------------------------------------------------------------

def test_canonical_dihedral_rotation_of_identity():
    assert DihedralStructure((2, 3, 4, 5, 1)).order == (1, 2, 3, 4, 5)


def test_canonical_dihedral_reflection_of_identity():
    assert DihedralStructure((1, 5, 4, 3, 2)).order == (1, 2, 3, 4, 5)


def test_canonical_dihedral_orbit_agreement():
    # (4,2,5,3,1) and (1,3,5,2,4) lie in the same dihedral orbit
    assert any(img == SIGMA5 for img in dihedral_images((4, 2, 5, 3, 1)))
    assert DihedralStructure((4, 2, 5, 3, 1)) == DihedralStructure(SIGMA5)


def test_canonical_dihedral_rejects_non_permutation():
    with pytest.raises(ValueError):
        DihedralStructure((1, 2, 2, 4))


@pytest.mark.parametrize("n", [5, 6])
def test_canonicalization_idempotent_exhaustive(n):
    for perm in itertools.permutations(range(1, n + 1)):
        once = DihedralStructure(perm)
        assert DihedralStructure(once.order) == once


@pytest.mark.parametrize("n", [7, 8])
def test_canonicalization_idempotent_sampled(n):
    rng = random.Random(20170516 + n)
    for _ in range(200):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        once = DihedralStructure(perm)
        assert DihedralStructure(once.order) == once


# ---------------------------------------------------------------------------
# is_convergent
# ---------------------------------------------------------------------------

def test_convergent_examples():
    assert is_convergent(SIGMA5)
    assert not is_convergent((1, 2, 3, 4, 5))
    assert is_convergent(SIGMA8)


def test_convergent_rejects_small_n():
    with pytest.raises(ValueError):
        is_convergent((1, 3, 2, 4))


def _is_convergent_bruteforce(seq):
    """Definition verbatim: check every k-subset window against value blocks."""
    n = len(seq)
    values = set(range(1, n + 1))
    for k in range(2, n - 1):
        blocks = {frozenset((v - 1 + j) % n + 1 for j in range(k)) for v in values}
        for i in range(n):
            window = frozenset(seq[(i + j) % n] for j in range(k))
            if window in blocks:
                return False
    return True


def test_convergent_matches_bruteforce_n5_n6():
    for n in (5, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            assert is_convergent(perm) == _is_convergent_bruteforce(perm)


@pytest.mark.parametrize("n", [7, 8])
def test_convergence_is_a_class_function(n):
    rng = random.Random(n)
    for _ in range(40):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        expected = is_convergent(perm)
        for image in coset_images(tuple(perm)):
            assert is_convergent(image) == expected


# ---------------------------------------------------------------------------
# canonical_configuration / dual
# ---------------------------------------------------------------------------

def test_identity_configuration():
    c = canonical_configuration((1, 2, 3, 4, 5))
    assert c == canonical_configuration((2, 3, 4, 5, 1))
    assert c.sigma == (1, 2, 3, 4, 5)


def test_configuration_orbit_equality():
    # exhaustively confirm (4,2,5,3,1) appears in the coset of (1,3,5,2,4)
    assert (4, 2, 5, 3, 1) in set(coset_images(SIGMA5))
    assert canonical_configuration(SIGMA5) == canonical_configuration((4, 2, 5, 3, 1))


def test_configuration_agreement_across_constructions():
    # the two seven-point representations of the squared sequence agree
    assert canonical_configuration((6, 3, 7, 5, 2, 4, 1)) == canonical_configuration(
        (1, 3, 7, 5, 2, 6, 4)
    )


def test_configuration_equality_via_canonical_reps():
    rng = random.Random(99)
    for _ in range(25):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        base = canonical_configuration(perm)
        image = rng.choice(coset_images(tuple(perm)))
        assert canonical_configuration(image) == base


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_configuration_matches_coset_oracle_exhaustive(n):
    for perm in itertools.permutations(range(1, n + 1)):
        assert canonical_configuration(perm).sigma == min(coset_images(perm)), perm


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_canonical_configuration_matches_coset_oracle_sampled(n):
    rng = random.Random(1412 + n)
    for _ in range(60):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert canonical_configuration(perm).sigma == min(coset_images(perm)), perm


def test_dual_examples():
    s8 = canonical_configuration(SIGMA8)
    assert dual(s8) == s8  # self-dual
    identity = canonical_configuration((1, 2, 3, 4, 5))
    assert dual(identity) == identity
    s5 = canonical_configuration(SIGMA5)
    assert canonical_configuration(inverse_permutation(SIGMA5)) == s5
    assert dual(s5) == s5


def test_dual_is_involution_on_enumerated_catalog():
    for n in (5, 6, 7, 8):
        for c in enumerate_convergent(n).configurations:
            assert dual(dual(c)) == c


# ---------------------------------------------------------------------------
# star multiplication
# ---------------------------------------------------------------------------

def _sigma5_pair():
    return (DihedralStructure((1, 2, 3, 4, 5)), DihedralStructure(SIGMA5))


def test_star_product_pair_worked_example():
    pair = _sigma5_pair()
    site = MultiplicationSite((1, 2, 3), (4, 2, 5))
    gamma, gamma_p = star_product_pair(pair, pair, site)
    assert DihedralStructure(gamma) == DihedralStructure((1, 2, 3, 4, 7, 6, 5))
    assert DihedralStructure(gamma_p) == DihedralStructure((1, 3, 5, 7, 2, 6, 4))
    assert multiply(pair, pair, site) == canonical_configuration((1, 3, 7, 5, 2, 6, 4))


def _power_step(rho):
    """One multiplication by the five-point factor, following the gluing recipe."""
    n = len(rho)
    pair5 = _sigma5_pair()
    beta = DihedralStructure(tuple(range(1, n + 1)))
    beta_p = DihedralStructure(tuple(rho))
    site = MultiplicationSite((1, 2, 3), (n - 1, rho[1], n))
    return multiply(pair5, (beta, beta_p), site)


def test_power_construction_from_rho():
    assert _power_step((4, 2, 5, 3, 1)) == canonical_configuration((6, 3, 7, 5, 2, 4, 1))


def test_power_construction_chain():
    for m in (2, 3, 4):
        product = _power_step(apery_power_sigma(m))
        assert product == apery_power_family(m + 1)


def test_multiply_independent_of_identification():
    pair = _sigma5_pair()
    site = MultiplicationSite((1, 2, 3), (4, 2, 5))
    default = multiply(pair, pair, site)
    swapped = multiply(pair, pair, site, rest_order=(5, 4))
    assert swapped == default


def test_multiply_rejects_bad_sites():
    pair = _sigma5_pair()
    with pytest.raises(NotMultipliableError):
        multiply(pair, pair, MultiplicationSite((1, 2, 4), (4, 2, 5)))
    with pytest.raises(NotMultipliableError):
        multiply(pair, pair, MultiplicationSite((1, 2, 3), (4, 3, 5)))


def test_sigma8_not_multipliable():
    id8 = DihedralStructure(tuple(range(1, 9)))
    s8 = DihedralStructure(SIGMA8)
    assert multiplication_triples(id8, s8) == []  # no site as a left factor
    assert multiplication_triples(s8, id8) == []  # none through the dual either
    with pytest.raises(NotMultipliableError):
        multiply((id8, s8), (id8, s8), MultiplicationSite((1, 2, 3), (1, 2, 3)))


def test_multiplication_triples_found_for_sigma5():
    id5, s5 = _sigma5_pair()
    sites = multiplication_triples(id5, s5)
    assert (1, 2, 3) in sites


def _sites_by_definition(delta, delta_prime):
    """Each seat i of delta in order: (delta[i], delta[i+1], delta[i+2]) when its
    ends are cyclically adjacent in delta_prime, then its reverse."""
    d, dp = delta.order, delta_prime.order
    sites = []
    for i in range(len(d)):
        t = (d[i], d[(i + 1) % len(d)], d[(i + 2) % len(d)])
        if (dp.index(t[0]) - dp.index(t[2])) % len(dp) in (1, len(dp) - 1):
            sites += [t, t[::-1]]
    return sites


@pytest.mark.parametrize("n", range(5, 10))
def test_multiplication_triples_match_definition(n):
    rng = random.Random(n)
    for _ in range(300):
        delta, delta_prime = (DihedralStructure(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
        sites = multiplication_triples(delta, delta_prime)
        assert sites == _sites_by_definition(delta, delta_prime)
        # (delta, delta') along s times its dual pair (delta', delta) along t = s
        for s in sites:
            args = (delta, delta_prime), (delta_prime, delta), MultiplicationSite(s, s)
            rest = [x for x in range(1, n + 1) if x not in s]
            assert multiply(*args) == multiply(*args, rest_order=rest[::-1])


# ---------------------------------------------------------------------------
# power family
# ---------------------------------------------------------------------------

def test_apery_power_family_literals():
    assert apery_power_sigma(2) == (4, 2, 5, 3, 1)
    assert apery_power_sigma(3) == (6, 3, 7, 5, 2, 4, 1)
    assert apery_power_sigma(4) == (8, 4, 9, 7, 2, 5, 3, 6, 1)
    assert apery_power_sigma(5) == (10, 5, 11, 9, 2, 7, 4, 6, 3, 8, 1)
    assert apery_power_family(2) == canonical_configuration((4, 2, 5, 3, 1))


def test_apery_power_family_rejects_small_m():
    with pytest.raises(ValueError):
        apery_power_family(1)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_match_table():
    # Counting double cosets without identifying dual pairs gives the
    # classical counts; the dual-identified counts are strictly smaller from
    # N = 7 on (3, 10, ... instead of 5, 17, ...).
    expected = {5: 1, 6: 1, 7: 5, 8: 17}
    for n, count in expected.items():
        result = enumerate_convergent(n)
        assert result.count == count
        assert len(result.configurations) == count


def test_enumeration_dual_identified_counts():
    assert enumerate_convergent(7).count_dual_identified == 3
    assert enumerate_convergent(8).count_dual_identified == 10
    assert enumerate_convergent(9).count_dual_identified == 58


def test_enumeration_n6_unique_configuration():
    result = enumerate_convergent(6)
    assert result.configurations == [canonical_configuration((1, 5, 3, 6, 2, 4))]


def test_enumeration_matches_reference():
    for n in (5, 6, 7, 8):
        ref = enumerate_convergent_reference(n)
        got = enumerate_convergent(n).configurations
        assert sorted(c.sigma for c in got) == [c.sigma for c in ref]


def test_enumeration_n11_is_pinned():
    # Counts and the sha256 of the sorted class list, as the (N-1)! scan gave them.
    result = enumerate_convergent(11)
    assert (result.count, result.count_dual_identified) == (7028, 3565)
    keys = "\n".join(sorted(format_configuration(c) for c in result.configurations))
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "9c07fd63cb53fa33e76a8009f2e8cfb9284e5aceaedcb4cc3b50552d723ad580"
    )


def test_enumeration_duals_are_the_duals():
    for n in (5, 6, 7, 8, 9):
        result = enumerate_convergent(n)
        assert result.duals == [dual(c) for c in result.configurations]


def test_enumeration_is_the_same_across_blocks(monkeypatch):
    from cellform import kernels

    rows = sorted(map(tuple, kernels.convergent_permutations(9).tolist()))
    whole = enumerate_convergent(9)
    # With 64-row blocks the N=9 frontiers, its 1463 rows and its keys are split many times.
    monkeypatch.setattr(kernels, "_BATCH", 64)
    assert sorted(map(tuple, kernels.convergent_permutations(9).tolist())) == rows
    assert enumerate_convergent(9) == whole


def test_enumeration_raises_when_a_class_is_lost(monkeypatch):
    from cellform import kernels

    generate = kernels.convergent_permutations
    lost = canonical_configuration((1, 3, 5, 2, 7, 4, 6))  # its dual is 1,3,6,2,5,7,4
    lost_key = kernels.canonical_keys(np.array([lost.sigma]))[0]

    def drop_a_class(n):
        rows = generate(n)
        return rows[kernels.canonical_keys(rows) != lost_key]

    monkeypatch.setattr(kernels, "convergent_permutations", drop_a_class)
    with pytest.raises(ValueError, match=r"N=7: .* duals of 1 of its 4 classes"):
        enumerate_convergent(7)


def test_enumeration_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_convergent(4)


def test_enumeration_rejects_overflowing_n_before_scanning(monkeypatch):
    # N=16 overflows the int64 canonical keys; the key-width check rejects it
    # before convergent_permutations generates any row.
    from cellform import kernels

    def no_scan(n):
        raise AssertionError("scanned permutations before rejecting N")

    monkeypatch.setattr(kernels, "convergent_permutations", no_scan)
    with pytest.raises(ValueError, match="N=16"):
        enumerate_convergent(16)


def test_configuration_string_roundtrip():
    c = canonical_configuration(SIGMA8)
    assert parse_configuration(format_configuration(c)) == c
    assert parse_configuration("8,3,6,1,4,7,2,5") == c


@pytest.mark.parametrize("sigma", [(1.0, 3.9, 5, 2, 4.5), [True, 3, 5, 2, 4]])
def test_permutation_entries_are_not_truncated(sigma):
    with pytest.raises(ValueError):
        canonical_configuration(sigma)


def test_numpy_integer_rows_are_permutations():
    row = np.array([1, 3, 5, 2, 4], dtype=np.int64)
    assert canonical_configuration(row) == canonical_configuration(SIGMA5)
