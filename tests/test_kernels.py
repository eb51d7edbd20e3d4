import itertools
import random
from math import gcd

import numpy as np
import pytest

from cellform import kernels
from cellform.configurations import canonical_configuration, is_convergent
from cellform.modforms import legendre_trace

from oracles import coset_images, decode_key


def _perm_batch(n):
    rows = list(itertools.permutations(range(1, n + 1)))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_convergence_paths_agree(n):
    batch = _perm_batch(n)
    expected = np.array([is_convergent(tuple(r)) for r in batch])
    assert np.array_equal(kernels.convergent_mask(batch), expected)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_generated_rows_are_one_per_rotation_and_reflection(n):
    # first seat 1, and of each reflection pair the row with seat[1] > seat[n-1]
    want = [p for p in itertools.permutations(range(1, n + 1))
            if p[0] == 1 and p[1] > p[-1] and is_convergent(p)]
    rows = kernels.convergent_permutations(n)
    assert rows.dtype == np.int8
    assert sorted(map(tuple, rows.tolist())) == want


def test_convergence_tables_reject_n_over_15():
    # The bitmask table has 2^N entries.
    with pytest.raises(ValueError, match="N=16"):
        kernels.convergent_mask(np.arange(1, 17, dtype=np.int64)[None, :])


@pytest.mark.parametrize("n", [5, 6, 7])
def test_canonical_key_paths_agree(n):
    batch = _perm_batch(n)[:720]
    keys = kernels.canonical_keys(batch)
    # keys decode to the canonical double-coset representative, the least
    # element of the brute-force double coset
    for row, key in zip(batch, keys):
        decoded = decode_key(int(key), n)
        assert decoded == canonical_configuration(tuple(row)).sigma
        assert decoded == min(coset_images(tuple(row)))


def _assert_both_paths_give_the_least_image(rows):
    """Both canonical forms of each row (all rows of one length) against the oracle."""
    keys = kernels.canonical_keys(np.array(rows))
    for row, key in zip(rows, keys):
        least = min(coset_images(row))
        assert decode_key(int(key), len(row)) == least, row
        assert canonical_configuration(row).sigma == least, row


@pytest.mark.parametrize("n", range(8, 16))
def test_canonical_key_paths_agree_on_sampled_rows(n):
    # Both paths keep only the images whose second digit is least, and most
    # rows leave several of them tied there.
    rng = random.Random(2026 + n)
    _assert_both_paths_give_the_least_image([tuple(rng.sample(range(1, n + 1), n)) for _ in range(100)])


@pytest.mark.parametrize("n", range(5, 16))
def test_canonical_key_paths_agree_on_rows_with_stabilisers(n):
    # The rows 1, 1+k, 1+2k, ... (mod N) with gcd(k, N) = 1 tie every surviving
    # image to the last digit: the identity (k = 1), 1,3,5,2,4 (N=5, k=2) and
    # sigma8 = 1,4,7,2,5,8,3,6 (N=8, k=3) among them.
    rows = [tuple(1 + i * k % n for i in range(n)) for k in range(1, n) if gcd(k, n) == 1]
    # Rows fixed by reflecting both seats and values (seat -i holds 2 - value
    # of seat i, mod N): each image comes twice, and the survivors differ.
    rng = random.Random(n)
    half = (n - 1) // 2
    middle = [n // 2] if n % 2 == 0 else []  # the seat opposite seat 0 holds N/2 + 1
    for _ in range(40):
        arm = [rng.choice((v, n - v)) for v in rng.sample(range(1, half + 1), half)]
        row = [0, *arm, *middle, *[n - v for v in reversed(arm)]]
        rows.append(tuple(v + 1 for v in row))
    _assert_both_paths_give_the_least_image(rows)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 521, 1009])
def test_legendre_paths_agree(p):
    traces = kernels.legendre_traces(p)
    assert traces.tolist() == [legendre_trace(p, lam) for lam in range(2, p)]


@pytest.mark.parametrize("p", [1, 2, 9])
def test_legendre_traces_rejects_non_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        kernels.legendre_traces(p)


def test_run_merge_counts_down():
    # (1,3,2,...): the window {1,3} has two runs until 2 joins them; a
    # miscounted merge would leave this row marked convergent.
    batch = np.array([[1, 3, 2, 4, 5], [1, 3, 5, 2, 4]], dtype=np.int64)
    assert kernels.convergent_mask(batch).tolist() == [False, True]
    assert [is_convergent(tuple(r)) for r in batch.tolist()] == [False, True]


def test_decode_key_inverts_encoding():
    batch = _perm_batch(5)[:40]
    keys = kernels._encode(batch)
    for row, key in zip(batch, keys):
        assert decode_key(int(key), 5) == tuple(row)


def test_canonical_keys_reject_overflowing_n():
    # 17**16 > 2**63: the identity of length 16 used to come back negative.
    with pytest.raises(ValueError, match="N=16"):
        kernels.canonical_keys(np.arange(1, 17, dtype=np.int64)[None, :])


def test_length_15_key_roundtrips():
    row = np.array([[1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6, 8, 10, 12, 14]], dtype=np.int64)
    assert decode_key(int(kernels._encode(row)[0]), 15) == tuple(row[0])
    key = int(kernels.canonical_keys(row)[0])
    assert decode_key(key, 15) == canonical_configuration(tuple(row[0])).sigma
