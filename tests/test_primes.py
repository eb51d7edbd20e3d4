import pytest

from cellform._primes import _phi, check_prime
from cellform.congruences import verify_conjecture1, verify_coster
from cellform.ffhyper import build_table, truncated_2f1_mod_p2
from cellform.kernels import legendre_traces
from cellform.modforms import gamma_cm, legendre_trace, two_squares
from cellform.sequences import lemma_suite

PRIME_CALLERS = {
    "legendre_traces": legendre_traces,
    "gamma_cm": lambda p: gamma_cm(4, p),
    "legendre_trace": lambda p: legendre_trace(p, 2),
    "two_squares": two_squares,
    "build_table": build_table,
    "truncated_2f1_mod_p2": lambda p: truncated_2f1_mod_p2(p, 2),
    "lemma_suite": lemma_suite,
    "verify_coster": lambda p: verify_coster("a", p, 1, 1),
    "verify_conjecture1": lambda p: verify_conjecture1("1,3,5,2,4", p, 1, 1),
}


@pytest.mark.parametrize("p", [1, 9, 15, -7])
@pytest.mark.parametrize("caller", PRIME_CALLERS.values(), ids=PRIME_CALLERS.keys())
def test_every_entry_point_names_the_rejected_prime(caller, p):
    with pytest.raises(ValueError) as exc:
        caller(p)
    assert str(exc.value).endswith(f", got {p}")


def test_check_prime_messages():
    check_prime(3)
    check_prime(5, least=5)
    with pytest.raises(ValueError, match="^p must be an odd prime, got 2$"):
        check_prime(2)
    with pytest.raises(ValueError, match="^p must be a prime >= 5, got 3$"):
        check_prime(3, least=5)


def test_phi_is_the_quadratic_character():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        assert [_phi(p, x) for x in range(p)] == [0] + [1 if x in squares else -1 for x in range(1, p)]
