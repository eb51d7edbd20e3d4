"""Small prime utilities used across the package."""
from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # The twelve small primes are a deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int, least: int = 3) -> None:
    """Raise ValueError naming p unless p is a prime >= least."""
    if p < least or not is_prime(p):
        what = "an odd prime" if least == 3 else f"a prime >= {least}"
        raise ValueError(f"p must be {what}, got {p}")


def _phi(p: int, x: int) -> int:
    """The quadratic character of x mod the odd prime p, by Euler's criterion."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def odd_primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p < hi."""
    return [p for p in primes_up_to(hi - 1) if p >= max(lo, 3)]
