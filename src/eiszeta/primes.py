"""Small prime utilities shared across the package."""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any p this package handles."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p) -> None:
    """The one refusal of a p that is not an odd prime, before any arithmetic."""
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, read from the sieve of smallest prime factors."""
    if bound < 2:
        return []
    spf = smallest_prime_factors(bound)
    return [n for n in range(2, bound + 1) if spf[n] == n]


def smallest_prime_factors(bound: int) -> tuple[int, ...]:
    """spf[n] = smallest prime factor of n, for 0 <= n <= bound (spf[0] = spf[1] = 0).
    Not cached: the q-series builder reads it only through its cached plan
    (qexp._eigen_plan), and primes_up_to runs at import time."""
    spf = list(range(bound + 1))
    if bound >= 1:
        spf[1] = 0
    for q in range(2, int(bound**0.5) + 1):
        if spf[q] == q:
            for m in range(q * q, bound + 1, q):
                if spf[m] == m:
                    spf[m] = q
    return tuple(spf)
