"""Exact Bernoulli numbers, and generalized Bernoulli numbers for Teichmuller
characters evaluated p-adically.

Conventions, pinned here and exercised by the tests:

* B_1 = -1/2.
* Generalized numbers are B_{n,chi} = f^(n-1) * sum_{a=1}^{f} chi(a) B_n(a/f)
  with f the conductor: 1 for the trivial character, p otherwise.  For the
  trivial character this yields B_n(1), hence B_{1,triv} = +1/2 while
  B_{n,triv} = B_n for n >= 2; that sign at n = 1 is exactly what the
  L-function interpolation identities require.  Every other character is
  summed against the values of a Bernoulli polynomial (see
  generalized_bernoulli).

B_n is computed and cached as an exact rational from the tangent numbers
T_k, with B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), by the TangentNumbers
recurrence of Brent and Harvey ("Fast computation of Bernoulli, Tangent and
Secant numbers", 2011) run one column at a time.  Their in-place pass over
T[1..n] sets T[j] = (j-1)! and then, at stage s = 2, ..., n, updates
T[j] <- (j-s) T[j-1] + (j-s+2) T[j] for j = s, ..., n.  The values T[K]
takes after stages 1, ..., K, the last being T_K, form tangent column K,
and column K + 1 follows from column K alone in K multiply-adds.  So the
fill to T_k costs about k^2/2 multiply-adds of a big integer by a small
one, where Seidel's boustrophedon costs about 2k^2 additions.  Embedding
into Q_p is the very last step, which keeps an exact divisibility oracle
available for the irregular-prime machinery.

Which B_j vanish modulo p is screened without them (_zeros_mod_p): as
x/(e^x - 1) = sum_j B_j x^j / j!, the B_j / j! mod p for j < p - 1 are the
coefficients of one power-series inverse modulo (p, x^(p-1)), the route of
Buhler and Harvey ("Irregular primes to 163 million", 2011).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb

from .characters import TeichCharacter
from .padic import PadicContext, PadicNumber, _horner, state_normalize

__all__ = [
    "bernoulli_number",
    "generalized_bernoulli",
    "check_bernoulli_index",
    "MAX_BERNOULLI_INDEX",
]

# Denominator-growth guard: refuse silently degrading computations past this.
MAX_BERNOULLI_INDEX = 2000

_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# The last tangent column K (module docstring): the values T[K] takes after
# stages 1, ..., K, so _row[-1] = T_K.  Column 1 is [0!] = [T_1], which B_2
# reads; extended together with _cache under the same lock.
_row: list[int] = [1]
_cache_lock = threading.Lock()


def check_bernoulli_index(n: int) -> None:
    """Refuse, before any arithmetic, an index past MAX_BERNOULLI_INDEX."""
    if n > MAX_BERNOULLI_INDEX:
        raise ValueError(f"Bernoulli index {n} exceeds the ceiling {MAX_BERNOULLI_INDEX}")


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact rational (B_1 = -1/2), from the tangent number T_k of
    the last tangent column, memoized."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    check_bernoulli_index(n)
    with _cache_lock:
        while len(_cache) <= n:
            m = len(_cache)
            if m % 2 == 1:  # B_odd = 0 for odd >= 3
                _cache.append(Fraction(0))
                continue
            k = m // 2
            if len(_row) < k:  # column k from column k - 1, in k multiply-adds
                t = (k - 1) * _row[0]  # (k-1)! after stage 1
                col = [t]
                # stage s = 2, ..., k-1 with w = k - s: w T[k-1] + (w+2) T[k]
                for w, prev in zip(range(k - 2, 0, -1), _row[1:]):
                    t = w * prev + (w + 2) * t
                    col.append(t)
                col.append(2 * t)  # stage k, where w = 0
                _row[:] = col
            _cache.append(Fraction((-1) ** (k - 1) * m * _row[-1], 4**k * (4**k - 1)))
        return _cache[n]


def generalized_bernoulli(n: int, chi: TeichCharacter, ctx: PadicContext) -> PadicNumber:
    """B_{n,chi} evaluated in Q_p.

    For the trivial character this is the exact rational B_n(1): +1/2 at
    n = 1 and B_n otherwise.  For chi = omega^e != 1 the binomial expansion
    of the defining sum gives

        p B_{n,chi} = sum_{a=1}^{p-1} chi(a) f(a),
        f(a) = sum_{m=0}^{n} C(n,m) B_m p^m a^(n-m) = p^n B_n(a/p),

    where every coefficient C(n,m) B_m p^m is p-integral (von
    Staudt-Clausen), so p * B_{n,chi} is summed as one integer modulo
    p^(N+1): one guard digit, after which the division by p leaves the value
    known modulo p^N, cut to N relative digits.  f(a) does not depend on chi
    and is read from _bernoulli_values.  Parity forces an algebraic zero
    whenever chi(-1) != (-1)^n.
    """
    if n < 1:
        raise ValueError("generalized Bernoulli numbers need n >= 1")
    if ctx.p != chi.p:
        raise ValueError("context prime differs from character prime")
    check_bernoulli_index(n)  # _bernoulli_values reads no B_m past m = N + 1
    if chi.is_trivial:
        return PadicNumber.from_rational(Fraction(1, 2) if n == 1 else bernoulli_number(n), ctx)
    p, N = ctx.p, ctx.precision
    G = N + 1
    guard = PadicContext(p, G)
    total = sum(chi.value(a, guard).unit * f
                for a, f in enumerate(_bernoulli_values(p, n, G), 1))
    P = guard.powers
    return PadicNumber.from_state(ctx, state_normalize(P, N, *state_normalize(P, G, -1, total, G)))


BERNOULLI_VALUES_CACHE_SIZE = 1


@lru_cache(maxsize=BERNOULLI_VALUES_CACHE_SIZE)
def _bernoulli_values(p: int, n: int, G: int) -> tuple:
    """f(a) = sum_m C(n,m) B_m p^m a^(n-m) mod p^G for a = 1, ..., p - 1,
    by the integer kernel padic._horner with top = n.  Term m has valuation
    at least m + v(B_m) >= m - 1, so it vanishes mod p^G past m = G, and
    only B_0, ..., B_min(n, G) are read.  Cached for the last (p, n, G)
    only: a scan asks for one key per point, n = k, and visits the points of
    one (p, k) in an unbroken run, so a larger cache gains no hits."""
    mod = p**G
    coeffs = []  # C(n,m) B_m p^m mod p^G, the coefficient of a^(n-m)
    for m in range(min(n, G) + 1):
        c = comb(n, m) * bernoulli_number(m) * p**m
        coeffs.append(c.numerator * pow(c.denominator, -1, mod) % mod)
    return tuple(_horner(coeffs, range(1, p), n, mod))


def _zeros_mod_p(p: int) -> list[int]:
    """The even j in [2, p - 3] with B_j = 0 mod p, for an odd prime p.

    h = 1/g modulo (p, x^(p-1)) with g = (e^x - 1)/x = sum_i x^i/(i+1)! has
    h_j = B_j / j!, and j! is a unit for j < p, so the zero h_j mark the j.
    h is found by Newton steps h <- h (2 - g h), each doubling the number of
    correct coefficients, and each product of polynomials is one product of
    integers by Kronecker substitution: the coefficients, all in [0, p),
    are packed into fixed-width little-endian slots wide enough for a
    coefficient of the product, at most n (p - 1)^2 with n = p - 1 terms."""
    n = p - 1
    g, f = [], 1
    for i in range(1, n + 1):  # g_(i-1) = 1/i! mod p
        f = f * i % p
        g.append(pow(f, -1, p))
    width = (n.bit_length() + 2 * (p - 1).bit_length() + 7) // 8

    def mul(a: list, b: list, m: int) -> list:
        # a b mod (p, x^m)
        x, y = (int.from_bytes(b"".join(c.to_bytes(width, "little") for c in v), "little")
                for v in (a, b))
        raw = (x * y).to_bytes((len(a) + len(b)) * width, "little")
        return [int.from_bytes(raw[i:i + width], "little") % p
                for i in range(0, m * width, width)]

    h, m = [1], 1
    while m < n:
        m = min(2 * m, n)
        e = [-c % p for c in mul(g[:m], h, m)]  # -g h
        e[0] = (e[0] + 2) % p  # 2 - g h
        h = mul(h, e, m)
    return [j for j in range(2, p - 2, 2) if h[j] == 0]
