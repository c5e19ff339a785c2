"""Exact Bernoulli numbers and polynomials, and generalized Bernoulli numbers
for Teichmuller characters evaluated p-adically.

Conventions, pinned here and exercised by the tests:

* B_1 = -1/2 (so B_n(x) = sum_k C(n,k) B_k x^(n-k) with the usual polynomial
  expansion, and B_n(0) = B_n).
* Generalized numbers use B_{n,chi} = f^(n-1) * sum_{a=1}^{f} chi(a) B_n(a/f)
  with f the conductor.  For the trivial character this yields B_n(1), hence
  B_{1,triv} = +1/2 while B_{n,triv} = B_n for n >= 2; that sign at n = 1 is
  exactly what the L-function interpolation identities require.

B_n is computed and cached as an exact rational from the tangent numbers
(Brent-Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
2011): Seidel's boustrophedon advances one row of the Entringer triangle per
index using integer additions only, its last entry is the zigzag number
A_{n-1}, and A_{2k-1} is the tangent number T_k, with
B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  Embedding into Q_p is the very
last step, which keeps an exact divisibility oracle available for the
irregular-prime machinery.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .characters import TeichCharacter
from .padic import PadicContext, PadicNumber

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "bernoulli_polynomial_at",
    "generalized_bernoulli",
    "MAX_BERNOULLI_INDEX",
]

# Denominator-growth guard: refuse silently degrading computations past this.
MAX_BERNOULLI_INDEX = 2000

_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# The last boustrophedon row, row len(_cache) - 2 of the Entringer triangle;
# extended together with _cache under the same lock.
_row: list[int] = [1]
_cache_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact rational (B_1 = -1/2), from the tangent number
    T_k = A_{2k-1} of Seidel's boustrophedon, memoized."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n > MAX_BERNOULLI_INDEX:
        raise ValueError(f"Bernoulli index {n} exceeds the ceiling {MAX_BERNOULLI_INDEX}")
    with _cache_lock:
        while len(_cache) <= n:
            m = len(_cache)
            # row m-1 = [0] + running sums of row m-2 reversed, in place
            _row.reverse()
            for i in range(1, len(_row)):
                _row[i] += _row[i - 1]
            _row.insert(0, 0)
            if m % 2 == 1:  # B_odd = 0 for odd >= 3
                _cache.append(Fraction(0))
                continue
            k = m // 2
            _cache.append(Fraction((-1) ** (k - 1) * m * _row[-1], 4**k * (4**k - 1)))
        return _cache[n]


def bernoulli_polynomial(n: int) -> list[Fraction]:
    """Coefficients of B_n(x), ascending in x: coefficient of x^j is
    C(n,j) * B_{n-j}."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return [Fraction(comb(n, j)) * bernoulli_number(n - j) for j in range(n + 1)]


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    """The polynomial with ascending coefficients ``coeffs`` at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bernoulli_polynomial_at(n: int, x: Fraction) -> Fraction:
    """B_n(x) for exact rational x, by Horner."""
    return _horner(bernoulli_polynomial(n), x)


def generalized_bernoulli(n: int, chi: TeichCharacter, ctx: PadicContext) -> PadicNumber:
    """B_{n,chi} evaluated in Q_p.

    The defining sum runs over 1..f with f the conductor; character values are
    Teichmuller roots of unity, so the result is genuinely p-adic unless chi
    is quadratic or trivial.  Parity forces an algebraic zero whenever
    chi(-1) != (-1)^n, except for (n, chi) = (1, trivial).
    """
    if n < 1:
        raise ValueError("generalized Bernoulli numbers need n >= 1")
    if ctx.p != chi.p:
        raise ValueError("context prime differs from character prime")
    f = chi.conductor
    poly = bernoulli_polynomial(n)
    total = None
    for a in range(1, f + 1):
        if f > 1 and a % chi.p == 0:
            continue  # chi kills multiples of p
        term = chi.value(a, ctx) * PadicNumber.from_rational(_horner(poly, Fraction(a, f)), ctx)
        total = term if total is None else total + term
    return total * PadicNumber.from_rational(Fraction(f) ** (n - 1), ctx)
