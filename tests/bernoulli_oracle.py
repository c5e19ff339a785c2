"""Oracles for eiszeta.bernoulli: exact Bernoulli numbers by Seidel's
boustrophedon, independent of the tangent-number fill, and generalized
Bernoulli numbers by per-exponent twisted power sums, independent of the
cached Bernoulli polynomial values.

Each row of the Entringer triangle is the running sums of the previous row
reversed, after a leading 0; the last entry of row m is the zigzag number
A_m, A_{2k-1} is the tangent number T_k, and
B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

Run as a script, it compares bernoulli_number(n) with this fill for every
n <= MAX_BERNOULLI_INDEX, the screen of B_j mod p that names the irregular
branches with the exact criterion p | numerator(B_j) at every odd prime up
to 2003, and generalized_bernoulli(n, omega^e) with the power sums for every
e at p in {3, 5, 7, 23}, n <= 60 and N in {1, 2, 20}, and at p in {5, 7},
n in {500, 1999} and N in {1, 20} (about seven seconds):

    PYTHONPATH=src python3 tests/bernoulli_oracle.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb


def boustrophedon(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = -1/2) from the zigzag numbers of Seidel's boustrophedon."""
    out = [Fraction(1), Fraction(-1, 2)]
    row = [1]  # row 0
    for m in range(1, n):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new  # row m, ending in A_m
        if m % 2 == 1:  # A_m = T_k with m = 2k - 1 gives B_2k, then B_2k+1 = 0
            k = (m + 1) // 2
            out.append(Fraction((-1) ** (k - 1) * 2 * k * row[-1], 4**k * (4**k - 1)))
            out.append(Fraction(0))
    return out[: n + 1]


def generalized_by_power_sums(n: int, chi, ctx, B=None):
    """B_{n,chi} in Q_p as a PadicNumber, from the binomial expansion of the
    defining sum over per-exponent twisted power sums,

        B_{n,chi} = sum_{i=0}^{n} C(n,i) B_{n-i} p^(n-1-i) S_i,
        S_i = sum_{a=1}^{p-1} chi(a) a^i,

    each chi(a) a^i a running product over i and p * B_{n,chi} one integer
    modulo p^(N+1); B_n(1) (+1/2 at n = 1) for the trivial character.  The
    B_m come from the boustrophedon, or from B, a list of at least B_0..B_n
    that it gave."""
    from eiszeta.padic import PadicContext, PadicNumber, state_normalize

    if B is None:
        B = boustrophedon(n)
    if chi.is_trivial:
        return PadicNumber.from_rational(Fraction(1, 2) if n == 1 else B[n], ctx)
    p, N = ctx.p, ctx.precision
    G = N + 1
    mod = p**G
    guard = PadicContext(p, G)
    sums = dict.fromkeys((i for i in range(n + 1) if B[n - i]), 0)
    for a in range(1, p):
        power = chi.value(a, guard).unit  # chi(a) a^i, from i = 0 up
        for i in range(n + 1):
            if i in sums:
                sums[i] += power
            power = power * a % mod
    total = 0
    for i, s in sums.items():
        c = comb(n, i) * B[n - i] * p ** (n - i)  # p-integral
        total += c.numerator * pow(c.denominator, -1, mod) * s
    P = guard.powers
    return PadicNumber.from_state(ctx, state_normalize(P, N, *state_normalize(P, G, -1, total, G)))


def main() -> int:
    from eiszeta.bernoulli import (
        MAX_BERNOULLI_INDEX,
        _zeros_mod_p,
        bernoulli_number,
        generalized_bernoulli,
    )
    from eiszeta.kubota import MAX_IRREGULAR_PRIME
    from eiszeta.primes import primes_up_to
    from eiszeta.characters import TeichCharacter
    from eiszeta.padic import PadicContext

    want = boustrophedon(MAX_BERNOULLI_INDEX)
    bad = [n for n in range(MAX_BERNOULLI_INDEX + 1) if bernoulli_number(n) != want[n]]
    if bad:
        print(f"bernoulli_number differs from the boustrophedon at n = {bad[:10]}")
        return 1
    print(f"B_0..B_{MAX_BERNOULLI_INDEX} match the boustrophedon")
    primes = primes_up_to(MAX_IRREGULAR_PRIME)[1:]
    bad = [p for p in primes if _zeros_mod_p(p) != [
        j for j in range(2, p - 2, 2) if bernoulli_number(j).numerator % p == 0]]
    if bad:
        print(f"the screen of B_j mod p differs from the exact criterion at p = {bad[:10]}")
        return 1
    print(f"the screen of B_j mod p is the exact criterion at all {len(primes)} odd primes "
          f"up to {MAX_IRREGULAR_PRIME}")
    cases = bad = 0
    # the small grid, then large n, where _bernoulli_values reads no B_m past
    # m = N + 1 and the power sums read every B_m up to n
    grid = [(p, N, range(1, 61)) for p in (3, 5, 7, 23) for N in (1, 2, 20)]
    grid += [(p, N, (500, 1999)) for p in (5, 7) for N in (1, 20)]
    for p, N, ns in grid:
        ctx = PadicContext(p, N)
        for n in ns:
            for e in range(p - 1):
                chi = TeichCharacter(p, e)
                got = generalized_bernoulli(n, chi, ctx)
                ref = generalized_by_power_sums(n, chi, ctx, want)
                cases += 1
                if (got.ctx, got.state) != (ref.ctx, ref.state):
                    print(f"generalized_bernoulli differs at p={p} N={N} n={n} e={e}: "
                          f"{got.state} != {ref.state}")
                    bad += 1
    if bad:
        return 1
    print(f"generalized_bernoulli matches the power sums in {cases} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
