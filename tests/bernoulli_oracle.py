"""Exact Bernoulli numbers by Seidel's boustrophedon, an oracle independent of
the tangent-number fill in eiszeta.bernoulli.

Each row of the Entringer triangle is the running sums of the previous row
reversed, after a leading 0; the last entry of row m is the zigzag number
A_m, A_{2k-1} is the tangent number T_k, and
B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

Run as a script, it compares bernoulli_number(n) with this fill for every
n <= MAX_BERNOULLI_INDEX (about two seconds):

    PYTHONPATH=src python3 tests/bernoulli_oracle.py
"""

from __future__ import annotations

import sys
from fractions import Fraction


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


def main() -> int:
    from eiszeta.bernoulli import MAX_BERNOULLI_INDEX, bernoulli_number

    want = boustrophedon(MAX_BERNOULLI_INDEX)
    bad = [n for n in range(MAX_BERNOULLI_INDEX + 1) if bernoulli_number(n) != want[n]]
    if bad:
        print(f"bernoulli_number differs from the boustrophedon at n = {bad[:10]}")
        return 1
    print(f"B_0..B_{MAX_BERNOULLI_INDEX} match the boustrophedon")
    return 0


if __name__ == "__main__":
    sys.exit(main())
