"""An independent check of zeta_p(twin), the value the etale verdict reads.

The ordinary twin of a critical point z^k omega^i sits on branch
j* = 2 - k - i, and zeta_p(twin) = L_p(k - 1, branch j*) comes from the
series route alone.  Take the least n >= 1 with n = 2 - k mod (p - 1) p^m,
m as large as n <= MAX_BERNOULLI_INDEX allows; then 1 - n = k - 1 mod
(p - 1) p^m, and the exact interpolation value L_p(1 - n, branch j*) is
close to it (Washington, Thm 7.10):

* on a nontrivial branch, L_p(s) = f((1 + p)^s - 1) with f in Z_p[[T]], so
  the two values agree modulo p^(m+1);
* on the trivial branch, (s - 1) L_p(s) is such a function divided by p, so
  (s - 1) L_p(s) at the two arguments agree modulo p^m.

Neither value is known past its absolute precision, so the agreement asked
for is the least of that target and the two absolute precisions.

Run as a script, it checks every critical point of a fixed grid, p in
{5, 7, 11, 13, 23, 37, 59, 67, 101, 157}, k = 2..12 and every admissible i,
at N = 20, and exits 1 at the first point that falls short:

    PYTHONPATH=src python3 tests/twin_check.py
"""

from __future__ import annotations

import sys

from eiszeta.bernoulli import MAX_BERNOULLI_INDEX
from eiszeta.kubota import WeightPoint, lp_interpolation, zeta_weight
from eiszeta.padic import PadicContext, agreement_precision

GRID_PRIMES = (5, 7, 11, 13, 23, 37, 59, 67, 101, 157)


def interpolation_partner(p: int, k: int) -> tuple:
    """(n, m): the least n >= 1 with n = 2 - k mod (p - 1) p^m, for the
    largest m that keeps n <= MAX_BERNOULLI_INDEX."""
    def least(modulus: int) -> int:
        return (2 - k) % modulus or modulus

    m = 0
    while least((p - 1) * p ** (m + 1)) <= MAX_BERNOULLI_INDEX:
        m += 1
    return least((p - 1) * p**m), m


def twin_agreement(p: int, k: int, i: int, N: int) -> tuple:
    """(agreement, wanted) at the critical point z^k omega^i and precision N:
    the exponent to which zeta_p(twin) agrees with the interpolation value at
    1 - n (both times s - 1 on the trivial branch), and the exponent the
    module docstring promises, capped by both absolute precisions."""
    twin = WeightPoint.critical(p, k, i).twin()
    j, (n, m) = twin.branch, interpolation_partner(p, k)
    ctx = PadicContext(p, N)
    series = zeta_weight(twin, ctx).value  # L_p(k - 1, branch j*)
    interp = lp_interpolation(n, j, ctx).value  # L_p(1 - n, branch j*)
    target = m + 1
    if j == 0:
        series, interp, target = series * (k - 2), interp * (-n), m
    wanted = min(target, series.abs_precision, interp.abs_precision)
    return agreement_precision(series, interp), wanted


def main() -> int:
    points = [(p, k, i) for p in GRID_PRIMES for k in range(2, 13) for i in range(p - 1)
              if (k - i) % 2 == 0 and (k, i) != (2, 0)]
    for p, k, i in points:
        got, wanted = twin_agreement(p, k, i, 20)
        if got < wanted:
            print(f"zeta_p(twin) at p={p} k={k} i={i} agrees with the interpolation "
                  f"value only modulo p^{got}, not p^{wanted}")
            return 1
    print(f"zeta_p(twin) agrees with the interpolation route at all {len(points)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
