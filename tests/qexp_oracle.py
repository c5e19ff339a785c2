"""The Hecke operators T_l and U_p and an index-order reference for
eiszeta.qexp.verify_eigensystem, built from state_add, state_mul and
state_agreement only, with no fused kernel.

image_terms yields the terms of T_l f (a prime l != p) or U_p f (l = p) in
index order: a_(nl), plus eps(l) l^(k-1) a_(n/l) where l != p divides n.
eps(l) l^(k-1) is one power of l formed by pow (omega(l) = l^(p^(N-1)) mod
p^N), not a lift read from the table of eiszeta.padic.  hecke builds the
image and first_mismatch compares two series, for the tests.

verify_eigensystem checks T_l f = a_l f for each prime l <= 20 but p, then
U_p f = a_p f, each in one pass over n in index order, and the first index
whose comparison fails or raises decides.  index_order_report does the same
the plain way: at each n it forms the image term, then the product a_l a_n,
and compares the two by the agreement exponent.

Run as a script, it compares verify_eigensystem with index_order_report,
the same report or the same exception and message, on a fixed grid: the
critical, ordinary and twin series at p in {3, 5, 7}, N in {1, 2, 3},
k = 2..5 and every admissible i, truncated at M = 27, each with every
single index replaced by a zero to p^1, a unit at valuation -2 and a unit at
valuation 0, and at p in {3, 5} and N in {1, 2} with every pair of indices
replaced so.  It exits 1 at the first difference:

    PYTHONPATH=src python3 tests/qexp_oracle.py
"""

from __future__ import annotations

import sys
from itertools import combinations, product

from eiszeta.kubota import WeightPoint
from eiszeta.padic import PadicContext, state_add, state_agreement, state_mul
from eiszeta.qexp import (
    CHECK_PRIMES,
    EigenReport,
    OperatorCheck,
    QExpansion,
    check_terms,
    eisenstein_critical,
    eisenstein_ordinary,
    verify_eigensystem,
)


def _agree(P: tuple, a: tuple, b: tuple) -> bool:
    """a and b agree to the lower of their absolute precisions."""
    return state_agreement(P, a, b) >= min(a[0] + a[2], b[0] + b[2])


def image_terms(f: QExpansion, l: int):
    """The terms of T_l f for a prime l != p, or of U_p f for l = p, in
    index order: a_(nl), plus eps(l) l^(k-1) a_(n/l) where l != p divides n."""
    p, N, P, a = f.ctx.p, f.ctx.precision, f.ctx.powers, f.states
    if l != p:  # eps(l) l^(k-1) = omega(l)^i l^(k-1), omega(l) = l^(p^(N-1)) mod p^N
        back = 0, pow(l, f.char_exponent * p ** (N - 1) + f.weight - 1, P[N]), N
    for n in range(f.truncation // l + 1):
        image = a[n * l]
        if l != p and n % l == 0:
            image = state_add(P, N, image, state_mul(P, back, a[n // l]))
        yield image


def hecke(f: QExpansion, l: int) -> QExpansion:
    """T_l f for a prime l != p, U_p f for l = p."""
    return QExpansion(f.ctx, f.weight, f.char_exponent, image_terms(f, l))


def first_mismatch(f: QExpansion, g: QExpansion) -> int | None:
    """The first index, over the common truncation, where f and g disagree
    to the lower of their precisions, or None; as for coefficients, the two
    must share the prime (ContextMismatchError otherwise)."""
    return next((n for n, (x, y) in enumerate(zip(f.coeffs, g.coeffs)) if x != y), None)


def index_order_report(f: QExpansion) -> EigenReport:
    """verify_eigensystem's report for f, or its exception, by the
    index-order rule: for each operator, the first n whose image term or
    product raises, or whose comparison fails, decides."""
    p, N, P, a = f.ctx.p, f.ctx.precision, f.ctx.powers, f.states
    check_terms(p, f.truncation)
    if not _agree(P, a[1], (0, 1, N)):
        raise ValueError("eigensystem verification expects a normalized expansion (a_1 = 1)")
    checks = []
    for l in [l for l in CHECK_PRIMES if l != p] + [p]:
        bad = next((n for n, image in enumerate(image_terms(f, l))
                    if not _agree(P, image, state_mul(P, a[l], a[n]))), None)
        checks.append(OperatorCheck(f"{'U' if l == p else 'T'}_{l}", bad is None, bad))
    return EigenReport(all(c.passed for c in checks), tuple(checks))


def outcome(fn):
    """What fn() returns, or the name and message of the exception it raises."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__, str(e)


M = 27


def series(p: int, N: int):
    """The critical, ordinary and twin series at p, k = 2..5 and every
    admissible i, truncated at M, where they build at precision N."""
    ctx = PadicContext(p, N)
    for k in range(2, 6):
        for i in range(k % 2, p - 1, 2):
            if (k, i) == (2, 0):
                continue
            w = WeightPoint.classical(p, k, i)
            for build in (lambda: eisenstein_critical(p, k, i, M, ctx),
                          lambda: eisenstein_ordinary(w, M, ctx),
                          lambda: eisenstein_ordinary(w.twin(), M, ctx)):
                f = outcome(build)
                if isinstance(f, QExpansion):
                    yield f


def replacements(p: int, N: int) -> tuple:
    """A zero to p^1, a unit at valuation -2 and a unit at valuation 0."""
    return (1, None, 0), (-2, 1, N), (0, p - 1, N)


def corrupted(f: QExpansion, sites):
    """f with a_n replaced by the state s for each (n, s) in sites."""
    states = list(f.states)
    for n, s in sites:
        states[n] = s
    return QExpansion(f.ctx, f.weight, f.char_exponent, states)


def cases():
    """Every series of the grid with one index, or (at p in {3, 5} and
    N in {1, 2}) two indices, replaced."""
    for p in (3, 5, 7):
        for N in (1, 2, 3):
            subs = replacements(p, N)
            for f in series(p, N):
                for n, s in product(range(M + 1), subs):
                    yield corrupted(f, [(n, s)])
                if p < 7 and N < 3:
                    for (n, m), (s, t) in product(combinations(range(M + 1), 2),
                                                  product(subs, repeat=2)):
                        yield corrupted(f, [(n, s), (m, t)])


def main() -> int:
    count = raised = 0
    for f in cases():
        got, want = outcome(lambda: verify_eigensystem(f)), outcome(lambda: index_order_report(f))
        if got != want:
            print(f"differs from the index-order reference at p = {f.ctx.p}, N = {f.ctx.precision}, "
                  f"weight {f.weight}, i = {f.char_exponent}, states {f.states}: {got} != {want}")
            return 1
        count += 1
        raised += isinstance(want, tuple)
    print(f"verify_eigensystem matches the index-order reference on {count} corrupted series "
          f"({raised} of them raise)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
