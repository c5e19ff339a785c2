"""Left folds of the p-adic series sums, an oracle for the integer sums in
eiszeta.padic and eiszeta.kubota, and the composed form of the fused check
state_eq_hecke.

exp_small, log_one_unit, the inner sums sum_m c_m a^(-m) of
kubota._branch_free_terms and the branch sum of lp_series add their terms as
one integer and normalise once (the sum rule in eiszeta.padic's docstring);
the last two put their terms over the least valuation by kubota._over_least.
The folds here add the same terms one state_add at a time, as those functions
did before, so every partial sum is normalised.  Both give the same state, or
raise the same exception, except where a fold's partial sum cancels to no
digit: the fold raises there, and the integer sum still answers when its total
keeps a digit.

Run as a script, it compares exp_small and log_one_unit with their folds on a
fixed grid: x = u p^v, u every unit class mod p^2, v = 1..N+2, rel 1..N, at
p in {3, 5, 23} and N in {1, 2, 3, 20}, and for log the one-unit 1 + x, and on
a few deep cases, where exp's last index K runs to 266 and v_p(K!) to 65:
x = u p^v with v in {1, 2} and u a few units to N digits, at p in {5, 101}
and N in {120, 200}.  On the grid it also compares a unit-weighted sum
through kubota._over_least, as lp_series forms its branch sum, and the Horner
sums of kubota with their folds on sums that cancel, and the fused check
state_eq_hecke with the sum and products it stands for.  At each (p, N) of
the grid it compares every Teichmuller lift omega^e(a) that state_char reads
from its table, for every residue a and exponent e, with a power of a formed
by pow.  It exits 1 at the first difference:

    PYTHONPATH=src python3 tests/padic_oracle.py
"""

from __future__ import annotations

import sys

from eiszeta.kubota import _horner_sums, _over_least
from eiszeta.padic import (
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    exp_small,
    log_one_unit,
    state_add,
    state_char,
    state_div,
    state_eq,
    state_eq_hecke,
    state_mul,
    state_neg,
    state_of_int,
    state_normalize,
)


def exp_fold(x: PadicNumber) -> PadicNumber:
    """exp_small(x) with every term added by state_add to the working precision."""
    ctx = x.ctx
    N, p, P = ctx.precision, ctx.p, ctx.powers
    if x.is_zero_to_precision:
        return PadicNumber.from_state(ctx, state_normalize(P, N, 0, 1, x.min_valuation))
    if x.valuation < 1:
        raise ValueError("exp_small needs v(x) >= 1")
    vx = x.valuation
    term = xs = x.state
    total = state_add(P, N, state_of_int(P, N, 1), xs)
    n = 1
    while (n + 1) * vx * (p - 1) - n < N * (p - 1):
        n += 1
        term = state_div(P, state_mul(P, term, xs), state_of_int(P, N, n))
        total = state_add(P, N, total, term)
    return PadicNumber.from_state(ctx, total)


def log_fold(u: PadicNumber) -> PadicNumber:
    """log_one_unit(u) with every term added by state_add to the working precision."""
    z = u - PadicNumber.from_int(1, u.ctx)
    if z.is_zero_to_precision:
        return z
    if z.valuation < 1:
        raise ValueError("log_one_unit needs u = 1 mod p")
    ctx = u.ctx
    N, p, P = ctx.precision, ctx.p, ctx.powers
    vz = z.valuation
    total = zpow = zs = z.state
    n = 1
    while (n + 1) * vz - _floor_log(n + 1, p) < N:
        n += 1
        zpow = state_mul(P, zpow, zs)
        term = state_div(P, zpow, state_of_int(P, N, n))
        total = state_add(P, N, total, state_neg(P, term) if n % 2 == 0 else term)
    return PadicNumber.from_state(ctx, total)


def _floor_log(n: int, p: int) -> int:
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def horner_fold(P: tuple, N: int, coeffs: list, x: int) -> tuple:
    """sum_m c_m x^m for a unit x, by Horner on states (None an exact 0)."""
    coeffs = list(coeffs)
    while coeffs[-1] is None:
        coeffs.pop()
    xs = state_normalize(P, N, 0, x, N)
    total = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        total = state_mul(P, total, xs)
        if c is not None:
            total = state_add(P, N, total, c)
    return total


def dot_fold(P: tuple, N: int, xs, ys) -> tuple:
    """sum_i x_i * y_i, each product by state_mul, added by state_add."""
    total = None
    for x, y in zip(xs, ys):
        term = state_mul(P, x, y)
        total = term if total is None else state_add(P, N, total, term)
    return total


def weighted_sum(P: tuple, N: int, xs, ws) -> tuple:
    """sum_i w_i x_i for states x_i and units w_i known to N digits, as
    lp_series forms its branch sum from kubota._over_least(P, xs)."""
    _, low, rel, ints = _over_least(P, xs)
    return state_normalize(P, N, low, sum(w * x for w, x in zip(ws, ints)), rel)


def outcome(fn):
    """What fn() returns, or the name of the exception it raises."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__


def grid(p: int, N: int):
    """The states u p^v to rel digits: u every unit class mod p^2, v = 1..N+2,
    rel = 1..N (a class reduced mod p^rel where rel = 1)."""
    units = [u for u in range(1, p * p) if u % p]
    for v in range(1, N + 3):
        for rel in range(1, N + 1):
            for u in units:
                yield v, u % p**rel, rel


def deep_cases():
    """(ctx, state) of x = u p^v at p in {5, 101}, N in {120, 200} and
    v in {1, 2}, for a few units u known to all N digits."""
    for p in (5, 101):
        for N in (120, 200):
            mod = p**N
            for v in (1, 2):
                for u in (1, 2, p - 1, mod - 1, pow(2, 3 * N + 1, mod), pow(3, 2 * N + 1, mod)):
                    yield PadicContext(p, N), (v, u, N)


def series_mismatch(ctx: PadicContext, s: tuple) -> str | None:
    """How exp_small(x) and log_one_unit(1 + x) differ from their folds at
    x of state s, or None when each gives the fold's state or exception."""
    x = PadicNumber.from_state(ctx, s)
    u = x + PadicNumber.from_int(1, ctx)
    for name, got, want in (
        ("exp_small", lambda: exp_small(x).state, lambda: exp_fold(x).state),
        ("log_one_unit", lambda: log_one_unit(u).state, lambda: log_fold(u).state),
    ):
        if outcome(got) != outcome(want):
            return (f"{name} at p = {ctx.p}, N = {ctx.precision}, state {s}: "
                    f"{outcome(got)} != {outcome(want)}")
    return None


def hecke_composed(P: tuple, N: int, c, d, e, x, y) -> bool:
    """state_eq_hecke(P, N, c, d, e, x, y) as the sum and products it fuses."""
    return state_eq(P, state_add(P, N, c, state_mul(P, d, e)), state_mul(P, x, y))


def sweep(p: int, N: int) -> str | None:
    """The first input at (p, N) on which an integer sum and its fold, a
    fused check and its composition, or a lift and its power differ."""
    ctx = PadicContext(p, N)
    P, one = ctx.powers, state_of_int(ctx.powers, N, 1)
    mod = P[N]
    for a in range(1, p):
        for e in range(p - 1):
            if state_char(P, N, e, a, 0) != (0, pow(pow(a, e, p), p ** (N - 1), mod), N):
                return f"state_char at p = {p}, N = {N}, e = {e}, a = {a}"
    minus_one = state_neg(P, one)
    for s in grid(p, N):
        bad = series_mismatch(ctx, s)
        if bad:
            return bad
        # 1/p - 1/p + w, w = u p^-v: the first partial sum cancels to no
        # digit, so the fold raises; the sum is w modulo p^min(0, abs(w))
        c, w = (-1, 1, 1), (-s[0], s[1], s[2])
        xs = [c, state_neg(P, c), w]
        got = outcome(lambda: weighted_sum(P, N, xs, [1, 1, 1]))
        want = outcome(lambda: dot_fold(P, N, xs, [one, one, one]))
        kept = state_normalize(P, N, w[0], w[1], min(0, w[0] + w[2]) - w[0])
        if want != PrecisionLossError.__name__ or got != kept:
            return f"weighted sum at p = {p}, N = {N}, state {w}: {got}, fold {want}"
        coeffs = [one, s, None, state_neg(P, s), s]
        for a in (1, 2, p - 1):
            inv_a = pow(a, -1, P[N])
            got = outcome(lambda: _horner_sums(P, N, coeffs, [a])[0])
            want = outcome(lambda: horner_fold(P, N, coeffs, inv_a))
            if got != want:
                return f"horner at p = {p}, N = {N}, a = {a}, state {s}: {got} != {want}"
        # c + d e: s - s cancels to zero at valuation v + rel, t - t (t = s
        # at valuation -v) may keep no digit, 1 + s t keeps a unit, and in
        # s + t t the term s lies 3v digits above t t, often past P;
        # against x y = the sum itself, a product of two units, and a zero
        # to p^1 times t, which keeps no digit
        t = (-s[0], s[1], s[2])
        for c, d, e in ((s, minus_one, s), (t, minus_one, t), (one, s, t), (s, t, t)):
            total = outcome(lambda: state_add(P, N, c, state_mul(P, d, e)))
            pairs = [(t, s), ((1, None, 0), t)]
            if not isinstance(total, str):
                pairs.append((total, one))
            for x, y in pairs:
                got = outcome(lambda: state_eq_hecke(P, N, c, d, e, x, y))
                want = outcome(lambda: hecke_composed(P, N, c, d, e, x, y))
                if got != want:
                    return f"state_eq_hecke at p = {p}, N = {N}, {(c, d, e, x, y)}: {got} != {want}"
    return None


def main() -> int:
    count = 0
    for p in (3, 5, 23):
        for N in (1, 2, 3, 20):
            bad = sweep(p, N)
            if bad:
                print(f"differs from its oracle: {bad}")
                return 1
            count += sum(1 for _ in grid(p, N))
    deep = 0
    for ctx, s in deep_cases():
        bad = series_mismatch(ctx, s)
        if bad:
            print(f"differs from its oracle: {bad}")
            return 1
        deep += 1
    print(f"exp_small, log_one_unit, the weighted and Horner sums and state_eq_hecke match "
          f"their oracles on {count} grid states, exp_small and log_one_unit on {deep} "
          f"deep cases, and every lift its power")
    return 0


if __name__ == "__main__":
    sys.exit(main())
