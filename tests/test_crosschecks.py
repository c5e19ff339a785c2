"""Cross-route stress checks for the L-function machinery.

The heavy hitter here is an independent evaluation of L_p(s, branch j) using
the convergent series at modulus F = p^2 rather than F = p: the term data,
summation range, and convergence rate all differ, so agreement with both
production routes is a strong wrong-formula detector.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from eiszeta.bernoulli import bernoulli_number
from eiszeta.characters import TeichCharacter
from eiszeta.kubota import PoleError, WeightPoint, lp_interpolation, lp_series
from eiszeta.padic import (
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    agreement_precision,
    exp_small,
    log_one_unit,
    teichmuller,
)
from eiszeta.qexp import eisenstein_ordinary
from qexp_oracle import first_mismatch


def _lp_series_modulus_p_squared(s: int, j: int, ctx: PadicContext) -> PadicNumber:
    """L_p(s, branch j) via the twisted series at F = p^2.

    Terms gain two valuation units per index, so the inner sum needs only
    about N/2 terms; everything else (range of a, the <a>^(1-s) factors)
    differs from the production route at F = p.
    """
    p, N = ctx.p, ctx.precision
    F = p * p
    one = PadicNumber.from_int(1, ctx)
    t = one - PadicNumber.from_int(s, ctx)
    M = N // 2 + 1
    binom = one
    coeffs = [PadicNumber.from_rational(bernoulli_number(0), ctx)]
    for m in range(1, M + 1):
        binom = binom * (t - PadicNumber.from_int(m - 1, ctx)) / PadicNumber.from_int(m, ctx)
        b = bernoulli_number(m)
        coeffs.append(None if b == 0 else binom * PadicNumber.from_rational(b * Fraction(F) ** m, ctx))
    chi = TeichCharacter(p, j)
    total = None
    for a in range(1, F):
        if a % p == 0:
            continue
        inv_a = PadicNumber.from_rational(Fraction(1, a), ctx)
        apow = one
        inner = None
        for c in coeffs:
            if c is not None:
                term = c * apow
                inner = term if inner is None else inner + term
            apow = apow * inv_a
        one_unit = PadicNumber.from_int(a, ctx) / teichmuller(a, ctx)  # <a>
        gamma = exp_small(t * log_one_unit(one_unit))
        contrib = chi.value(a, ctx) * gamma * inner
        total = contrib if total is None else total + contrib
    return total / (PadicNumber.from_int(F, ctx) * PadicNumber.from_int(s - 1, ctx))


def test_three_routes_agree():
    for p in (5, 7):
        ctx = PadicContext(p, 18)
        for j in range(0, p - 1, 2):
            for n in (1, 2, 5, 8):
                via_f2 = _lp_series_modulus_p_squared(1 - n, j, ctx)
                via_f1 = lp_series(1 - n, j, ctx).value
                via_interp = lp_interpolation(n, j, ctx).value
                assert agreement_precision(via_f2, via_f1) >= 13, (p, j, n)
                assert agreement_precision(via_f2, via_interp) >= 13, (p, j, n)


def test_three_routes_agree_at_non_interpolation_points():
    ctx = PadicContext(5, 18)
    for j in (0, 2):
        for s in (2, 3, 7):
            if j == 0 and s == 1:
                continue
            via_f2 = _lp_series_modulus_p_squared(s, j, ctx)
            via_f1 = lp_series(s, j, ctx).value
            assert agreement_precision(via_f2, via_f1) >= 12, (j, s)


def test_precision_scaling():
    # recomputing at N = 40 must extend, not contradict, the N = 20 values
    for p, j, n in ((5, 2, 3), (7, 4, 6), (13, 6, 11)):
        lo = lp_series(1 - n, j, PadicContext(p, 20)).value
        hi = lp_series(1 - n, j, PadicContext(p, 40)).value
        assert agreement_precision(lo, hi) >= lo.abs_precision - 1
        exact = lp_interpolation(n, j, PadicContext(p, 40)).value
        assert agreement_precision(hi, exact) >= 33


def test_strengthened_kummer_congruence():
    # arguments congruent mod p(p-1) give values congruent mod p^2
    # (analyticity: |L(x) - L(y)| <= |x - y| on nonzero branches)
    for p in (5, 7):
        ctx = PadicContext(p, 16)
        for j in range(2, p - 2, 2):
            for n in (1, 2, 3):
                m = n + p * (p - 1)
                a = lp_interpolation(n, j, ctx).value
                b = lp_interpolation(m, j, ctx).value
                assert agreement_precision(a, b) >= 2, (p, j, n)


def test_twin_identity_more_primes():
    # quadratic-character twins beyond the acceptance grid
    from eiszeta.qexp import eisenstein_critical, theta_twin_check

    for p, k, i in ((11, 5, 5), (11, 4, 0), (13, 4, 6), (13, 7, 1)):
        ctx = PadicContext(p, 14)
        rep = theta_twin_check(eisenstein_critical(p, k, i, 120, ctx))
        assert rep.passed, (p, k, i)


# -- precision honesty: a deeper rerun confirms every stated digit -------------

# (p, branch, s): every even branch, s near the pole, on both sides of the
# interpolation range, close to 1 p-adically, and fractional
L_POINTS = [(p, j, s) for p in (3, 5, 7) for j in range(0, p - 1, 2)
            for s in [*range(-6, 9), 1 + p, 1 + p * p, Fraction(1, 2), Fraction(-3, 2)]]
# (p, k, i): the critical points whose ordinary twins are checked
CRITICAL_POINTS = [(p, k, i) for p in (3, 5, 7, 11) for k in range(2, 9) for i in range(p - 1)
                   if (k - i) % 2 == 0 and (k, i) != (2, 0)]
RERUNS = st.tuples(st.integers(1, 6), st.sampled_from([1, 3]))


def _or_none(fn):
    """fn(), or None where it refuses the point (a pole, or no digit left)."""
    try:
        return fn()
    except (PoleError, PrecisionLossError):
        return None


@given(st.sampled_from(L_POINTS), RERUNS)
@settings(max_examples=300, deadline=None)
def test_lp_series_digits_survive_a_deeper_rerun(point, rerun):
    p, j, s = point
    N, g = rerun
    lo = _or_none(lambda: lp_series(s, j, PadicContext(p, N)))
    hi = _or_none(lambda: lp_series(s, j, PadicContext(p, N + g)))
    if lo is None or hi is None:
        return
    stated = min(lo.precision_achieved, hi.precision_achieved)
    assert agreement_precision(lo.value, hi.value) >= stated, (p, j, s, N, g)


@given(st.sampled_from(CRITICAL_POINTS), RERUNS)
@settings(max_examples=150, deadline=None)
def test_twin_coefficients_survive_a_deeper_rerun(point, rerun):
    # a_0 carries zeta_p(twin); every a_n must agree to the lower of the two
    # absolute precisions
    p, k, i = point
    N, g = rerun
    twin = WeightPoint.classical(p, k, i).twin()
    lo = _or_none(lambda: eisenstein_ordinary(twin, 12, PadicContext(p, N)))
    hi = _or_none(lambda: eisenstein_ordinary(twin, 12, PadicContext(p, N + g)))
    if lo is None or hi is None:
        return
    assert first_mismatch(lo, hi) is None, (p, k, i, N, g)


# (p, branch, n): every even branch and n = 1..14, which spans two periods of
# p - 1 at p = 7 and reaches n = p, where v_p(n) = 1, at every p
INTERP_POINTS = [(p, j, n) for p in (3, 5, 7, 11, 13) for j in range(0, p - 1, 2)
                 for n in range(1, 15)]


def test_lp_interpolation_digits_survive_a_deeper_rerun():
    # exhaustive over INTERP_POINTS, N in 1..6 and a rerun at N + 1 and N + 3;
    # every point must answer
    for p, j, n in INTERP_POINTS:
        for N in range(1, 7):
            lo = lp_interpolation(n, j, PadicContext(p, N))
            for g in (1, 3):
                hi = lp_interpolation(n, j, PadicContext(p, N + g))
                stated = min(lo.precision_achieved, hi.precision_achieved)
                assert agreement_precision(lo.value, hi.value) >= stated, (p, j, n, N, g)


# -- zeta_p(twin), the value the etale verdict reads, against the exact route --


@st.composite
def _critical_points(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 23, 37, 59, 101, 157)))
    k, i = draw(st.sampled_from([(k, i) for k in range(2, 17) for i in range(p - 1)
                                 if (k - i) % 2 == 0 and (k, i) != (2, 0)]))
    return p, k, i


@given(_critical_points(), st.integers(3, 24))
@settings(max_examples=60, deadline=None)
def test_twin_zeta_agrees_with_the_interpolation_route(point, N):
    # the check of tests/twin_check.py at random points and precisions: mod
    # p^(m+1) on a nontrivial twin branch, mod p^m after the factor s - 1 on
    # the trivial one, m fixed by the Bernoulli ceiling
    from twin_check import twin_agreement

    got, wanted = twin_agreement(*point, N)
    assert got >= wanted, (point, N)
