"""Core p-adic arithmetic: representation, precision propagation, and the
one-unit analytic functions."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eiszeta.padic import (
    ContextMismatchError,
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    agreement_precision,
    exp_small,
    format_padic,
    log_one_unit,
    state_agreement,
    state_char,
    state_eq,
    state_normalize,
    state_of_int,
    powers,
    teichmuller,
)

CTX = PadicContext(5, 20)


def _egcd_inverse(a: int, m: int) -> int:
    """Extended-Euclid modular inverse, independent of pow(a, -1, m)."""
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % m


class TestContext:
    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            PadicContext(2, 10)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PadicContext(15, 10)

    def test_rejects_precision_zero(self):
        with pytest.raises(ValueError):
            PadicContext(5, 0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CTX.p = 7

    def test_is_a_value_of_p_and_precision(self):
        ctx = PadicContext(5, 20)
        assert repr(ctx) == "PadicContext(p=5, precision=20)"
        assert ctx == PadicContext(5, 20) and hash(ctx) == hash((5, 20))
        assert ctx != PadicContext(5, 21) and ctx != PadicContext(7, 20) and ctx != (5, 20)
        for name in ("precision", "unknown"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, 3)

    def test_numbers_immutable(self):
        # a frozen dataclass refuses a field, a property and an unknown name
        x = PadicNumber.from_int(7, CTX) * PadicNumber.from_rational(Fraction(1, 3), CTX)
        for name, value in (("unit", 3), ("ctx", PadicContext(7, 20)), ("state", (1, 2, 3))):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert x == PadicNumber.from_rational(Fraction(7, 3), CTX)


class TestRingOps:
    def test_one_sixth(self):
        # 1/6 at (p=5, N=4): unit is the extended-Euclid inverse of 6 mod 625
        ctx = PadicContext(5, 4)
        x = PadicNumber.from_rational(Fraction(1, 6), ctx)
        expected_unit = _egcd_inverse(6, 625)
        assert expected_unit == 521
        assert 6 * expected_unit % 625 == 1
        assert x.valuation == 0
        assert x.unit == expected_unit

    def test_additive_inverse_is_zero(self):
        x = PadicNumber.from_rational(Fraction(7, 3), CTX)
        z = x + (-x)
        assert z.is_zero_to_precision

    def test_valuation_additivity(self):
        u = PadicNumber.from_int(7, CTX)
        assert (PadicNumber.from_int(5, CTX) ** 3 * u).valuation == 3

    def test_context_mismatch(self):
        # another prime, or the same prime at another working precision
        a = PadicNumber.from_int(2, CTX)
        for other in (PadicContext(7, 20), PadicContext(5, 12)):
            b = PadicNumber.from_int(3, other)
            for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
                with pytest.raises(ContextMismatchError):
                    op()

    def test_equal_contexts_need_not_be_identical(self):
        a = PadicNumber.from_int(2, CTX)
        b = PadicNumber.from_int(3, PadicContext(5, 20))
        assert a * b == PadicNumber.from_int(6, CTX)
        assert (a + b).abs_precision == 20

    def test_division_by_zero_to_precision(self):
        z = CTX.zero()
        with pytest.raises(ZeroDivisionError):
            PadicNumber.from_int(1, CTX) / z

    def test_cancellation_costs_relative_precision(self):
        x = PadicNumber.from_int(1 + 5**5, CTX)
        d = x - PadicNumber.from_int(1, CTX)
        assert d.valuation == 5
        assert d.abs_precision == 20
        assert d.rel_precision == 15
        # cancelling every digit of a value known only modulo p^0
        x = PadicNumber.from_rational(Fraction(1, 5), PadicContext(5, 1))
        with pytest.raises(PrecisionLossError):
            x - x
        with pytest.raises(ValueError):  # an argument error stays one
            PadicNumber.from_int(1, CTX) + CTX.zero(0)

    def test_equality_is_modulo_min_precision(self):
        a = PadicNumber.from_int(3, PadicContext(5, 4))
        b = PadicNumber.from_int(3 + 5**4, PadicContext(5, 4))
        assert a == b  # indistinguishable mod 5^4
        ctx = a.ctx
        # one operand zero to precision: equal iff the other vanishes to the
        # smaller of the two absolute precisions
        z3 = ctx.zero(3)
        assert PadicNumber.from_int(5**3, ctx) == z3
        assert z3 == PadicNumber.from_int(5**3, ctx)
        assert PadicNumber.from_int(2 * 5**2, ctx) != z3
        assert PadicNumber.from_int(2 * 5**2, ctx) + ctx.zero(2) == z3
        # both zero to precision: always equal
        assert ctx.zero(1) == ctx.zero(4)
        # negative valuation: x = 76/25 is known modulo 5^2
        x = PadicNumber.from_rational(Fraction(76, 25), ctx)
        assert x.abs_precision == 2
        assert x == PadicNumber.from_rational(Fraction(76, 25) + 5**2, ctx)
        assert x != PadicNumber.from_rational(Fraction(76, 25) + 5, ctx)
        assert x == x + ctx.zero(1)
        assert x != z3 and z3 != x

    @given(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    )
    @settings(max_examples=60)
    def test_field_ops_match_exact_rationals(self, x, y):
        # multiplication/addition in Q_p mirror the exact rational results
        if x.denominator % 5 == 0 or y.denominator % 5 == 0:
            return
        a = PadicNumber.from_rational(x, CTX)
        b = PadicNumber.from_rational(y, CTX)
        assert a + b == PadicNumber.from_rational(x + y, CTX)
        assert a * b == PadicNumber.from_rational(x * y, CTX)
        if y != 0:
            assert a / b == PadicNumber.from_rational(Fraction(x, y), CTX)

    @given(
        st.sampled_from([3, 5, 7]),
        st.tuples(st.integers(-6, 6), st.integers(0, 10**9), st.integers(1, 2),
                  st.integers(1, 8)),
        st.tuples(st.integers(-6, 6), st.integers(0, 10**9), st.integers(1, 2),
                  st.integers(1, 8)),
        st.integers(1, 7),
    )
    @settings(max_examples=150)
    def test_products_of_nonzero_values_are_canonical(self, p, x, y, e):
        # *, / and ** build their result directly; it must equal the
        # normalisation state_normalize gives the same (val, unit, rel)
        ctx = PadicContext(p, 6)

        def canonical(v, u, rel):
            return PadicNumber.from_state(ctx, state_normalize(ctx.powers, 6, v, u, rel))

        a, b = (canonical(v, q * p + r, rel) for v, q, r, rel in (x, y))
        rel = min(a.rel_precision, b.rel_precision)
        inv = pow(b.unit, -1, p**rel)
        cases = [
            (a * b, canonical(a.valuation + b.valuation, a.unit * b.unit, rel)),
            (a / b, canonical(a.valuation - b.valuation, a.unit * inv, rel)),
            (a**e, canonical(a.valuation * e, a.unit**e, a.rel_precision)),
        ]
        for got, want in cases:
            assert (got.ctx, got.valuation, got.unit, got.rel_precision) == \
                (want.ctx, want.valuation, want.unit, want.rel_precision)

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    @settings(max_examples=60)
    def test_ring_axioms(self, x, y, z):
        a, b, c = (PadicNumber.from_int(v, CTX) for v in (x, y, z))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# (p, N) for the Teichmuller checks; N = 1 is where the lift is a itself
TEICH_GRID = [(p, N) for p in (3, 5, 37) for N in (1, 2, 20)]


class TestTeichmuller:
    def test_fixed_point_at_one(self):
        assert teichmuller(1, CTX) == PadicNumber.from_int(1, CTX)

    def test_omega_two_mod_25(self):
        # independent oracle: iterate x -> x^5 mod 25 by hand
        x = 2
        for _ in range(5):
            x = pow(x, 5, 25)
        assert x == 7
        ctx = PadicContext(5, 2)
        assert teichmuller(2, ctx) == PadicNumber.from_int(7, ctx)

    def test_matches_hand_iteration(self):
        # x -> x^p gains a digit per step, so N steps from a reach omega(a) mod p^N
        for p, N in TEICH_GRID:
            ctx, mod = PadicContext(p, N), p**N
            for a in range(1, p):
                x = a
                for _ in range(N):
                    x = pow(x, p, mod)
                assert teichmuller(a, ctx) == PadicNumber.from_int(x, ctx), (p, N, a)

    def test_root_of_unity(self):
        for p, N in TEICH_GRID:
            ctx = PadicContext(p, N)
            one = PadicNumber.from_int(1, ctx)
            for a in range(1, p):
                assert teichmuller(a, ctx) ** (p - 1) == one, (p, N, a)

    def test_congruent_mod_p(self):
        for p, N in TEICH_GRID:
            ctx = PadicContext(p, N)
            for a in range(1, p):
                assert teichmuller(a, ctx).unit % p == a, (p, N, a)

    def test_rejects_multiple_of_p(self):
        with pytest.raises(ValueError):
            teichmuller(10, CTX)

    def test_table_holds_every_lift(self):
        # row[dlog[a]] = omega(a) = a^(p^(N-1)) mod p^N for every residue a,
        # row[1] = omega(g) for the least primitive root g mod p
        from eiszeta.padic import _teich_unit

        for p in (3, 5, 7, 23, 691, 2003):
            for N in (1, 2, 20):
                row, dlog = _teich_unit(p, N)
                mod = p**N
                assert len(row) == p - 1 and len(dlog) == p and dlog[0] is None
                assert sorted(dlog[1:]) == list(range(p - 1))
                for a in range(1, p):
                    assert row[dlog[a]] == pow(a, p ** (N - 1), mod), (p, N, a)
                g = row[1] % p
                assert all(len({pow(h, j, p) for j in range(p - 1)}) < p - 1 for h in range(2, g))

    @given(st.sampled_from([3, 5, 7, 23, 691, 2003]), st.sampled_from([1, 2, 20]),
           st.integers(-3000, 3000), st.integers(1, 10**6), st.integers(-40, 40))
    @settings(max_examples=300, deadline=None)
    def test_char_matches_powers(self, p, N, e, a, n):
        # state_char(P, N, e, a, n) = omega(a^e mod p) a^n, each factor by pow
        assume(a % p)
        mod = p**N
        want = pow(pow(a, e % (p - 1), p), p ** (N - 1), mod) * pow(a, n, mod) % mod
        assert state_char(powers(p, N), N, e, a, n) == (0, want, N)

    def test_a_scan_builds_the_table_once_per_precision(self, monkeypatch):
        # the 88 points of a scan over p = 5..23 and k = 6, 7 read the lifts
        # at N = 20 (the series and the L-value sums) and N + 1 (the guard
        # digit of generalized_bernoulli), and lp_interpolation adds
        # N + 1 + v_p(k) where p | k (p = k = 7): each table is built once
        import functools
        import io

        from eiszeta import padic, qexp
        from eiszeta.analyzer import scan_records, write_scan

        built, raw = [], padic._teich_unit.__wrapped__

        def build(p, N):
            built.append((p, N))
            return raw(p, N)

        table = functools.lru_cache(maxsize=padic.TEICH_CACHE_SIZE)(build)
        monkeypatch.setattr(padic, "_teich_unit", table)
        monkeypatch.setattr(qexp, "_teich_unit", table)
        assert write_scan(scan_records(5, 23, 6, 7), io.StringIO()) == 88
        want = [(p, N) for p in (5, 7, 11, 13, 17, 19, 23) for N in (20, 21)] + [(7, 22)]
        assert sorted(built) == sorted(want) and len(built) == 15

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=40)
    def test_multiplicative(self, a, b):
        if a % 5 == 0 or b % 5 == 0:
            return
        assert teichmuller(a, CTX) * teichmuller(b, CTX) == teichmuller(a * b, CTX)

    @given(st.integers(1, 10**6))
    @settings(max_examples=40)
    def test_unit_decomposition(self, a):
        if a % 5 == 0:
            return
        # <a> = omega(a)^(-1) * a is the one-unit factor of a
        x = PadicNumber.from_int(a, CTX)
        w = teichmuller(a, CTX)
        u = PadicNumber.from_state(CTX, state_char(CTX.powers, CTX.precision, -1, a, 1))
        assert x == w * u
        assert (u - PadicNumber.from_int(1, CTX)).min_valuation >= 1


class TestLogExp:
    def test_log_one_is_zero(self):
        assert log_one_unit(PadicNumber.from_int(1, CTX)).is_zero_to_precision

    def test_log_square_doubles(self):
        u = PadicNumber.from_int(6, CTX)
        assert log_one_unit(u * u) == PadicNumber.from_int(2, CTX) * log_one_unit(u)

    def test_log_self_consistency(self):
        # direct series vs log((1+5)^2)/2
        u = PadicNumber.from_int(6, CTX)
        direct = log_one_unit(u)
        halved = log_one_unit(u * u) / PadicNumber.from_int(2, CTX)
        assert agreement_precision(direct, halved) >= 19

    def test_log_precondition(self):
        with pytest.raises(ValueError):
            log_one_unit(PadicNumber.from_int(2, CTX))

    def test_exp_zero_is_one(self):
        assert exp_small(CTX.zero()) == PadicNumber.from_int(1, CTX)

    def test_exp_homomorphism(self):
        x = PadicNumber.from_int(10, CTX)
        y = PadicNumber.from_int(15, CTX)
        assert exp_small(x + y) == exp_small(x) * exp_small(y)

    def test_exp_precondition(self):
        with pytest.raises(ValueError):
            exp_small(PadicNumber.from_int(2, CTX))

    def test_round_trip(self):
        # loss bound from the series: none for p = 5 at v(x) = 1
        u = PadicNumber.from_int(6, CTX)
        rt = exp_small(log_one_unit(u))
        assert rt == u
        assert rt.abs_precision >= 20

    def test_round_trip_various_units(self):
        for a in (11, 16, 21, 26, 56):
            u = PadicNumber.from_int(a, CTX)
            assert exp_small(log_one_unit(u)) == u


class TestPowZp:
    # <u>^s = exp(s log u), the power the L-value series takes of each <a>

    def test_power_zero(self):
        u = PadicNumber.from_int(6, CTX)
        assert exp_small(0 * log_one_unit(u)) == PadicNumber.from_int(1, CTX)

    def test_integer_exponent_matches_product(self):
        u = PadicNumber.from_int(6, CTX)
        assert exp_small(3 * log_one_unit(u)) == u * u * u

    def test_inverse_exponent(self):
        u = PadicNumber.from_int(6, CTX)
        s = PadicNumber.from_rational(Fraction(7, 3), CTX)
        log_u = log_one_unit(u)
        assert exp_small(s * log_u) * exp_small(-s * log_u) == PadicNumber.from_int(1, CTX)


class TestRendering:
    def test_format_example(self):
        x = PadicNumber.from_int(28, PadicContext(5, 4))
        assert format_padic(x) == "3 + 1*5^2 + O(5^4)"

    def test_zero_format(self):
        assert format_padic(CTX.zero()) == "O(5^20)"

    def test_negative_valuation(self):
        x = PadicNumber.from_rational(Fraction(2, 5), PadicContext(5, 3))
        s = format_padic(x)
        assert "5^-1" in s


class TestPrecisionMonotonicity:
    def test_add_reports_min(self):
        a = PadicNumber.from_int(1, CTX)
        b = PadicNumber.from_int(5**10, CTX)  # abs precision 30
        assert (a + b).abs_precision == 20

    def test_mul_adds_valuations(self):
        a = PadicNumber.from_rational(Fraction(2, 5), CTX)
        b = PadicNumber.from_int(75, CTX)
        assert (a * b).valuation == 1

    def test_division_shifts_precision(self):
        a = PadicNumber.from_int(1, CTX)
        b = PadicNumber.from_int(5, CTX)
        q = a / b
        assert q.valuation == -1
        assert q.abs_precision == 19


# -- the int-state kernels the q-series run on --------------------------------


@st.composite
def _state_pair(draw, primes=(3, 5, 7), max_N=6, vals=st.integers(-3, 5),
                zeros=st.integers(1, 8)):
    """(p, N, a, b): two canonical states, with b often cancelling a; valuations
    drawn from vals, the exponents of zeros from zeros."""
    p = draw(st.sampled_from(primes))
    N = draw(st.integers(1, max_N))

    def state():
        if draw(st.integers(0, 4)) == 0:
            return draw(zeros), None, 0  # zero modulo p^A
        r = draw(st.integers(1, N))
        u = draw(st.integers(1, p**r - 1).filter(lambda u: u % p))
        return draw(vals), u, r

    a, b = state(), state()
    if a[1] is not None and draw(st.booleans()):
        # b = -a + p^j t agrees with -a modulo p^(v+j): the sum cancels digits
        r, j = draw(st.integers(1, N)), draw(st.integers(1, N))
        u = (-a[1] + p**j * draw(st.integers(0, p**N))) % p**r
        b = (a[0], u, r)
    return p, N, a, b


@st.composite
def _eq_decided_pair(draw):
    """(p, a, b, kind): a pair whose equality is known from how it is built,
    built on purpose because random pairs are almost never equal.  kind is
    "agree" or "differ" for one valuation with units that agree or differ mod
    p^min(rel), "valuation" for two valuations and "zero" for a nonzero state
    against a zero one; the pair comes in either order."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 6))
    v, ra, rb = draw(st.integers(-3, 5)), draw(st.integers(1, N)), draw(st.integers(1, N))
    ua = draw(st.integers(1, p**ra - 1).filter(lambda u: u % p))
    kind = draw(st.sampled_from(["agree", "differ", "valuation", "zero"]))
    low = min(ra, rb)
    if kind == "agree":  # a's unit cut or lifted to rb digits
        b = v, (ua + p**low * draw(st.integers(0, p**N))) % p**rb, rb
    elif kind == "differ":  # a's unit changed at a digit below p^min(rel)
        j, t = draw(st.integers(0, low - 1)), draw(st.integers(1, p**N).filter(lambda t: t % p))
        b = v, (ua + p**j * t) % p**rb, rb
        assume(b[1] % p)
    elif kind == "valuation":
        b = v + draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), \
            draw(st.integers(1, p**rb - 1).filter(lambda u: u % p)), rb
    else:
        b = draw(st.integers(1, 8)), None, 0
    a = v, ua, ra
    return (p, b, a, kind) if draw(st.booleans()) else (p, a, b, kind)


def _value(p, s):
    """The rational unit * p^val a state stands for (0 for a zero)."""
    return Fraction(0) if s[1] is None else s[1] * Fraction(p) ** s[0]


def _vq(x: Fraction, p: int):
    """p-adic valuation of a rational, None for 0."""
    if x == 0:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _known_to(p, exact, s):
    """True when the state s equals the exact rational modulo p^(abs precision of s)."""
    v = _vq(exact - _value(p, s), p)
    return v is None or v >= s[0] + s[2]


def _outcome(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__


def _assert_honest(p, N, a, b):
    """Every digit a kernel result claims holds for the exact rationals the inputs
    stand for; a product or quotient keeps all the precision its inputs allow
    and a sum never claims more than the coarser summand."""
    from eiszeta.padic import state_add, state_div, state_eq, state_mul, state_neg

    P = powers(p, N)
    xa, xb = _value(p, a), _value(p, b)
    absa, absb = a[0] + a[2], b[0] + b[2]
    prod = _outcome(lambda: state_mul(P, a, b))
    if not isinstance(prod, str):
        assert _known_to(p, xa * xb, prod)
        if a[1] is not None and b[1] is not None:
            assert prod[0] + prod[2] == min(absa + b[0], absb + a[0])
    for sign in (1, -1):
        other = b if sign == 1 else (b[0], None if b[1] is None else p**b[2] - b[1], b[2])
        total = _outcome(lambda: state_add(P, N, a, other))
        if not isinstance(total, str):
            assert _known_to(p, xa + sign * xb, total)
            assert total[0] + total[2] <= min(absa, absb)
    diff = _vq(xa - xb, p)
    assert state_eq(P, a, b) == (diff is None or diff >= min(absa, absb))
    quo = _outcome(lambda: state_div(P, a, b))
    if b[1] is None:
        assert quo == "ZeroDivisionError"
    elif a[1] is None:
        # a zero numerator keeps its bound shifted by v(b), while a digit is left
        assert quo == ((a[0] - b[0], None, 0) if a[0] - b[0] >= 1 else "PrecisionLossError")
    else:
        assert _known_to(p, xa / xb, quo)
        assert quo[2] == min(a[2], b[2]) and quo[0] == a[0] - b[0]
    neg = state_neg(P, a)
    assert _known_to(p, -xa, neg) and neg[0] + neg[2] == absa
    assert (neg[1] is None) == (a[1] is None)


def _sum_by_hand(p, N, a, b):
    """Canonical state of a + b built from the exact rationals with p ** e: known
    modulo p^A, A the coarser absolute precision, to at most N digits above the
    lowest valuation of a nonzero summand."""
    A = min(a[0] + a[2], b[0] + b[2])
    vals = [s[0] for s in (a, b) if s[1] is not None]
    if not vals or min(vals) >= A:
        return A, None, 0
    top = min(A, min(vals) + N)
    exact = _value(p, a) + _value(p, b)
    v = _vq(exact, p)
    if v is None or v >= top:
        return (top, None, 0) if top >= 1 else "PrecisionLossError"
    unit, mod = exact / Fraction(p) ** v, p ** (top - v)
    return v, unit.numerator * pow(unit.denominator, -1, mod) % mod, top - v


def _assert_by_hand(p, N, a, b):
    """The kernels give the states built here with p ** e, whatever the power
    table held before."""
    from eiszeta.padic import state_add, state_div, state_mul, state_neg

    P = powers(p, N)
    (va, ua, ra), (vb, ub, rb) = a, b
    rel = min(ra, rb)
    if ua is None or ub is None:
        prod = (va + vb, None, 0) if va + vb >= 1 else "PrecisionLossError"
    else:
        prod = va + vb, ua * ub % p**rel, rel
    assert _outcome(lambda: state_mul(P, a, b)) == prod
    if ub is None:
        quo = "ZeroDivisionError"
    elif ua is None:
        quo = (va - vb, None, 0) if va - vb >= 1 else "PrecisionLossError"
    else:
        quo = va - vb, ua * pow(ub, -1, p**rel) % p**rel, rel
    assert _outcome(lambda: state_div(P, a, b)) == quo
    assert _outcome(lambda: state_add(P, N, a, b)) == _sum_by_hand(p, N, a, b)
    assert state_neg(P, a) == (a if ua is None else (va, p**ra - ua, ra))
    diff, A = _vq(_value(p, a) - _value(p, b), p), min(va + ra, vb + rb)
    assert state_agreement(P, a, b) == (A if diff is None or diff >= A else diff)
    for v, u, r in (a, b):
        # a canonical state cut to n digits by state_normalize: a zero, or a
        # unit of rel <= n digits, comes back as it is; a longer unit is
        # reduced mod p^n
        for n in {N, max(1, r - 1)}:
            cut = (v, u, r) if u is None or r <= n else (v, u % p**n, n)
            assert state_normalize(P, n, v, u, r) == cut
    if ua is not None:
        for sign in (1, -1):
            assert state_of_int(P, N, sign * ua * p**ra) == (ra, sign * ua % p**N, N)
            assert state_char(P, N, 0, ua, 3 * sign) == (0, pow(ua, 3 * sign, p**N), N)


@st.composite
def _hecke_case(draw):
    """(p, N, c, d, e, x, y): states for state_eq_hecke, c + d e against x y.
    Valuations run negative and N or more digits past powers(p, N), zeros
    come with small and large bounds, c often cancels d e to some digits,
    and x y is often c + d e to fewer digits, or that changed at one digit."""
    from eiszeta.padic import state_add, state_mul

    p = draw(st.sampled_from([3, 5, 7, 23, 2003]))
    N = draw(st.sampled_from([1, 2, 3, 20, 500]))
    P = powers(p, N)

    def unit(r):
        return draw(st.integers(1, p**r - 1).filter(lambda u: u % p))

    def state():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.integers(1, 8) | st.integers(N, N + 300)), None, 0
        r = draw(st.integers(1, N))
        return draw(st.integers(-4, 5) | st.integers(N, N + 300) | st.integers(-N - 4, -N)), unit(r), r

    c, d, e, x, y = (state() for _ in range(5))
    if d[1] is not None and e[1] is not None and draw(st.booleans()):
        # c = -d e + p^j t: the sum cancels j digits, maybe all it has
        v, u, r = state_mul(P, d, e)
        rc, j = draw(st.integers(1, N)), draw(st.integers(1, N + 2))
        u = (-u + p**j * draw(st.integers(0, p**N))) % p**rc
        if u % p:
            c = v, u, rc
    try:
        v, u, r = state_add(P, N, c, state_mul(P, d, e))
    except PrecisionLossError:
        u = None
    if u is not None and draw(st.booleans()):
        # x y = c + d e to ry digits, maybe changed at one digit below that
        ry = draw(st.integers(1, r))
        u = u % p**ry
        if draw(st.booleans()):
            u = (u + p**draw(st.integers(0, ry - 1)) * draw(st.integers(1, p - 1))) % p**ry
        if u % p:
            vx, rx = draw(st.integers(-3, 3)), draw(st.integers(ry, N))
            ux = unit(rx)
            x, y = (vx, ux, rx), (v - vx, u * pow(ux, -1, p**ry) % p**ry, ry)
    return p, N, c, d, e, x, y


class TestStateKernels:
    @given(_state_pair())
    @settings(max_examples=400, deadline=None)
    def test_mul_add_sub_eq_match_padic_numbers(self, case):
        from eiszeta.padic import state_add, state_eq, state_mul

        p, N, a, b = case
        ctx = PadicContext(p, N)
        P = ctx.powers
        x, y = PadicNumber.from_state(ctx, a), PadicNumber.from_state(ctx, b)
        neg_b = (-y).state
        for kernel, op in ((lambda: state_mul(P, a, b), lambda: (x * y).state),
                           (lambda: state_add(P, N, a, b), lambda: (x + y).state),
                           (lambda: state_add(P, N, a, neg_b), lambda: (x - y).state)):
            assert _outcome(kernel) == _outcome(op), (a, b)
        assert state_eq(P, a, b) == (x == y)

    @given(_state_pair())
    @settings(max_examples=400, deadline=None)
    def test_kernels_are_honest_about_exact_values(self, case):
        _assert_honest(*case)

    @given(_state_pair(primes=(23, 691, 2003, 5), max_N=500,
                       vals=st.integers(-3, 5) | st.integers(400, 700),
                       zeros=st.integers(1, 8) | st.integers(400, 700)))
    @settings(max_examples=150, deadline=None)
    def test_kernels_at_large_primes_and_exponents(self, case):
        # primes change between examples, and valuations and zero bounds run
        # past the power tuple's top N, so a wide valuation gap must never be
        # looked up in it
        _assert_honest(*case)
        _assert_by_hand(*case)
        p, N = case[:2]
        assert powers(p, N) == tuple(p**e for e in range(N + 1))

    def test_power_cache_is_bounded(self):
        from eiszeta import padic
        from eiszeta.padic import state_add, state_div, state_mul

        for p, N in ((5, 500), (7, 3)):
            P = powers(p, N)
            assert P == tuple(p**e for e in range(N + 1)) and P is powers(p, N)
            x, y = state_char(P, N, 0, 2, 3), state_of_int(P, N, 3 * p**2)  # 8 and 3p^2
            for s, exact in ((state_mul(P, x, y), 24 * p**2),
                             (state_div(P, y, x), Fraction(3 * p**2, 8)),
                             (state_add(P, N, x, y), 8 + 3 * p**2)):
                assert _known_to(p, exact, s) and s[2] == N
        # more keys than the cache holds: it stays at its bound, and what it
        # returns after evicting is still the true powers
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            for top in (1, 2, 3):
                assert powers(p, top) == tuple(p**e for e in range(top + 1))
        info = powers.cache_info()
        assert info.maxsize == padic.POWERS_CACHE_SIZE and info.currsize <= info.maxsize

    @given(_hecke_case())
    @example((3, 3, (-2, 1, 2), (0, 8, 3), (-2, 1, 2), (0, 1, 3), (-2, 1, 2)))  # the sum
    @example((3, 3, (1, None, 0), (0, 1, 3), (1, None, 0), (-2, 1, 2), (1, None, 0)))  # x y
    @example((5, 1, (600, 1, 1), (-3, 2, 1), (3, 3, 1), (1, 1, 1), (-1, 1, 1)))  # c past P
    @example((7, 2, (0, 1, 2), (0, 1, 2), (0, 6, 1), (0, 1, 2), (1, 3, 2)))  # 0 mod p, equal
    @settings(max_examples=500, deadline=None)
    def test_eq_hecke_matches_eq_of_the_sum(self, case):
        # the first example is the index-0 cancellation of the ordinary series
        # at (p, k, i, N) = (3, 3, 1, 3): a_0 (1 + eps(2) 2^2) keeps no digit;
        # in the second, the sum is zero to p^1 and x y keeps no digit; in the
        # last, 1 + 6 is zero to p^1 and so equals x y = 3p
        from eiszeta.padic import state_add, state_eq_hecke, state_mul

        def outcome(fn):
            try:
                return fn()
            except PrecisionLossError as err:
                return type(err).__name__, str(err)

        p, N, c, d, e, x, y = case
        P = powers(p, N)
        assert outcome(lambda: state_eq_hecke(P, N, c, d, e, x, y)) == \
            outcome(lambda: state_eq(P, state_add(P, N, c, state_mul(P, d, e)),
                                     state_mul(P, x, y))), (c, d, e, x, y)

    @given(_eq_decided_pair())
    @settings(max_examples=400, deadline=None)
    def test_eq_closed_form_matches_agreement_and_exact_values(self, case):
        # state_eq must say what the agreement exponent and the exact
        # rationals say, and the pairs must be equal exactly when built so
        p, a, b, kind = case
        P = powers(p, 6)  # rels are at most 6
        absa, absb = a[0] + a[2], b[0] + b[2]
        eq = state_eq(P, a, b)
        assert eq == (state_agreement(P, a, b) >= min(absa, absb))
        diff = _vq(_value(p, a) - _value(p, b), p)
        assert eq == (diff is None or diff >= min(absa, absb))
        if kind != "zero":
            assert eq == (kind == "agree")

    @given(st.sampled_from([3, 5, 7, 37]), st.integers(1, 8), st.integers(-9, 9),
           st.integers(1, 500), st.integers(-4, 6))
    @settings(max_examples=300, deadline=None)
    def test_char_is_a_root_of_unity_times_a_power(self, p, N, e, a, n):
        # state_char(P, N, e, a, n) = omega^e(a) a^n: dividing out a^n leaves a
        # (p-1)-th root of unity mod p^N that is congruent to a^e mod p
        assume(a % p)
        P, mod = powers(p, N), p**N
        val, u, rel = state_char(P, N, e, a, n)
        assert (val, rel) == (0, N) and 0 < u < mod and u % p
        root = u * pow(a, -n, mod) % mod
        assert pow(root, p - 1, mod) == 1
        assert root % p == pow(a, e % (p - 1), p)


@st.composite
def _product_case(draw):
    """(p, N, c, x, y): states for state_eq_product, with c often the product
    of x and y to fewer digits, or that product changed at one digit."""
    p = draw(st.sampled_from([3, 23, 691, 2003]))
    N = draw(st.integers(1, 6) | st.integers(7, 500))

    def state():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.integers(1, 8) | st.integers(400, 700)), None, 0
        r = draw(st.integers(1, N))
        u = draw(st.integers(1, p**r - 1).filter(lambda u: u % p))
        return draw(st.integers(-3, 5) | st.integers(400, 700)), u, r

    x, y, c = state(), state(), state()
    if x[1] is not None and y[1] is not None and draw(st.booleans()):
        r = draw(st.integers(1, N))
        u = x[1] * y[1] % p**r
        if draw(st.booleans()):
            u = (u + p**draw(st.integers(0, r - 1)) * draw(st.integers(1, p - 1))) % p**r
        if u % p:
            c = x[0] + y[0], u, r
    return p, N, c, x, y


class TestFusedKernels:
    @given(_product_case())
    @example((3, 4, (1, 1, 1), (1, None, 0), (-3, 1, 1)))  # the product raises
    @settings(max_examples=400, deadline=None)
    def test_eq_product_matches_eq_of_the_product(self, case):
        from eiszeta.padic import state_eq_product, state_mul

        p, N, c, x, y = case
        P = powers(p, N)
        assert _outcome(lambda: state_eq_product(P, c, x, y)) == \
            _outcome(lambda: state_eq(P, c, state_mul(P, x, y))), (c, x, y)


def test_a_product_without_a_digit_is_a_precision_loss():
    # the same loss as the quotient's, so the CLI exits 3 for both
    ctx = PadicContext(5, 4)
    fifth = PadicNumber.from_rational(Fraction(1, 5), ctx)
    with pytest.raises(PrecisionLossError):
        ctx.zero(1) * fifth
    with pytest.raises(PrecisionLossError):
        ctx.zero(1) / 5


# -- sums of many terms as one integer, against the left folds ------------------

SUM_PRIMES = [3, 5, 23, 691, 2003]


@st.composite
def _sum_state(draw, p, N, vals):
    """A canonical state at (p, N): zero modulo p^A one time in five, else a
    unit to rel <= N digits, often fewer, at a valuation drawn from vals."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.integers(1, 8) | st.integers(400, 700)), None, 0
    r = draw(st.integers(1, N) | st.just(N))
    return draw(vals), draw(st.integers(1, p**r - 1).filter(lambda u: u % p)), r


@st.composite
def _series_case(draw):
    """(ctx, state): an argument of exp_small, or z of log_one_unit's 1 + z,
    with valuations past N and rels below it."""
    p = draw(st.sampled_from(SUM_PRIMES))
    N = draw(st.integers(1, 6) | st.integers(7, 500))
    vals = st.integers(1, 4) | st.integers(max(1, N - 3), N + 3) | st.integers(400, 700)
    return PadicContext(p, N), draw(_sum_state(p, N, vals))


@st.composite
def _dot_case(draw, unit_weights=False):
    """(p, N, xs, ys): one to six pairs at valuations down to -3 and up to 700,
    where a later pair often cancels the product of an earlier one; half of
    them start with c * 1 + c * (-1), c known to no digit, at which a fold
    raises.  With unit_weights every y is a unit known to N digits, as
    omega^j(a) weighs X_a in a branch sum of lp_series."""
    p = draw(st.sampled_from(SUM_PRIMES))
    N = draw(st.integers(1, 6) | st.integers(7, 500))
    state = _sum_state(p, N, st.integers(-3, 5) | st.integers(400, 700))
    weight = state
    if unit_weights:
        weight = st.builds(lambda u: (0, u, N), st.integers(1, p**N - 1).filter(lambda u: u % p))
    xs, ys = [], []
    if draw(st.booleans()):
        v = draw(st.integers(-3, -1))
        r = draw(st.integers(1, min(N, -v)))
        c = v, draw(st.integers(1, p**r - 1).filter(lambda u: u % p)), r
        xs += [c, c]
        ys += [(0, 1, N), (0, p**N - 1, N)]
    for _ in range(draw(st.integers(1, 6))):
        if xs and draw(st.booleans()):
            k = draw(st.integers(0, len(xs) - 1))  # x_k * (-y_k), maybe cut
            v, u, r = ys[k]
            y = (v, None if u is None else p**r - u, r)
            xs.append(xs[k])
            ys.append(y if u is None or unit_weights else
                      state_normalize(powers(p, N), N, v, y[1], draw(st.integers(1, r))))
        else:
            xs.append(draw(state))
            ys.append(draw(weight))
    return p, N, xs, ys


def _sum_rule_by_hand(p, xs, ys):
    """The state of sum x_i y_i built from the exact rationals with p ** e: known
    modulo p^A, A the least absolute precision of the products, with no cap."""
    tops, exact = [], Fraction(0)
    for x, y in zip(xs, ys):
        v = x[0] + y[0]
        if x[1] is None or y[1] is None:
            if v < 1:
                return "PrecisionLossError"
            tops.append(v)
        else:
            tops.append(v + min(x[2], y[2]))
            exact += x[1] * y[1] * Fraction(p) ** v
    A, v = min(tops), _vq(exact, p)
    if v is None or v >= A:
        return (A, None, 0) if A >= 1 else "PrecisionLossError"
    unit, mod = exact / Fraction(p) ** v, p ** (A - v)
    return v, unit.numerator * pow(unit.denominator, -1, mod) % mod, A - v


def _assert_sum(got, fold, want):
    """The integer sum is the sum rule's state, and the fold's, except where
    a fold's partial sum cancelled to no digit and the fold raised."""
    assert got == want
    assert got == fold or fold == "PrecisionLossError", (got, fold)


class TestIntegerSums:
    @given(_series_case())
    @settings(max_examples=300, deadline=None)
    def test_exp_small_matches_the_fold(self, case):
        from padic_oracle import exp_fold

        ctx, s = case
        x = PadicNumber.from_state(ctx, s)
        assert _outcome(lambda: exp_small(x).state) == _outcome(lambda: exp_fold(x).state), s

    @given(_series_case())
    @settings(max_examples=300, deadline=None)
    def test_log_one_unit_matches_the_fold(self, case):
        from padic_oracle import log_fold

        ctx, s = case
        u = PadicNumber.from_state(ctx, s) + 1
        assert _outcome(lambda: log_one_unit(u).state) == _outcome(lambda: log_fold(u).state), s

    def test_deep_series_match_their_folds(self):
        # a large last index K, so that the common denominator of exp_small
        # (K!) carries p^g with g >= 2: at (5, 120) and v(x) = 1, K = 159 and
        # g = 38; at (101, 200), K = 202 and g = 2
        from padic_oracle import deep_cases, series_mismatch

        cases = [(ctx, s) for ctx, s in deep_cases()
                 if (ctx.p, ctx.precision) in ((5, 120), (101, 200))]
        assert len(cases) == 24
        assert [series_mismatch(ctx, s) for ctx, s in cases] == [None] * len(cases)

    @given(_dot_case(unit_weights=True))
    @example((5, 4, [(-1, 1, 1), (-1, 1, 1), (-2, 2, 1)], [(0, 1, 4), (0, 4, 4), (0, 1, 4)]))
    @settings(max_examples=400, deadline=None)
    def test_dot_is_the_sum_rule_and_the_fold(self, case):
        # the branch sum of lp_series: the states put over their least
        # valuation by kubota._over_least, weighted by units.  In the example
        # 1/5 + 4/5 cancels to no digit modulo 5^0, so the fold raises, while
        # the sum 1 + 2/25 is known modulo 5^-1: (-2, 2, 1)
        from padic_oracle import dot_fold, weighted_sum

        p, N, xs, ys = case
        P = powers(p, N)
        _assert_sum(_outcome(lambda: weighted_sum(P, N, xs, [u for _, u, _ in ys])),
                    _outcome(lambda: dot_fold(P, N, xs, ys)), _sum_rule_by_hand(p, xs, ys))

    @given(_dot_case(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_horner_sums_are_the_sum_rule_and_the_fold(self, case, data):
        # the inner sums of the L-value series: sum_m c_m x^m at x = a^(-1)
        # for integers a prime to p, a dot product with the states of x^m;
        # some c_m are None (B_m = 0)
        from eiszeta.kubota import _horner_sums
        from padic_oracle import horner_fold

        p, N, coeffs, _ = case
        P = powers(p, N)
        coeffs = [None if data.draw(st.integers(0, 5)) == 0 else c for c in coeffs]
        coeffs[0] = coeffs[0] or (0, 1, N)
        units = data.draw(st.lists(st.integers(1, p**N - 1).filter(lambda u: u % p),
                                   min_size=1, max_size=3))
        sums = _outcome(lambda: _horner_sums(P, N, coeffs, units))
        for k, a in enumerate(units):
            x = pow(a, -1, p**N)
            present = [(c, (0, pow(x, m, p**N), N)) for m, c in enumerate(coeffs) if c is not None]
            want = _sum_rule_by_hand(p, *zip(*present))
            fold = _outcome(lambda: horner_fold(P, N, coeffs, x))
            _assert_sum(_outcome(lambda: _horner_sums(P, N, coeffs, [a])[0]), fold, want)
            if not isinstance(sums, str):  # one pass over many units, when none raises
                assert sums[k] == want


def test_power_tuples_are_safe_to_share_between_threads():
    # for a second, more threads than cores walk jobs over alternating primes
    # and precisions, two threads to a job at a time; the jobs ask for more
    # (p, N) than the power cache holds, so threads evict and rebuild tuples
    # while others read them: every result must be the state built here with
    # p ** e, which a lost or misplaced power breaks
    import os
    import sys
    import threading
    import time

    from eiszeta import padic
    from eiszeta.padic import state_add, state_div, state_eq_product, state_mul

    jobs = []
    for n in range(20):
        p, N = (5, 7, 23, 691)[n % 4], (40, 70, 150, 300, 500)[n // 4]
        mod, gap = p**N, 1 + n * 37 % N
        u, w = pow(2, 3 * N + 1, mod), pow(3, 2 * N + 1, mod)
        jobs.append((p, N, (0, u, N), (gap, w, N), (
            (gap, u * w % mod, N),
            (0, (u + w * p**gap) % mod, N),
            (-gap, u * pow(w, -1, mod) % mod, N),
            (0, pow(2, N + n, mod), N),
            (-1, u * pow(2, -1, mod) % mod, N),
            True,
        )))
    assert len({job[:2] for job in jobs}) > padic.POWERS_CACHE_SIZE
    done, wrong = [], []

    def work(offset):
        j = offset
        while time.monotonic() < deadline:
            p, N, a, b, want = jobs[j % len(jobs)]
            P = powers(p, N)
            got = (state_mul(P, a, b), state_add(P, N, a, b), state_div(P, a, b),
                   state_char(P, N, 0, 2, N + j % len(jobs)),
                   state_div(P, a, state_of_int(P, N, 2 * p)),
                   state_eq_product(P, want[0], a, b))
            if got != want:
                wrong.append((p, N, got, want))
            j += 1
        done.append(j - offset)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = [threading.Thread(target=work, args=(n // 2,)) for n in range((cores or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(threads) and sum(done) > len(jobs)
    assert not wrong, wrong[:1]
