"""Exact Bernoulli machinery, checked against independent algorithms
(Akiyama-Tanigawa, the binomial recurrence, Seidel's boustrophedon) and the
classical structure theorems."""

from fractions import Fraction
from math import comb

import pytest
from bernoulli_oracle import boustrophedon, generalized_by_power_sums
from hypothesis import given, settings, strategies as st

from eiszeta import bernoulli
from eiszeta.bernoulli import MAX_BERNOULLI_INDEX, bernoulli_number, generalized_bernoulli
from eiszeta.characters import TeichCharacter
from eiszeta.padic import PadicContext, PadicNumber, agreement_precision, teichmuller
from eiszeta.primes import primes_up_to


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle (B_1 = +1/2 convention);
    flip the sign of B_1 to compare against the B_1 = -1/2 convention."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    out[1] = -out[1] if n >= 1 else out[0]
    return out


def bernoulli_polynomial_at(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), as an exact rational."""
    return sum(comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def defining_sum(n: int, p: int, e: int, ctx: PadicContext) -> PadicNumber:
    """f^(n-1) sum_{a=1}^{f} omega^e(a) B_n(a/f) in Q_p, the definition of
    B_{n, omega^e}, with the conductor f = 1 for e = 0 and f = p otherwise."""
    f = 1 if e == 0 else p
    terms = [
        teichmuller(a, ctx) ** e
        * PadicNumber.from_rational(f ** (n - 1) * bernoulli_polynomial_at(n, Fraction(a, f)), ctx)
        for a in range(1, f + 1)
        if a % p
    ]
    return sum(terms[1:], terms[0])


def binomial_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{k=0}^{m} C(m+1,k) B_k = 0 (B_1 = -1/2)."""
    out = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, n + 1):
        if m % 2 == 1:
            out.append(Fraction(0))
            continue
        s = Fraction(m + 1) * out[1]
        s += sum(Fraction(comb(m + 1, k)) * out[k] for k in range(0, m, 2))
        out.append(-s / (m + 1))
    return out[: n + 1]


class TestBernoulliNumbers:
    def test_base_cases(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_small_values_against_independent_algorithm(self):
        oracle = akiyama_tanigawa(30)
        for n in range(31):
            assert bernoulli_number(n) == oracle[n], f"B_{n}"

    def test_exact_against_binomial_recurrence(self):
        oracle = binomial_recurrence(700)
        for n in range(701):
            assert bernoulli_number(n) == oracle[n], f"B_{n}"

    def test_boustrophedon_oracle_matches_binomial_recurrence(self):
        # the oracle a CI step compares every B_n, n <= MAX_BERNOULLI_INDEX, with
        assert boustrophedon(120) == binomial_recurrence(120)
        assert boustrophedon(0) == [1] and boustrophedon(2) == [1, Fraction(-1, 2), Fraction(1, 6)]

    def test_fill_order_does_not_matter(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_cache", [Fraction(1), Fraction(-1, 2)])
        monkeypatch.setattr(bernoulli, "_row", [1])
        for n in range(701):
            bernoulli_number(n)
        ascending = list(bernoulli._cache)
        monkeypatch.setattr(bernoulli, "_cache", [Fraction(1), Fraction(-1, 2)])
        monkeypatch.setattr(bernoulli, "_row", [1])
        top = bernoulli_number(700)
        assert [bernoulli_number(n) for n in range(701)] == ascending
        assert bernoulli._cache == ascending
        assert top == ascending[700]

    def test_classical_values(self):
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for m in range(1, 15):
            assert bernoulli_number(2 * m + 1) == 0

    def test_von_staudt_clausen(self):
        # B_2n + sum over primes q with (q-1) | 2n of 1/q is an integer
        for n2 in range(2, 702, 2):
            s = bernoulli_number(n2)
            for q in primes_up_to(n2 + 1):
                if n2 % (q - 1) == 0:
                    s += Fraction(1, q)
            assert s.denominator == 1, f"von Staudt-Clausen fails at {n2}"

    def test_denominator_of_b12(self):
        # von Staudt-Clausen pins the denominator: primes q with (q-1) | 12
        assert bernoulli_number(12).denominator == 2 * 3 * 5 * 7 * 13

    def test_ceiling_guard(self):
        with pytest.raises(ValueError):
            bernoulli_number(MAX_BERNOULLI_INDEX + 1)
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_concurrent_calls_return_identical_values(self, monkeypatch):
        import sys
        import threading

        # cold cache and row, so the threads race to extend both
        monkeypatch.setattr(bernoulli, "_cache", [Fraction(1), Fraction(-1, 2)])
        monkeypatch.setattr(bernoulli, "_row", [1])
        results = [None] * 8

        def worker(slot):
            results[slot] = bernoulli_number(220 + 2 * slot)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        oracle = binomial_recurrence(234)
        for slot in range(8):
            assert results[slot] == bernoulli_number(220 + 2 * slot) == oracle[220 + 2 * slot]
        assert bernoulli._cache == oracle


class TestGeneralizedBernoulli:
    def test_trivial_character_reduces_to_bn(self):
        ctx = PadicContext(5, 15)
        chi = TeichCharacter(5, 0)
        assert generalized_bernoulli(2, chi, ctx) == PadicNumber.from_rational(Fraction(1, 6), ctx)
        assert generalized_bernoulli(4, chi, ctx) == PadicNumber.from_rational(Fraction(-1, 30), ctx)

    def test_b1_trivial_sign_convention(self):
        # pinned: B_{1,triv} = +1/2 (the value B_1(1))
        ctx = PadicContext(5, 15)
        chi = TeichCharacter(5, 0)
        assert generalized_bernoulli(1, chi, ctx) == PadicNumber.from_rational(Fraction(1, 2), ctx)

    def test_parity_vanishing(self):
        ctx = PadicContext(5, 15)
        # odd character, even index: algebraic zero
        assert generalized_bernoulli(2, TeichCharacter(5, 1), ctx).is_zero_to_precision
        # even character, odd index
        assert generalized_bernoulli(3, TeichCharacter(5, 2), ctx).is_zero_to_precision

    def test_quadratic_against_direct_rational_sum(self):
        # omega^2 mod 5 is the Legendre symbol, so the defining sum can be
        # reproduced entirely in exact rationals
        def legendre(a):
            return 1 if pow(a, 2, 5) == 1 else -1

        expected = Fraction(5) * sum(
            legendre(a) * bernoulli_polynomial_at(2, Fraction(a, 5)) for a in range(1, 5)
        )
        assert expected == Fraction(4, 5)  # sanity: valuation -1 happens here
        chi = TeichCharacter(5, 2)
        for precision in (12, 22):
            ctx = PadicContext(5, precision)
            got = generalized_bernoulli(2, chi, ctx)
            assert got == PadicNumber.from_rational(expected, ctx)

    @pytest.mark.parametrize("p,e", [(p, e) for p in (5, 7, 11) for e in range(p - 1)])
    def test_against_the_defining_sum(self, p, e):
        chi = TeichCharacter(p, e)
        for n in range(1, 13):
            for N in (1, 2, 6, 20):
                got = generalized_bernoulli(n, chi, PadicContext(p, N))
                oracle = defining_sum(n, p, e, PadicContext(p, N + 5))
                # every digit got claims is one of the oracle's, and at most
                # the p^(-1) of a valuation -1 value is lost to the N-digit cut
                assert agreement_precision(got, oracle) >= got.abs_precision >= N - 1, (n, N)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 23, 691]), n=st.integers(1, 60),
           N=st.integers(1, 30), data=st.data())
    def test_states_match_the_power_sums(self, p, n, N, data):
        # the cached Bernoulli polynomial values f(a) summed against chi(a)
        # give the very state of the per-exponent power sums S_i, for every
        # exponent e (e = 0 reads the exact B_n(1)) and guard precision N
        e = data.draw(st.integers(0, p - 2))
        chi, ctx = TeichCharacter(p, e), PadicContext(p, N)
        got, want = generalized_bernoulli(n, chi, ctx), generalized_by_power_sums(n, chi, ctx)
        assert (got.ctx, got.state) == (want.ctx, want.state)

    def test_values_cache_stays_within_its_bound(self):
        # the bound README "Caches" states
        cache = bernoulli._bernoulli_values
        assert cache.cache_info().maxsize == bernoulli.BERNOULLI_VALUES_CACHE_SIZE == 1
        cache.cache_clear()
        for n, N in ((4, 10), (6, 10), (6, 11)):
            generalized_bernoulli(n, TeichCharacter(7, 2), PadicContext(7, N))
            assert cache.cache_info().currsize == 1
        generalized_bernoulli(6, TeichCharacter(7, 4), PadicContext(7, 11))
        info = cache.cache_info()
        assert (info.misses, info.hits) == (3, 1)  # f(a) does not depend on chi

    @pytest.mark.parametrize("p, n, G", [(7, 60, 3), (5, 400, 2), (23, 45, 21), (23, 45, 22)])
    def test_values_past_the_guard_are_the_full_sum(self, p, n, G):
        # terms m > G of f(a) = sum_m C(n,m) B_m p^m a^(n-m) vanish mod p^G;
        # at (23, 45, 22), where p - 1 divides G, term m = G does not
        mod = p**G
        want = []
        for a in range(1, p):
            f = sum(comb(n, m) * bernoulli_number(m) * p**m * a ** (n - m) for m in range(n + 1))
            want.append(f.numerator * pow(f.denominator, -1, mod) % mod)
        assert bernoulli._bernoulli_values.__wrapped__(p, n, G) == tuple(want)

    def test_values_read_no_bernoulli_number_past_the_guard(self, monkeypatch):
        seen = []

        def recorder(m):
            seen.append(m)
            return bernoulli_number(m)

        monkeypatch.setattr(bernoulli, "bernoulli_number", recorder)
        bernoulli._bernoulli_values.__wrapped__(7, 1999, 21)
        assert seen and max(seen) == 21

    def test_index_past_the_ceiling_is_refused_before_any_arithmetic(self, monkeypatch):
        def fail(*args):
            raise AssertionError("arithmetic before the ceiling check")

        monkeypatch.setattr(bernoulli, "_bernoulli_values", fail)
        n = MAX_BERNOULLI_INDEX + 1
        for e in (0, 1):
            with pytest.raises(ValueError, match=f"Bernoulli index {n} exceeds the ceiling "
                                                 f"{MAX_BERNOULLI_INDEX}"):
                generalized_bernoulli(n, TeichCharacter(7, e), PadicContext(7, 20))

    def test_odd_quadratic_at_n1(self):
        # p=7: omega^3 is the quadratic character mod 7; B_{1,chi} = (1/7) sum a*chi(a)
        def legendre7(a):
            return 1 if pow(a, 3, 7) == 1 else -1

        expected = Fraction(1, 7) * sum(a * legendre7(a) for a in range(1, 7))
        ctx = PadicContext(7, 15)
        got = generalized_bernoulli(1, TeichCharacter(7, 3), ctx)
        assert got == PadicNumber.from_rational(expected, ctx)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            generalized_bernoulli(0, TeichCharacter(5, 2), PadicContext(5, 10))

    def test_two_precisions_agree(self):
        chi = TeichCharacter(7, 4)
        lo = generalized_bernoulli(6, chi, PadicContext(7, 10))
        hi = generalized_bernoulli(6, chi, PadicContext(7, 25))
        # agreement over everything the coarser computation knows
        assert agreement_precision(lo, hi) == lo.abs_precision
        assert lo.abs_precision >= 9
