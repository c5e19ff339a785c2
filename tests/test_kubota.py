"""The p-adic L-function: interpolation route, convergent series route, the
weight-space zeta function, and the irregular machinery."""

from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from eiszeta import bernoulli, kubota, padic
from eiszeta.bernoulli import _zeros_mod_p, bernoulli_number, generalized_bernoulli
from eiszeta.characters import TeichCharacter
from eiszeta.cli import main
from eiszeta.kubota import (
    AdmissibilityError,
    IrregularScreenError,
    PoleError,
    WeightPoint,
    irregular_branches,
    irregular_scan,
    lp_interpolation,
    lp_series,
    zeta_weight,
)
from eiszeta.padic import (
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    agreement_precision,
    exp_small,
    log_one_unit,
    teichmuller,
)
from eiszeta.primes import primes_up_to
from eiszeta.qexp import eisenstein_critical, eisenstein_ordinary, hecke_Tl, theta_pow


_C5, _C7 = PadicContext(5, 4), PadicContext(7, 4)
_W = WeightPoint.critical(5, 4, 2)

# the ValueError of each bad parameter, with the call that raises it
REFUSALS = [
    ("interpolation needs n >= 1", lambda: lp_interpolation(0, 2, _C5)),
    ("truncation order must be >= 1", lambda: eisenstein_critical(5, 4, 2, 0, _C5)),
    ("l = 4 is not prime", lambda: hecke_Tl(eisenstein_critical(5, 4, 2, 10, _C5), 4)),
    ("theta power must be >= 0", lambda: theta_pow(eisenstein_critical(5, 4, 2, 10, _C5), -1)),
    ("context prime differs from p", lambda: eisenstein_critical(5, 4, 2, 10, _C7)),
    ("context prime differs from p", lambda: irregular_scan(5, _C7)),
    ("context prime differs from the weight's prime", lambda: eisenstein_ordinary(_W, 10, _C7)),
    ("context prime differs from the weight's prime", lambda: zeta_weight(_W, _C7)),
    ("context prime differs from character prime", lambda: TeichCharacter(5, 1).value(2, _C7)),
    ("context prime differs from character prime",
     lambda: generalized_bernoulli(2, TeichCharacter(5, 2), _C7)),
]


@pytest.mark.parametrize("message, call", REFUSALS)
def test_bad_parameters_are_refused_with_their_message(message, call):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestWeightPoint:
    def test_classical_coordinates(self):
        w = WeightPoint.classical(5, 4, 2)
        assert w.branch == 2  # (4 + 2) mod 4
        assert w.s == 4

    def test_parity_rejected(self):
        with pytest.raises(AdmissibilityError):
            WeightPoint.classical(5, 4, 1)

    def test_critical_constraints(self):
        WeightPoint.critical(5, 3, 1)
        with pytest.raises(AdmissibilityError):
            WeightPoint.critical(5, 1, 1)
        with pytest.raises(AdmissibilityError):
            WeightPoint.critical(5, 2, 0)
        # weight 2 with a nontrivial even character is admissible
        WeightPoint.critical(5, 2, 2)

    def test_twin_coordinates(self):
        w = WeightPoint.classical(5, 4, 0)
        tw = w.twin()
        assert tw.k == -2
        assert tw.s == -2
        assert tw.branch == 2  # 2 - k - i mod 4
        # twin of a (p,k,i) point sits on branch 2 - k - i
        w2 = WeightPoint.classical(37, 4, 2)
        assert w2.twin().branch == (2 - 4 - 2) % 36 == 32

    @given(st.sampled_from([3, 5, 7, 13]), st.integers(-8, 12))
    @example(13, 0)  # the trivial weight
    @settings(max_examples=80, deadline=None)
    def test_classical_weight_is_determined_by_p_k_i(self, p, k):
        # branch and coordinate follow from (p, k, i), i counts mod p - 1, and
        # the ordinary twin is an involution; only z^0 omega^0 is the pole
        ctx = PadicContext(p, 4)
        for i in range(k % 2, p - 1, 2):
            w = WeightPoint.classical(p, k, i)
            assert (w.branch, w.s) == ((k + i) % (p - 1), k)
            assert WeightPoint.classical(p, k, i + (p - 1)) == w
            assert w.twin().twin() == w
            assert w.is_trivial == (k == 0 and i == 0)
            if w.is_trivial:
                with pytest.raises(PoleError):
                    zeta_weight(w, ctx)

    def test_trivial_weight_detection(self):
        assert WeightPoint.classical(5, 0, 0).is_trivial
        assert not WeightPoint.classical(5, 4, 0).is_trivial


class TestInterpolation:
    def test_p5_j2_n2(self):
        # chi' is trivial: -(1-5) * B_2 / 2 = 1/3
        ctx = PadicContext(5, 20)
        expected = -(1 - Fraction(5)) * bernoulli_number(2) / 2
        assert expected == Fraction(1, 3)
        lv = lp_interpolation(2, 2, ctx)
        assert lv.value == PadicNumber.from_rational(expected, ctx)
        assert lv.route == "interpolation"

    def test_odd_branch_rejected(self):
        with pytest.raises(AdmissibilityError):
            lp_interpolation(2, 3, PadicContext(5, 10))

    def test_p5_j0_n4_stabilized_zeta_value(self):
        # chi' = omega^(-4) = trivial: -(1 - 5^3) B_4 / 4
        ctx = PadicContext(5, 20)
        expected = -(1 - Fraction(5) ** 3) * bernoulli_number(4) / 4
        assert expected == Fraction(-31, 30)
        lv = lp_interpolation(4, 0, ctx)
        assert lv.value == PadicNumber.from_rational(expected, ctx)

    def test_p7_j2_n2(self):
        ctx = PadicContext(7, 20)
        expected = -(1 - Fraction(7)) * bernoulli_number(2) / 2
        assert expected == Fraction(1, 2)
        assert lp_interpolation(2, 2, ctx).value == PadicNumber.from_rational(expected, ctx)


class TestSeries:
    def test_two_route_agreement_spot(self):
        ctx = PadicContext(5, 20)
        sv = lp_series(-1, 2, ctx)
        iv = lp_interpolation(2, 2, ctx)
        assert agreement_precision(sv.value, iv.value) >= 15
        assert sv.route == "series"
        assert sv.precision_achieved >= 15

    def test_two_route_small_grid(self):
        for p in (5, 7):
            ctx = PadicContext(p, 20)
            for j in range(0, p - 1, 2):
                for n in (1, 2, 3, p - 1, p, 13):
                    sv = lp_series(1 - n, j, ctx)
                    iv = lp_interpolation(n, j, ctx)
                    assert agreement_precision(sv.value, iv.value) >= 15, (p, j, n)

    def test_branch_zero_values_carry_the_pole_factor(self):
        # valuation is -1 - v(n) on the trivial branch
        ctx = PadicContext(5, 20)
        assert lp_series(-3, 0, ctx).value.valuation == -1
        assert lp_series(1 - 5, 0, ctx).value.valuation == -2

    def test_nontrivial_branch_regular_prime_values_are_units(self):
        ctx = PadicContext(5, 16)
        for s in (-7, -1, 0, 2, 3, 9):
            assert lp_series(s, 2, ctx).value.valuation == 0

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            lp_series(1, 0, PadicContext(5, 12))

    def test_exact_argument_congruent_to_the_pole_is_a_precision_loss(self):
        ctx = PadicContext(3, 1)
        # 4 = 1 mod 3 but 4 != 1: one digit cannot tell it from the pole
        with pytest.raises(PrecisionLossError, match=r"s = 4 is 1 modulo 3\^1"):
            lp_series(4, 0, ctx)
        with pytest.raises(PoleError):
            lp_series(Fraction(1), 0, ctx)
        # a p-adic argument is known only to precision, so it may be the pole
        with pytest.raises(PoleError):
            lp_series(PadicNumber.from_int(4, ctx), 0, ctx)

    def test_removable_point_on_nontrivial_branch(self):
        # s = 1 with j != 0 is a 0/0 of the series but a finite value;
        # consistency with a nearby argument via analyticity
        ctx = PadicContext(5, 20)
        at1 = lp_series(1, 2, ctx)
        near = lp_series(1 + 5**6, 2, ctx)
        assert agreement_precision(at1.value, near.value) >= 6
        assert at1.precision_achieved >= 8
        # at N = 1 every nearby argument 1 + p^h is again s = 1
        with pytest.raises(padic.PrecisionLossError):
            lp_series(1, 2, PadicContext(5, 1))

    @pytest.mark.parametrize("p", [5, 7, 37])
    def test_removable_point_needs_precision_three(self, p):
        # at N = 1 the neighbour 1 + p^h is again s = 1; at N = 2, h = 1 and
        # p(s - 1) = p^2 divides a sum known modulo p^2, so no digit survives
        for j in range(2, p - 1, 2):
            for N in (1, 2):
                with pytest.raises(PrecisionLossError) as err:
                    lp_series(1, j, PadicContext(p, N))
                assert str(err.value) == "s = 1 on a nontrivial branch needs precision >= 3"
            assert lp_series(1, j, PadicContext(p, 3)).precision_achieved >= 1

    def test_removable_point_refusal_names_an_s_other_than_one(self):
        # an int or Fraction s = 1 modulo p^N other than 1 is named; exact
        # s = 1 and a PadicNumber keep the plain text
        need = "s = 1 on a nontrivial branch needs precision >= 3"
        ctx1, ctx2 = PadicContext(5, 1), PadicContext(5, 2)
        for s, ctx, want in ((6, ctx1, f"s = 6 is 1 modulo 5^1, and {need}"),
                             (-4, ctx1, f"s = -4 is 1 modulo 5^1, and {need}"),
                             (Fraction(8, 3), ctx1, f"s = 8/3 is 1 modulo 5^1, and {need}"),
                             (26, ctx2, f"s = 26 is 1 modulo 5^2, and {need}"),
                             (Fraction(1), ctx2, need), (True, ctx2, need),
                             (PadicNumber.from_int(26, ctx2), ctx2, need)):
            with pytest.raises(PrecisionLossError) as err:
                lp_series(s, 2, ctx)
            assert str(err.value) == want, s

    def test_removable_point_claims_no_digit_past_its_neighbour_bound(self, monkeypatch):
        # L(1) is read as L(1 + p^h) + O(p^(h+1)); a neighbour value of
        # valuation above h + 1 must not lift the stated precision past h + 1
        p, j, N = 5, 2, 8
        h = N // 2
        ctx = PadicContext(p, N)
        real = kubota.lp_series

        def neighbour_of_high_valuation(s, j, ctx):
            if s == 1 + p**h:
                return kubota.LValue(value=PadicNumber.from_int(2 * p ** (h + 2), ctx), branch=j,
                                     argument=s, route="series")
            return real(s, j, ctx)

        monkeypatch.setattr(kubota, "lp_series", neighbour_of_high_valuation)
        at1 = kubota.lp_series(1, j, ctx)
        assert at1.precision_achieved == h + 1
        assert at1.value.is_zero_to_precision and at1.value.abs_precision == h + 1

    def test_odd_branch_rejected(self):
        ctx = PadicContext(5, 10)
        for j in (3, -1, 1 + (5 - 1)):
            with pytest.raises(AdmissibilityError, match="branch exponent must be even"):
                lp_series(2, j, ctx)

    def test_exp_of_t_log_gamma_is_the_exact_power(self):
        # the series takes <a>^t as exp(t log<a>); at an integer t this is
        # the exact omega(a)^(-t) a^t, digit for digit
        for N in (1, 12):
            for p in (3, 5, 7, 11):
                ctx = PadicContext(p, N)
                for t in (0, 1, 3, -1, -2, -5, -8, 7, 25):
                    for a in range(1, p):
                        got = exp_small(PadicNumber.from_int(t, ctx) * kubota._log_gamma_a(p, N, a))
                        want = teichmuller(a, ctx) ** (-t) * PadicNumber.from_int(a, ctx) ** t
                        assert got.state == want.state, (p, t, a, N)

    @pytest.mark.parametrize("p,j,s", [(5, 2, 3), (7, 4, -2), (37, 32, Fraction(1, 2)),
                                       (7, 2, 1), (5, 0, 1 + 5)])
    def test_summand_is_the_weight_character(self, p, j, s):
        # the summand omega^j(a) <a>^t inner_a splits into omega^j(a) and the
        # p - 1 branch-free X_a = <a>^t inner_a, t = 1 - s, kept as p - 1 ints
        # over their least valuation: a cold call builds them once (also at
        # s = 1, whose value is the one series sum at the neighbour 1 + p^h),
        # and a second branch at the same argument reads them back
        N = 8
        ctx = PadicContext(p, N)
        t = PadicNumber.from_int(1, ctx) - (1 + p ** (N // 2) if s == 1 else s)
        cache = kubota._branch_free_terms
        ints = cache.__wrapped__(p, N, t.state)[3]
        assert len(ints) == p - 1 and all(type(x) is int for x in ints)
        cache.cache_clear()
        lp_series(s, j, ctx)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        lp_series(s, (j + 2) % (p - 1), ctx)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("p", [5, 7])
    def test_series_is_the_sum_of_weight_characters(self, p):
        # the split sum equals, state for state, the summand written as one
        # weight character per a: sum_a w_j(a) * inner_a / (p(s-1)), with
        # w_j(a) = omega^j(a) <a>^(1-s) built here from the Teichmuller lift
        # and inner_a = sum_m C(1-s, m) B_m (p/a)^m
        N = 8
        ctx = PadicContext(p, N)

        def reference(s, j):
            if s == 1:  # the neighbour, known to p^(h+1)
                return reference(1 + p ** (N // 2), j) + ctx.zero(N // 2 + 1)
            if not isinstance(s, PadicNumber):
                s = PadicNumber.from_rational(s, ctx)
            t = PadicNumber.from_int(1, ctx) - s
            binom, coeffs = PadicNumber.from_int(1, ctx), []
            for m in range(N + 2):
                if m:
                    binom = binom * (t - (m - 1)) / m
                b = bernoulli_number(m)
                coeffs.append(None if b == 0 else binom * (b * Fraction(p) ** m))
            while coeffs[-1] is None:
                coeffs.pop()
            total = None
            for a in range(1, p):
                inner = coeffs[-1]
                for c in reversed(coeffs[:-1]):
                    inner = inner / a
                    if c is not None:
                        inner = inner + c
                omega = teichmuller(a, ctx)
                gamma = exp_small(t * log_one_unit(PadicNumber.from_int(a, ctx) / omega))
                term = omega**j * gamma * inner  # omega^j(a) <a>^t inner_a
                total = term if total is None else total + term
            return total / (-t * p)

        args = [3, -2, 0, 1 + p, Fraction(1, 2), Fraction(-3, 2),
                PadicNumber.from_int(4, ctx), PadicNumber.from_rational(Fraction(2, 3), ctx), 1]
        for s in args:
            for j in range(0, p - 1, 2):
                if j == 0 and s == 1:  # the pole
                    continue
                want = reference(s, j).state
                kubota._branch_free_terms.cache_clear()
                assert lp_series(s, j, ctx).value.state == want, (s, j)  # cold
                assert lp_series(s, j, ctx).value.state == want, (s, j)  # warm

    def test_non_integer_argument(self):
        ctx = PadicContext(5, 16)
        lv = lp_series(Fraction(1, 3), 2, ctx)  # 1/3 is a 5-adic integer
        assert lv.value.valuation == 0
        with pytest.raises(ValueError):
            lp_series(Fraction(1, 5), 2, ctx)

    def test_argument_refusals(self):
        ctx = PadicContext(5, 16)
        for s in (PadicNumber.from_int(3, PadicContext(5, 15)),
                  PadicNumber.from_int(3, PadicContext(7, 16))):
            with pytest.raises(ValueError, match="argument carried a different context"):
                lp_series(s, 2, ctx)
        for s in (Fraction(1, 5), PadicNumber.from_rational(Fraction(3, 25), ctx)):
            with pytest.raises(ValueError,
                               match="the L-function argument must be a p-adic integer"):
                lp_series(s, 2, ctx)

    def test_kummer_congruence_samples(self):
        # fixed nonzero branch: values at n and n + (p-1) agree mod p
        for p, j in ((5, 2), (7, 2), (7, 4)):
            ctx = PadicContext(p, 14)
            for n in range(1, 8):
                a = lp_interpolation(n, j, ctx).value
                b = lp_interpolation(n + p - 1, j, ctx).value
                assert agreement_precision(a, b) >= 1, (p, j, n)


class TestZetaWeight:
    def test_classical_value(self):
        ctx = PadicContext(5, 20)
        w = WeightPoint.classical(5, 4, 0)
        zv = zeta_weight(w, ctx)
        assert agreement_precision(
            zv.value, PadicNumber.from_rational(Fraction(-31, 30), ctx)
        ) >= 15

    def test_classical_matches_interpolation_route(self):
        for p, k, i in ((5, 4, 0), (5, 3, 1), (7, 5, 1), (7, 4, 2), (13, 6, 2)):
            ctx = PadicContext(p, 18)
            w = WeightPoint.classical(p, k, i)
            zv = zeta_weight(w, ctx)
            iv = lp_interpolation(k, w.branch, ctx)
            assert agreement_precision(zv.value, iv.value) >= 12, (p, k, i)

    def test_classical_nonvanishing(self):
        for p in (5, 7, 11):
            ctx = PadicContext(p, 14)
            for k in range(1, 8):
                for i in range(0, p - 1):
                    if (k - i) % 2:
                        continue
                    w = WeightPoint.classical(p, k, i)
                    if w.is_trivial:
                        continue
                    assert not zeta_weight(w, ctx).value.is_zero_to_precision, (p, k, i)

    def test_twin_evaluation_argument(self):
        # zeta at the twin weight is the branch-(2-k-i) function at k-1
        ctx = PadicContext(5, 16)
        w = WeightPoint.classical(5, 4, 0)
        tw = w.twin()
        zv = zeta_weight(tw, ctx)
        assert zv.branch == 2
        direct = lp_series(3, 2, ctx)
        assert agreement_precision(zv.value, direct.value) >= 14

    def test_trivial_weight_rejected(self):
        with pytest.raises(PoleError):
            zeta_weight(WeightPoint.classical(5, 0, 0), PadicContext(5, 10))


class TestIrregular:
    def test_regular_primes_empty(self):
        for p in (5, 7, 11, 13):
            assert irregular_branches(p) == []
            assert irregular_scan(p, PadicContext(p, 10)) == []

    def test_p37(self):
        assert irregular_branches(37) == [32]
        assert bernoulli_number(32).numerator % 37 == 0

    def test_p157_two_branches(self):
        assert irregular_branches(157) == [62, 110]

    def test_witness_structure(self):
        hits = irregular_scan(37, PadicContext(37, 12))
        assert len(hits) == 1
        j, wit = hits[0]
        assert j == 32
        # a zero on the branch forces positive valuation everywhere...
        assert wit.baseline_valuation >= 1
        # ...and the zero's residue class shows up as a valuation jump;
        # a single simple zero means exactly one jump class on the grid
        assert len(wit.elevated) == 1
        for s, v in wit.elevated:
            assert v > wit.baseline_valuation

    def test_zero_locus_grid_counts(self):
        # finitely many zeros per branch, restated on a grid: a regular prime
        # has no zero-to-precision hits anywhere, while each zero-carrying
        # branch shows exactly one elevated residue class (simple zeros)
        for p in (5, 7):
            ctx = PadicContext(p, 12)
            for j in range(0, p - 1, 2):
                for s in range(-3, 9):
                    if j == 0 and s == 1:
                        continue
                    assert not lp_series(s, j, ctx).value.is_zero_to_precision, (p, j, s)
        for p, branches in ((37, [32]), (59, [44])):
            hits = irregular_scan(p, PadicContext(p, 10))
            assert [j for j, _ in hits] == branches
            assert all(len(wit.elevated) == 1 for _, wit in hits)

    def test_census_size_primes_against_power_sums(self):
        # for even 2 <= j <= p-3, sum_{a<p} a^j = p B_j (mod p^2), so
        # p | numerator(B_j) exactly when the power sum vanishes mod p^2;
        # 691 | numerator(B_12) = -691 is the classical anchor
        expected = {491: [292, 336, 338], 617: [20, 174, 338],
                    647: [236, 242, 554], 691: [12, 200]}
        for p, branches in expected.items():
            q = p * p
            sums = [0] * (p - 2)
            for a in range(1, p):
                a2, power = a * a % q, 1
                for j in range(2, p - 2, 2):
                    power = power * a2 % q
                    sums[j] += power
            by_power_sums = [j for j in range(2, p - 2, 2) if sums[j] % q == 0]
            assert by_power_sums == branches, p
            assert irregular_branches(p) == branches, p

    def test_screen_is_the_exact_criterion_up_to_700(self):
        for p in primes_up_to(700)[1:]:
            exact = [j for j in range(2, p - 2, 2) if bernoulli_number(j).numerator % p == 0]
            assert _zeros_mod_p(p) == exact, p

    def test_a_prime_without_hits_fills_no_exact_bernoulli(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_cache", [Fraction(1), Fraction(-1, 2)])
        monkeypatch.setattr(bernoulli, "_row", [1])
        kubota._irregular_branches.cache_clear()
        assert irregular_branches(701) == []
        assert bernoulli._cache == [Fraction(1), Fraction(-1, 2)] and bernoulli._row == [1]

    def test_a_hit_the_numerator_rejects_raises(self, monkeypatch, tmp_path, capsys):
        # B_2 = 1/6: 37 does not divide its numerator
        monkeypatch.setattr(kubota, "_zeros_mod_p", lambda p: [2] + _zeros_mod_p(p))
        kubota._irregular_branches.cache_clear()
        with pytest.raises(IrregularScreenError, match="names j = 2"):
            irregular_branches(37)
        out = tmp_path / "irr.jsonl"
        rc = main(["scan", "--irregular-only", "--p-from", "37", "--p-to", "37",
                   "--out", str(out)])
        assert rc == 4 and not out.exists()
        assert capsys.readouterr().err.startswith("internal check failure: the screen")
        assert kubota._irregular_branches.cache_info().currsize == 0

    def test_a_returned_list_is_the_callers_own(self):
        got = irregular_branches(157)
        got.append(4)
        got[0] = 0
        assert irregular_branches(157) == [62, 110]

    def test_prime_past_the_bernoulli_ceiling_is_rejected_up_front(self):
        assert kubota.MAX_IRREGULAR_PRIME == 2003
        kubota.check_irregular_prime(2003)  # B_2000 is the last one read
        with pytest.raises(ValueError, match="p = 2011 .* largest supported prime is 2003"):
            irregular_branches(2011)


class TestSeriesMemo:
    # lp_series caches only its branch-free terms, keyed by (p, N, state of
    # 1 - s): a pole or an argument of another type leaves nothing behind
    # that a later call could see

    def test_pole_is_not_memoised(self):
        ctx = PadicContext(5, 12)
        kubota._branch_free_terms.cache_clear()
        for j in (0, 4, 0):  # 4 is the trivial branch again mod p-1
            with pytest.raises(PoleError):
                lp_series(1, j, ctx)
        assert kubota._branch_free_terms.cache_info().currsize == 0
        assert lp_series(1, 2, ctx).value.valuation == 0

    def test_cold_and_warm_terms_agree_across_precisions_and_primes(self):
        # the same s at N and N + 3, and at two primes, never reads another
        # key's terms: each value is the same with the cache cleared before
        # every call as with all 8 keys (s = 1 is its neighbour) resident
        points = [(p, N, s, j) for p in (5, 7) for N in (8, 11)
                  for s in (-2, 1) for j in {2, p - 3}]
        cold = {}
        for p, N, s, j in points:
            kubota._branch_free_terms.cache_clear()
            cold[p, N, s, j] = lp_series(s, j, PadicContext(p, N)).value.state
        kubota._branch_free_terms.cache_clear()
        for _ in range(2):
            warm = {(p, N, s, j): lp_series(s, j, PadicContext(p, N)).value.state
                    for p, N, s, j in points}
            assert warm == cold
        info = kubota._branch_free_terms.cache_info()
        assert info.misses == info.currsize == 8 and info.hits == 2 * len(points) - 8

    def test_non_int_arguments_bypass_the_memo(self):
        ctx = PadicContext(5, 12)
        from_int = lp_series(1, 2, ctx)
        as_bool = lp_series(True, 2, ctx)
        assert as_bool.argument is True
        assert from_int.argument == 1 and type(from_int.argument) is int
        assert lp_series(Fraction(3), 2, ctx).argument == Fraction(3)
        assert isinstance(lp_series(PadicNumber.from_int(3, ctx), 2, ctx).argument,
                          PadicNumber)
        # the int call after the bool call still reports an int
        assert lp_series(1, 2, ctx).argument is not True

    def test_every_cache_is_bounded(self):
        for cache in (padic._teich_unit, kubota._log_gamma_a):
            maxsize = cache.cache_parameters()["maxsize"]
            assert maxsize is not None and 0 < maxsize <= 4096
        # one table of p - 1 lifts per (p, N), README "Caches"
        assert padic._teich_unit.cache_parameters()["maxsize"] == padic.TEICH_CACHE_SIZE == 4
        # the irregular branches of one prime each
        assert kubota._irregular_branches.cache_info().maxsize == kubota.IRREGULAR_CACHE_SIZE == 32

    def test_branch_free_terms_stay_within_their_bound(self):
        cache = kubota._branch_free_terms
        assert cache.cache_info().maxsize == kubota.LP_TERMS_CACHE_SIZE == 8
        cache.cache_clear()
        ctx = PadicContext(5, 6)
        for s in range(-20, 20):  # 39 keys: s = 1 is its neighbour 1 + 5^3
            lp_series(s, 2, ctx)
            assert cache.cache_info().currsize <= 8
        assert cache.cache_info().currsize == 8
