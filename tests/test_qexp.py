"""q-expansions: the two Eisenstein families, Hecke and theta operators, and
the eigensystem / twin verifications."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eiszeta.analyzer import analyze_point, scan_records, write_scan
from eiszeta.cli import main
from eiszeta.characters import TeichCharacter
from eiszeta.kubota import AdmissibilityError, WeightPoint, zeta_weight
from eiszeta.padic import (
    ContextMismatchError,
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    state_add,
    state_agreement,
    state_char,
    state_eq,
    state_mul,
    state_neg,
    state_of_int,
    state_zero,
    powers,
    teichmuller,
)
from eiszeta.primes import is_prime, primes_up_to, smallest_prime_factors
from eiszeta import bernoulli
from eiszeta.qexp import (
    CHECK_PRIMES,
    INDEX_POWERS_CACHE_SIZE,
    OperatorCheck,
    QExpansion,
    TwinCheckReport,
    TwinConventionError,
    _eigen_plan,
    _index_powers,
    _ordinary_states,
    dump_lines,
    eisenstein_critical,
    eisenstein_ordinary,
    theta_pow,
    theta_twin_check,
    verify_eigensystem,
)
from qexp_oracle import first_mismatch, hecke, index_order_report

CTX = PadicContext(5, 16)


def _multiply(f, g):
    """Product of truncated series, to the shorter truncation."""
    M = min(f.truncation, g.truncation)
    coeffs = []
    for n in range(M + 1):
        acc = PadicNumber.from_int(0, f.ctx)
        for u in range(n + 1):
            acc = acc + f.coeffs[u] * g.coeffs[n - u]
        coeffs.append(acc)
    p = f.ctx.p
    return QExpansion(f.ctx, f.weight + g.weight,
                      (f.char_exponent + g.char_exponent) % (p - 1), tuple(a.state for a in coeffs))


def _scale(f, c, order=None):
    """c times f, truncated at ``order`` (default: f's own truncation)."""
    coeffs = f.coeffs if order is None else f.coeffs[: order + 1]
    return QExpansion(f.ctx, f.weight, f.char_exponent, tuple((c * a).state for a in coeffs))


def _crit_54():
    return eisenstein_critical(5, 4, 0, 200, CTX)


class TestCritical:
    def test_prime_coefficients(self):
        f = _crit_54()
        assert f.coeff(0).is_zero_to_precision
        assert f.coeff(1) == PadicNumber.from_int(1, CTX)
        assert f.coeff(2) == PadicNumber.from_int(1 + 2**3, CTX)
        assert f.coeff(3) == PadicNumber.from_int(1 + 3**3, CTX)
        assert f.coeff(5) == PadicNumber.from_int(5**3, CTX)

    def test_prime_power_recursion(self):
        # a_4 = a_2^2 - 2^3 * a_1, computed independently here
        f = _crit_54()
        a2 = 1 + 2**3
        assert f.coeff(4) == PadicNumber.from_int(a2 * a2 - 2**3, CTX)
        assert f.coeff(4) == PadicNumber.from_int(73, CTX)
        # a_25 = (5^3)^2
        assert f.coeff(25) == PadicNumber.from_int(5**6, CTX)

    def test_multiplicativity_example(self):
        f = _crit_54()
        assert f.coeff(6) == PadicNumber.from_int(252, CTX)

    def test_multiplicativity_invariant(self):
        f = eisenstein_critical(7, 3, 1, 150, PadicContext(7, 12))
        pairs = [(m, n) for m in range(2, 13) for n in range(2, 13)
                 if m * n <= 150 and __import__("math").gcd(m, n) == 1]
        for m, n in pairs:
            assert f.coeff(m * n) == f.coeff(m) * f.coeff(n), (m, n)

    def test_first_mismatch_needs_one_prime(self):
        # as comparing two coefficients does; one prime at two precisions
        # compares to the lower of them
        f = eisenstein_critical(5, 4, 0, 30, PadicContext(5, 6))
        g = eisenstein_critical(7, 4, 0, 30, PadicContext(7, 6))
        with pytest.raises(ContextMismatchError, match="agreement requires the same prime"):
            f.coeff(2) == g.coeff(2)
        with pytest.raises(ContextMismatchError, match="agreement requires the same prime"):
            first_mismatch(f, g)
        assert first_mismatch(f, eisenstein_critical(5, 4, 0, 30, PadicContext(5, 3))) is None

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            eisenstein_critical(5, 2, 0, 10, CTX)
        with pytest.raises(AdmissibilityError):
            eisenstein_critical(5, 3, 0, 10, CTX)  # parity

    def test_nontrivial_character(self):
        ctx = PadicContext(7, 12)
        f = eisenstein_critical(7, 3, 1, 50, ctx)
        from eiszeta.characters import TeichCharacter

        eps = TeichCharacter(7, 1)
        for l in (2, 3, 5, 11, 13):
            assert f.coeff(l) == eps.value(l, ctx) + PadicNumber.from_int(l**2, ctx)


class TestOrdinary:
    def test_twin_coefficients(self):
        tw = WeightPoint.classical(5, 4, 0).twin()
        f = eisenstein_ordinary(tw, 60, CTX)
        assert f.weight == -2
        assert f.coeff(2) == PadicNumber.from_rational(Fraction(9, 8), CTX)
        assert f.coeff(1) == PadicNumber.from_int(1, CTX)

    def test_ap_is_one(self):
        tw = WeightPoint.classical(5, 4, 0).twin()
        f = eisenstein_ordinary(tw, 60, CTX)
        one = PadicNumber.from_int(1, CTX)
        assert f.coeff(5) == one
        assert f.coeff(25) == one

    def test_constant_term_is_half_zeta(self):
        w = WeightPoint.classical(5, 4, 0)
        f = eisenstein_ordinary(w, 20, CTX)
        zv = zeta_weight(w, CTX)
        assert f.coeff(0) * PadicNumber.from_int(2, CTX) == zv.value

    def test_prime_power_geometric(self):
        w = WeightPoint.classical(5, 4, 0)
        f = eisenstein_ordinary(w, 60, CTX)
        # a_l = 1 + l^3 for trivial character, a_{l^2} = 1 + l^3 + l^6
        assert f.coeff(2) == PadicNumber.from_int(1 + 8, CTX)
        assert f.coeff(4) == PadicNumber.from_int(1 + 8 + 64, CTX)

    def test_degenerate_constant(self):
        # the trivial weight is the constant series 1 of weight 0
        f = eisenstein_ordinary(WeightPoint.classical(5, 0, 0), 10, CTX)
        assert (f.weight, f.char_exponent, f.truncation) == (0, 0, 10)
        assert f.coeff(0) == PadicNumber.from_int(1, CTX)
        assert f.coeff(0).abs_precision == CTX.precision
        assert all(f.coeff(n).is_zero_to_precision for n in range(1, 11))
        assert all(f.coeff(n).min_valuation == CTX.precision for n in range(1, 11))


class TestHecke:
    def test_up_eigenvalue_on_critical(self):
        f = _crit_54()
        up = hecke(f, 5)
        scaled = _scale(f, PadicNumber.from_int(125, CTX), up.truncation)
        assert first_mismatch(up, scaled) is None

    def test_tl_eigenvalue_on_critical(self):
        f = _crit_54()
        t2 = hecke(f, 2)
        scaled = _scale(f, PadicNumber.from_int(9, CTX), t2.truncation)
        assert first_mismatch(t2, scaled) is None

    def test_tl_on_constant(self):
        # degenerate sanity: a constant c maps to (1 + eps(l) l^(k-1)) c
        c = PadicNumber.from_int(3, CTX)
        zero = PadicNumber.from_int(0, CTX)
        f = QExpansion(CTX, 4, 0, (c.state,) + (zero.state,) * 20)
        t2 = hecke(f, 2)
        assert t2.coeff(0) == c * PadicNumber.from_int(1 + 2**3, CTX)

    def test_commutativity_on_arbitrary_expansion(self):
        rng = random.Random(11)
        coeffs = tuple(
            PadicNumber.from_int(rng.randrange(1, 5**6), CTX) for _ in range(121)
        )
        f = QExpansion(CTX, 3, 1, tuple(a.state for a in coeffs))
        for l, m in ((2, 3), (2, 7), (3, 7)):
            a = hecke(hecke(f, l), m)
            b = hecke(hecke(f, m), l)
            assert first_mismatch(a, b) is None, (l, m)


class TestTheta:
    def test_identity_at_zero(self):
        f = _crit_54()
        assert theta_pow(f, 0) is f

    def test_kills_constant(self):
        w = WeightPoint.classical(5, 4, 0)
        f = eisenstein_ordinary(w, 20, CTX)
        assert not f.coeff(0).is_zero_to_precision
        assert theta_pow(f, 1).coeff(0).is_zero_to_precision

    def test_weight_shift(self):
        f = _crit_54()
        assert theta_pow(f, 3).weight == 4 + 6

    def test_twin_coefficient_example(self):
        tw = WeightPoint.classical(5, 4, 0).twin()
        f = eisenstein_ordinary(tw, 30, CTX)
        th = theta_pow(f, 3)
        assert th.coeff(2) == PadicNumber.from_int(9, CTX)  # 2^3 * 9/8

    def test_derivation_property(self):
        # theta(fg) = theta(f) g + f theta(g) on truncated products
        rng = random.Random(7)
        fc = tuple(PadicNumber.from_int(rng.randrange(1, 5**5), CTX) for _ in range(25))
        gc = tuple(PadicNumber.from_int(rng.randrange(1, 5**5), CTX) for _ in range(25))
        f = QExpansion(CTX, 2, 0, tuple(a.state for a in fc))
        g = QExpansion(CTX, 4, 2, tuple(a.state for a in gc))
        lhs = theta_pow(_multiply(f, g), 1)
        rhs_a = _multiply(theta_pow(f, 1), g)
        rhs_b = _multiply(f, theta_pow(g, 1))
        for n in range(25):
            assert lhs.coeff(n) == rhs_a.coeff(n) + rhs_b.coeff(n), n

    def test_cached_multipliers_match_padic_products(self):
        # two truncations that share (p, N, r) read different cache entries,
        # and a repeated call reads its entry: every coefficient is n^r a_n
        # formed with PadicNumbers; at r = 6, r v_7(n) passes N = 10 from
        # n = 49 on
        ctx = PadicContext(7, 10)
        f = eisenstein_ordinary(WeightPoint.classical(7, 5, 1).twin(), 90, ctx)
        _index_powers.cache_clear()
        for M, r in ((40, 4), (40, 4), (90, 4), (90, 6)):
            g = QExpansion(ctx, f.weight, f.char_exponent, f.states[: M + 1])
            th = theta_pow(g, r)
            assert th.truncation == M and th.weight == g.weight + 2 * r
            for n in range(M + 1):
                want = PadicNumber.from_int(n**r, ctx) * g.coeff(n)
                assert th.states[n] == want.state, (M, r, n)
        info = _index_powers.cache_info()
        assert (info.misses, info.hits) == (3, 1)

    def test_multiplier_cache_stays_within_its_bound(self):
        # the bound README "Caches" states: theta^r for four r keeps the two
        # most recent tables
        assert _index_powers.cache_info().maxsize == INDEX_POWERS_CACHE_SIZE == 2
        f = _crit_54()
        _index_powers.cache_clear()
        for r in range(1, 5):
            theta_pow(f, r)
            assert _index_powers.cache_info().currsize == min(r, 2)
        assert _index_powers.cache_info().misses == 4

    def test_a_scan_uses_each_multiplier_key_in_one_run(self, monkeypatch):
        # the two-entry cache misses once per key only if a scan never
        # returns to a key it has left: a (p, k) run reads r = k - 1 and
        # r = 1 - k, so the keys of one run share (p, N, |r|, M), and those
        # pairs follow each other in runs
        import eiszeta.qexp as qexp_mod

        keys = []
        cached = qexp_mod._index_powers

        def recording(*key):
            keys.append(key)
            return cached(*key)

        monkeypatch.setattr(qexp_mod, "_index_powers", recording)
        list(scan_records(5, 11, k_from=2, k_to=5, precision=8, terms=30))
        pairs = [(p, N, abs(r), M) for p, N, r, M in keys]
        runs = [key for n, key in enumerate(pairs) if n == 0 or pairs[n - 1] != key]
        assert len(set(pairs)) > 1 and len(runs) == len(set(pairs)) < len(pairs)
        assert len(set(keys)) == 2 * len(set(pairs))
        # replaying the keys through a two-entry LRU cache misses once per key
        lru, misses = [], 0
        for key in keys:
            if key in lru:
                lru.remove(key)
            else:
                misses += 1
            lru = (lru + [key])[-INDEX_POWERS_CACHE_SIZE:]
        assert misses == len(set(keys))


def _report_or_error(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__, str(e)


@st.composite
def _eigen_case(draw):
    """A critical, ordinary or twin series at a small prime and precision,
    with up to three coefficients replaced by random states: zeros with
    small bounds and units at valuations down to -3, so that the image of
    T_l and the products a_l a_n may keep no digit."""
    p = draw(st.sampled_from([3, 5, 7, 13]))
    N = draw(st.sampled_from([1, 2, 3, 20]))
    k = draw(st.integers(2, 9))
    exponents = [i for i in range(k % 2, p - 1, 2) if (k, i) != (2, 0)]
    assume(exponents)
    i = draw(st.sampled_from(exponents))
    M = draw(st.integers(max(19, p), 80))
    ctx = PadicContext(p, N)
    family = draw(st.sampled_from(["critical", "ordinary", "twin"]))
    w = WeightPoint.classical(p, k, i)
    f = _report_or_error(lambda: eisenstein_critical(p, k, i, M, ctx) if family == "critical"
                         else eisenstein_ordinary(w if family == "ordinary" else w.twin(), M, ctx))
    assume(isinstance(f, QExpansion))
    states = list(f.states)
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, M))
        if draw(st.integers(0, 3)) == 0:
            states[n] = draw(st.integers(1, 3)), None, 0
        else:
            r = draw(st.integers(1, N))
            states[n] = draw(st.integers(-3, 3)), draw(st.integers(1, p**r - 1).filter(lambda u: u % p)), r
    return QExpansion(ctx, f.weight, f.char_exponent, states)


def _cancelling_build(product_fails_first):
    """The critical series at (5, 4, 0), N = 6, M = 60, with a_2 at
    valuation -2 and a_8 = -eps(2) 2^3 a_2, so that T_2's image at n = 4,
    a_8 + eps(2) 2^3 a_2, keeps no digit; before that, T_2 f = a_2 f
    fails at n = 2, or, with a_4 = a_2^2 - eps(2) 2^3 and a_3 zero to
    p^1, a_2 a_3 keeps no digit at n = 3."""
    ctx = PadicContext(5, 6)
    f = eisenstein_critical(5, 4, 0, 60, ctx)
    P, N, a = ctx.powers, 6, list(f.states)
    back = state_char(P, N, 0, 2, 3)
    a[2] = (-2, 1, 2)
    a[8] = state_neg(P, state_mul(P, back, a[2]))
    if product_fails_first:
        a[4] = state_add(P, N, state_mul(P, a[2], a[2]), state_neg(P, back))
        a[3] = state_zero(1)
    return QExpansion(ctx, f.weight, f.char_exponent, a)


def _cancelling_before_a_mismatch():
    """The critical series at (3, 3, 1), N = 3, M = 60, with a_0 at
    valuation -2 and one digit, so that T_2's image at n = 0,
    a_0 (1 + eps(2) 2^2), keeps no digit, and with a_40 off by 1, so that
    T_2 f = a_2 f fails later, at n = 20."""
    ctx = PadicContext(3, 3)
    f = eisenstein_critical(3, 3, 1, 60, ctx)
    a = list(f.states)
    a[0] = (-2, 1, 1)
    a[40] = state_add(ctx.powers, 3, a[40], state_of_int(ctx.powers, 3, 1))
    return QExpansion(ctx, f.weight, f.char_exponent, a)


class TestVerifyEigensystem:
    @given(_eigen_case())
    @settings(max_examples=200, deadline=None)
    # the three orderings of a failure and an image that cannot be built,
    # which 200 random draws may miss: a mismatch first, a product without
    # a digit first, and the image first
    @example(_cancelling_build(False))
    @example(_cancelling_build(True))
    @example(_cancelling_before_a_mismatch())
    def test_one_pass_gives_the_report_of_the_images(self, f):
        # every first_fail_index, and every exception with its message, as
        # the reference that forms each image term and product in index order
        assert _report_or_error(lambda: verify_eigensystem(f)) == \
            _report_or_error(lambda: index_order_report(f))

    @pytest.mark.parametrize("product_fails_first", [False, True])
    def test_an_image_that_cannot_be_built_raises_after_an_earlier_failure(self, product_fails_first):
        # T_2's image keeps no digit at n = 4, so building it raises; the check
        # stops at the earlier failure, which decides: every operator fails
        # at n = 2 (a_2 a_n is off at valuation -2), or a_2 a_3 raises at n = 3
        f = _cancelling_build(product_fails_first)
        with pytest.raises(PrecisionLossError, match="cancellation left no digit"):
            hecke(f, 2)
        if product_fails_first:
            with pytest.raises(PrecisionLossError, match="product has no surviving precision"):
                verify_eigensystem(f)
        else:
            rep = verify_eigensystem(f)
            assert not rep.all_passed
            assert {c.first_fail_index for c in rep.checks} == {2}
            assert [c.operator for c in rep.checks] == [f"T_{l}" for l in CHECK_PRIMES if l != 5] + ["U_5"]

    def test_an_image_that_cannot_be_built_before_a_mismatch_raises(self):
        f = _cancelling_before_a_mismatch()
        with pytest.raises(PrecisionLossError, match="cancellation left no digit"):
            verify_eigensystem(f)
        # with a_0 restored, the mismatch is all that is left
        a = list(f.states)
        a[0] = state_zero(3)
        rep = verify_eigensystem(QExpansion(f.ctx, f.weight, f.char_exponent, a))
        assert rep.checks[0] == OperatorCheck("T_2", False, 20)

    def test_a_product_without_a_digit_raises_where_the_image_builds(self):
        # a_2 a_3 keeps no digit at n = 3, before any mismatch, and every
        # term of T_2's image builds
        f = _cancelling_build(True)
        a = list(f.states)
        a[8] = (0, 1, 6)
        f = QExpansion(f.ctx, f.weight, f.char_exponent, a)
        hecke(f, 2)
        with pytest.raises(PrecisionLossError, match="product has no surviving precision"):
            verify_eigensystem(f)

    @pytest.mark.parametrize("k,i", [(3, 1), (6, 0)])
    def test_index_zero_cancellation_is_lost_precision(self, capsys, k, i):
        # the ordinary series at (3, k, i), N = 3: a_0 = zeta_p(w)/2 has
        # valuation -2 and 2 digits, and a_0 (1 + eps(2) 2^(k-1)) keeps none
        with pytest.raises(PrecisionLossError, match="cancellation left no digit"):
            analyze_point(3, k, i, precision=3)
        argv = ["analyze", "--p", "3", "--k", str(k), "--eps-exponent", str(i), "--precision", "3"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: cancellation left no digit of precision\n"

    def test_critical_passes(self):
        rep = verify_eigensystem(_crit_54())
        assert rep.all_passed
        assert len(rep.checks) == 8  # T_2,3,7,11,13,17,19 and U_5

    def test_ordinary_passes(self):
        w = WeightPoint.classical(5, 4, 0)
        rep = verify_eigensystem(eisenstein_ordinary(w, 200, CTX))
        assert rep.all_passed

    def test_corrupted_fails_with_index(self):
        f = _crit_54()
        coeffs = list(f.coeffs)
        coeffs[40] = coeffs[40] + PadicNumber.from_int(1, CTX)
        bad = QExpansion(CTX, f.weight, f.char_exponent, tuple(a.state for a in coeffs))
        rep = verify_eigensystem(bad)
        assert not rep.all_passed
        # T_2 sees the corruption at index 20 (20*2 = 40)
        t2 = next(c for c in rep.checks if c.operator == "T_2")
        assert not t2.passed
        assert t2.first_fail_index == 20

    @pytest.mark.parametrize("p,k,i", [(5, 4, 0), (7, 5, 1), (13, 6, 4)])
    @pytest.mark.parametrize("family", ["critical", "ordinary"])
    def test_corruption_keeps_every_first_failing_index(self, p, k, i, family):
        # one corrupted a_(n0), in its first or a higher digit, must give the
        # operator checks the reference builds from the image terms of T_l and
        # U_p in index order, comparing by the agreement exponent
        ctx = PadicContext(p, 12)
        if family == "critical":
            f = eisenstein_critical(p, k, i, 200, ctx)
        else:
            f = eisenstein_ordinary(WeightPoint.classical(p, k, i), 200, ctx)
        assert verify_eigensystem(f).all_passed
        for n0 in (2, 6, 13, p, p * p, 77, 199, 200):
            for digit in (0, 3):
                coeffs = list(f.coeffs)
                coeffs[n0] = coeffs[n0] + PadicNumber.from_int(p**digit, ctx)
                bad = QExpansion(ctx, f.weight, f.char_exponent, tuple(a.state for a in coeffs))
                rep = verify_eigensystem(bad)
                assert rep.checks == index_order_report(bad).checks, (n0, digit)
                # a_199 is read by no check at M = 200: no l <= 20 divides 199,
                # and 199 l > 200
                assert rep.all_passed == (n0 == 199)

    def test_requires_normalization(self):
        f = _crit_54()
        with pytest.raises(ValueError, match="normalized"):
            verify_eigensystem(_scale(f, PadicNumber.from_int(2, CTX)))

    def test_short_truncation_names_the_index(self):
        # T_19 reads a_19, which a truncation at 10 does not hold
        f = eisenstein_critical(5, 4, 0, 10, CTX)
        with pytest.raises(ValueError, match="terms = 10 is below 19"):
            verify_eigensystem(f)


def _reference_twin_report(crit):
    """theta_twin_check rebuilt: each twin lifted in full by theta_pow, every
    index n >= 1 where it disagrees with ``crit`` found by the agreement
    exponent, and the first of them per convention."""
    ctx, k, i, M = crit.ctx, crit.weight, crit.char_exponent, crit.truncation
    p, P = ctx.p, ctx.powers
    conventions = {"inverse": (-i) % (p - 1), "direct": i}
    mism = {}
    for label, e in conventions.items():
        tw = WeightPoint.classical(p, 2 - k, e)
        lifted = theta_pow(QExpansion(ctx, tw.k, tw.i,
                                      _ordinary_states(tw, M, ctx, state_zero(ctx.precision))),
                           k - 1)
        fails = [n for n in range(1, M + 1)
                 if state_agreement(P, a := lifted.states[n], c := crit.states[n])
                 < min(a[0] + a[2], c[0] + c[2])]
        mism[label] = fails[0] if fails else None
    matched = tuple(label for label, bad in mism.items() if bad is None)
    return TwinCheckReport(matched, mism, len(set(conventions.values())) == 1,
                           crit.coeff(0).is_zero_to_precision)


def _twin_grid():
    """Critical series at p in {5, 7, 13}, k = 2..7, every admissible i,
    M in {20, 60} and N in {2, 20}."""
    for p in (5, 7, 13):
        for N in (2, 20):
            ctx = PadicContext(p, N)
            for k in range(2, 8):
                for i in range(k % 2, p - 1, 2):
                    if (k, i) != (2, 0):
                        for M in (20, 60):
                            yield eisenstein_critical(p, k, i, M, ctx)


class TestThetaTwin:
    def test_stream_gives_the_report_of_the_full_lift(self):
        # stopping each twin at its first mismatch keeps every verdict and
        # every first mismatching index of the full lift
        failing = 0
        for crit in _twin_grid():
            want = _reference_twin_report(crit)
            assert theta_twin_check(crit) == want, (crit.ctx.p, crit.weight,
                                                    crit.char_exponent, crit.truncation)
            failing += "inverse" not in want.matched
        assert failing > 0

    def test_stream_builds_each_twin_only_to_its_first_mismatch(self, monkeypatch):
        # a failing convention yields a_0..a_(first mismatch), a matching one
        # a_0..a_M
        import eiszeta.qexp as qexp_mod

        real = qexp_mod._ordinary_states
        yielded = {}

        def counting(w, M, ctx, a0):
            yielded[w.i] = 0
            for a in real(w, M, ctx, a0):
                yielded[w.i] += 1
                yield a

        monkeypatch.setattr(qexp_mod, "_ordinary_states", counting)
        stopped = 0
        for crit in _twin_grid():
            yielded.clear()
            rep = theta_twin_check(crit)
            p, i, M = crit.ctx.p, crit.char_exponent, crit.truncation
            for label, e in (("inverse", (-i) % (p - 1)), ("direct", i)):
                bad = rep.first_mismatch[label]
                assert yielded[e] == (M + 1 if bad is None else bad + 1), (p, crit.weight, i, M)
                stopped += bad is not None
        assert stopped > 0

    def test_trivial_character_conventions_coincide(self):
        rep = theta_twin_check(eisenstein_critical(5, 4, 0, 200, CTX))
        assert rep.passed
        assert rep.conventions_coincide
        assert set(rep.matched) == {"inverse", "direct"}
        assert rep.constant_term_annihilated

    def test_quadratic_character_conventions_coincide(self):
        # i = (p-1)/2 is its own inverse
        ctx = PadicContext(7, 12)
        rep = theta_twin_check(eisenstein_critical(7, 5, 3, 150, ctx))
        assert rep.passed
        assert rep.conventions_coincide

    def test_non_quadratic_character_selects_direct(self):
        # eps^2 != 1: only the eps convention realizes the identity
        ctx = PadicContext(7, 12)
        rep = theta_twin_check(eisenstein_critical(7, 5, 1, 100, ctx))
        assert rep.passed
        assert not rep.conventions_coincide
        assert rep.matched == ("direct",)
        assert rep.first_mismatch["inverse"] is not None

    def test_aborts_loudly_when_nothing_matches(self, monkeypatch):
        # sabotage a_2 of the twin's coefficient stream: no convention can
        # match, which must surface as an error rather than a report
        import eiszeta.qexp as qexp_mod

        real = qexp_mod._ordinary_states

        def corrupted(w, M, ctx, a0):
            for n, a in enumerate(real(w, M, ctx, a0)):
                if n == 2:
                    a = (PadicNumber.from_state(ctx, a) + PadicNumber.from_int(1, ctx)).state
                yield a

        monkeypatch.setattr(qexp_mod, "_ordinary_states", corrupted)
        with pytest.raises(TwinConventionError):
            theta_twin_check(eisenstein_critical(5, 4, 0, 30, CTX))

    def test_evaluates_no_l_value(self, monkeypatch):
        # theta^(k-1) annihilates the twin's constant term zeta_p(twin)/2, so
        # the check must not sum the L-series for it
        from eiszeta import kubota

        def refuse(*args):
            raise AssertionError("theta_twin_check evaluated an L-value")

        monkeypatch.setattr(kubota, "lp_series", refuse)
        for p, k, i in ((5, 4, 0), (7, 5, 1), (7, 5, 3)):
            ctx = PadicContext(p, 12)
            assert theta_twin_check(eisenstein_critical(p, k, i, 60, ctx)).passed

    @pytest.mark.parametrize("p,k,i,n", [(5, 4, 0, 12), (7, 5, 1, 9), (7, 5, 3, 30)])
    def test_corrupted_critical_series_names_the_index(self, p, k, i, n):
        # the check compares the series it is given: one wrong coefficient of
        # the critical side fails both conventions at exactly that index
        ctx = PadicContext(p, 12)
        crit = eisenstein_critical(p, k, i, 30, ctx)
        coeffs = list(crit.coeffs)
        coeffs[n] = coeffs[n] + PadicNumber.from_int(1, ctx)
        bad = QExpansion(ctx, crit.weight, crit.char_exponent, tuple(a.state for a in coeffs))
        with pytest.raises(TwinConventionError) as err:
            theta_twin_check(bad)
        assert f"'direct': {n}" in str(err.value)
        assert "'inverse': " in str(err.value)


class TestDump:
    def test_dump_format(self):
        f = eisenstein_critical(5, 4, 0, 6, CTX)
        lines = dump_lines(f)
        assert len(lines) == 7
        assert lines[0].startswith("0\tzero\t-\tO(5^")
        n, val, digits, tail = lines[2].split("\t")
        assert (n, val) == ("2", "0")
        assert digits.split(",")[0] == "4"  # 9 = 4 + 1*5
        assert tail == "O(5^16)"


# -- independent oracle for the Hecke-recursion builder -----------------------


def _oracle_series(ctx, weight, i, M, a0, prime_power):
    """Coefficients from a prime-power table by multiplicativity."""
    coeffs = [a0, PadicNumber.from_int(1, ctx)] + [None] * (M - 1)
    spf = smallest_prime_factors(M)
    for n in range(2, M + 1):
        l, r, m = spf[n], 0, n
        while m % l == 0:
            m, r = m // l, r + 1
        alr = prime_power(l, r)
        coeffs[n] = alr if m == 1 else alr * coeffs[m]
    return QExpansion(ctx, weight, i, tuple(a.state for a in coeffs))


def _oracle_critical(p, k, i, M, ctx):
    """a_(p^r) = p^(r(k-1)) as one power; a_(l^r) from a three-term table."""
    eps, one = TeichCharacter(p, i), PadicNumber.from_int(1, ctx)
    tables = {}

    def prime_power(l, r):
        if l == p:
            return PadicNumber.from_int(p, ctx) ** (r * (k - 1))
        lk = PadicNumber.from_int(l, ctx) ** (k - 1)
        tab = tables.setdefault(l, [one, eps.value(l, ctx) + lk])
        while len(tab) <= r:
            tab.append(tab[1] * tab[-1] - eps.value(l, ctx) * lk * tab[-2])
        return tab[r]

    return _oracle_series(ctx, k, i % (p - 1), M, ctx.zero(), prime_power)


def _oracle_ordinary(w, M, ctx):
    """a_(l^r) as the geometric sum of (w(l)/l)^t for t <= r, with
    w(l) = omega^i(l) l^k; a_(p^r) = 1."""
    one = PadicNumber.from_int(1, ctx)

    def prime_power(l, r):
        if l == w.p:
            return one
        x = teichmuller(l, ctx) ** w.i * PadicNumber.from_int(l, ctx) ** (w.k - 1)  # w(l)/l
        total = one
        for t in range(1, r + 1):
            total = total + x**t
        return total

    return _oracle_series(ctx, w.k, w.i, M, ctx.zero(), prime_power)


def _outcome(build):
    try:
        return dump_lines(build())
    except ArithmeticError as e:  # no surviving precision at N = 1
        return type(e).__name__


class TestBuilderAgainstOracle:
    def test_dumps_are_byte_identical(self):
        # the critical series, the ordinary series and both twin conventions,
        # at low and high precision
        cancelled = 0
        for p, ks, M in ((3, (3, 4, 5), 60), (5, (2, 3, 4), 60), (7, (3, 4), 60),
                         (37, (4,), 40)):
            for N in (1, 2, 3, 12):
                ctx = PadicContext(p, N)
                for k in ks:
                    for i in range(k % 2, p - 1, 2):
                        if (k, i) == (2, 0):
                            continue
                        weights = [WeightPoint.classical(p, k, i)] + [
                            WeightPoint.classical(p, 2 - k, e) for e in {i, (-i) % (p - 1)}]
                        cases = [(lambda: eisenstein_critical(p, k, i, M, ctx),
                                  lambda: _oracle_critical(p, k, i, M, ctx))]
                        cases += [(lambda w=w: QExpansion(
                                       ctx, w.k, w.i, _ordinary_states(w, M, ctx, state_zero(N))),
                                   lambda w=w: _oracle_ordinary(w, M, ctx)) for w in weights]
                        for build, oracle in cases:
                            got = _outcome(build)
                            assert got == _outcome(oracle), (p, N, k, i)
                            if not isinstance(got, str):
                                cancelled += sum(
                                    1 for l in (2, 3, 5, 7, 11, 13) if l != p
                                    and got[l].split("\t")[1] not in ("0", "zero"))
        # some a_l vanish mod p (e.g. l = 2 at p = 3), so the recursion runs
        # through cancelled coefficients
        assert cancelled > 0


def _divisor_sum(p, N, n, term):
    """The state of the sum of term(d) over the divisors d of n, a term of
    None standing for zero."""
    P, total = powers(p, N), None
    for d in range(1, n + 1):
        t = term(d) if n % d == 0 else None
        if t is not None:
            total = t if total is None else state_add(P, N, total, t)
    return total


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 13]), N=st.sampled_from([1, 3, 12]),
           k=st.integers(2, 7), M=st.integers(1, 60), data=st.data())
    def test_coefficients_are_divisor_sums(self, p, N, k, M, data):
        # every a_n, n >= 1, against its closed form, where eps = omega^i is a
        # character mod p (so eps(m) = 0 when p | m, also for i = 0):
        #   critical:  sum_(d|n) eps(n/d) d^(k-1);
        #   ordinary at weight kw and character omega^e:
        #              sum_(d|n, p∤d) omega^e(d) d^(kw-1),
        # at (k, i) and at the twin weight 2 - k under both conventions
        exponents = [i for i in range(k % 2, p - 1, 2) if (k, i) != (2, 0)]
        assume(exponents)
        i = data.draw(st.sampled_from(exponents))
        ctx = PadicContext(p, N)
        P = ctx.powers

        def critical(n):
            return _divisor_sum(p, N, n, lambda d: None if (n // d) % p == 0 else state_mul(
                P, state_char(P, N, i, n // d, 0), state_of_int(P, N, d ** (k - 1))))

        def ordinary(kw, e):
            return lambda n: _divisor_sum(
                p, N, n, lambda d: None if d % p == 0 else state_char(P, N, e, d, kw - 1))

        cases = [("critical", eisenstein_critical(p, k, i, M, ctx), critical)]
        for kw, e in ((k, i), (2 - k, -i), (2 - k, i)):
            w = WeightPoint.classical(p, kw, e)
            cases.append((f"ordinary {kw},{w.i}",
                           QExpansion(ctx, w.k, w.i, _ordinary_states(w, M, ctx, state_zero(N))),
                           ordinary(kw, e)))
        for label, f, closed in cases:
            for n in range(1, M + 1):
                assert state_eq(P, f.states[n], closed(n)), (label, p, N, k, i, M, n)


class TestBuildsOnStates:
    def test_padic_numbers_made_do_not_grow_with_the_truncation(self, monkeypatch):
        # the builders compute on int states: a PadicNumber is made only at
        # the edges, so their number is the same at M = 50 and at M = 400
        real = PadicNumber.from_state.__func__
        made = []

        def counting(cls, *args):
            made.append(1)
            return real(cls, *args)

        monkeypatch.setattr(PadicNumber, "from_state", classmethod(counting))
        twin = WeightPoint.classical(5, 4, 2).twin()
        counts = {}
        for M in (50, 400):
            ctx = PadicContext(5, 20)
            for name, build in (("crit", lambda: eisenstein_critical(5, 4, 2, M, ctx)),
                                ("ord", lambda: QExpansion(ctx, twin.k, twin.i, _ordinary_states(
                                    twin, M, ctx, state_zero(ctx.precision))))):
                made.clear()
                build()
                counts[name, M] = len(made)
        assert counts["crit", 50] == counts["crit", 400], counts
        assert counts["ord", 50] == counts["ord", 400], counts

    def test_checks_make_no_padic_number(self, monkeypatch):
        # the a_1 = 1 test of verify_eigensystem and the constant-term test
        # of theta_twin_check read states, like every comparison they make
        ctx = PadicContext(7, 20)
        crit = eisenstein_critical(7, 4, 2, 200, ctx)
        ordinary = eisenstein_ordinary(WeightPoint.classical(7, 4, 2), 200, ctx)
        real = PadicNumber.from_state.__func__
        made = []

        def counting(cls, *args):
            made.append(1)
            return real(cls, *args)

        monkeypatch.setattr(PadicNumber, "from_state", classmethod(counting))
        assert verify_eigensystem(crit).all_passed
        assert verify_eigensystem(ordinary).all_passed
        assert theta_twin_check(crit).passed
        assert made == []


class TestOneSieve:
    def test_a_scan_sieves_once(self, monkeypatch):
        # every series of a scan shares M, so the builder's one-entry plan
        # cache reads the sieve once, and the checks read their primes from a
        # constant; the plan is cleared first, or a plan left by an earlier
        # test would leave the sieve unread
        import eiszeta.qexp as qexp_mod

        listed, sieved = [], []
        monkeypatch.setattr(qexp_mod, "primes_up_to", lambda b: listed.append(b) or primes_up_to(b))
        monkeypatch.setattr(qexp_mod, "smallest_prime_factors",
                            lambda b: sieved.append(b) or smallest_prime_factors(b))
        qexp_mod._eigen_plan.cache_clear()
        assert write_scan(scan_records(5, 23, 2, 7), io.StringIO()) == 257
        assert sieved == [200] and listed == []

    def test_primes_are_read_from_the_sieve(self):
        want = [n for n in range(2101) if is_prime(n)]
        for b in range(-1, 2101):
            assert primes_up_to(b) == [q for q in want if q <= b], b
        spf = smallest_prime_factors(2100)
        assert isinstance(spf, tuple) and len(spf) == 2101


def _reference_states(ctx, M, a0, a_p, alpha, beta):
    """The builder's states with every a_l and every Hecke back-factor a fresh
    state_char call, and no table: a_l = alpha(l) + beta(l), where (e, n)
    stands for l -> omega^e(l) l^n."""
    p, N, P = ctx.p, ctx.precision, ctx.powers
    (ea, na), (eb, nb) = alpha, beta
    c = [a0, state_of_int(P, N, 1)]
    for n, l, x, y in _eigen_plan(M):
        if not l:
            a = state_mul(P, c[x], c[y])
        elif n == l:
            a = a_p if l == p else state_add(P, N, state_char(P, N, ea, l, na),
                                             state_char(P, N, eb, l, nb))
        elif l == p:
            a = state_mul(P, c[x], a_p)
        else:
            back = state_neg(P, state_char(P, N, ea + eb, l, na + nb))
            a = state_add(P, N, state_mul(P, c[l], c[x]), state_mul(P, back, c[y]))
        c.append(a)
    return tuple(c)


def _states_or_error(build):
    try:
        return tuple(build())
    except ArithmeticError as e:  # no surviving precision at low N
        return type(e).__name__


class TestPrimePowerTable:
    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 13, 23]), N=st.sampled_from([1, 2, 20]),
           k=st.integers(2, 13), M=st.integers(1, 200), data=st.data())
    def test_states_are_those_of_state_char(self, p, N, k, M, data):
        # the critical series, the ordinary series and the twin at weight
        # 2 - k under both conventions: every state, valuation and rel
        # included, is the one of a builder that calls state_char per prime
        exponents = [i for i in range(k % 2, p - 1, 2) if (k, i) != (2, 0)]
        assume(exponents)
        i = data.draw(st.sampled_from(exponents))
        ctx = PadicContext(p, N)
        one = state_of_int(ctx.powers, N, 1)
        cases = [(lambda: eisenstein_critical(p, k, i, M, ctx).states,
                  lambda: _reference_states(ctx, M, state_zero(N), (k - 1, 1, N), (i, 0),
                                            (0, k - 1)))]
        for kw, e in ((k, i), (2 - k, -i), (2 - k, i)):
            w = WeightPoint.classical(p, kw, e)
            cases.append((lambda w=w: _ordinary_states(w, M, ctx, state_zero(N)),
                          lambda w=w: _reference_states(ctx, M, state_zero(N), one, (0, 0),
                                                        (w.i, w.k - 1))))
        for build, reference in cases:
            assert _states_or_error(build) == _states_or_error(reference), (p, N, k, i, M)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 13, 23]), N=st.sampled_from([1, 2, 20]),
           r=st.integers(-13, 13), M=st.integers(1, 200))
    def test_table_holds_the_states_of_n_to_the_r(self, p, N, r, M):
        # every entry, p | n and r <= 0 included, is the state of n^r formed
        # from n = u p^v as u^r p^(r v), without the plan
        table = _index_powers(p, N, r, M)
        assert len(table) == M + 1 and table[0] == state_zero(N)
        P = powers(p, N)
        for n in range(1, M + 1):
            v, u, rel = state_of_int(P, N, n)
            assert table[n] == (r * v, pow(u, r, P[N]), rel), (p, N, r, n)

    def test_cache_stays_within_its_bound(self):
        # the bound README "Caches" states: the points of five k read r = k - 1
        # and r = 1 - k, and the table is indexed by n
        assert _index_powers.cache_info().maxsize == INDEX_POWERS_CACHE_SIZE == 2
        _index_powers.cache_clear()
        ctx = PadicContext(7, 10)
        for k in range(3, 8):
            eisenstein_critical(7, k, k % 2, 60, ctx)
            theta_twin_check(eisenstein_critical(7, k, k % 2, 60, ctx))
            assert _index_powers.cache_info().currsize <= 2
        assert _index_powers.cache_info().misses == 10
        table = _index_powers(7, 10, -4, 60)
        assert len(table) == 61
        assert table[7] == (-4, 1, 10) and table[49] == (-8, 1, 10)
        assert all(table[l] == (0, pow(l, -4, 7**10), 10)
                   for l in primes_up_to(60) if l != 7)

    def test_a_scan_builds_each_table_at_the_first_point_of_its_run(self):
        # a (p, k) run reads the index powers for r = k - 1 and 1 - k and the
        # Bernoulli values for n = k: the tables miss only at the first point
        # of a run, twice, so the two-entry cache never returns to a key it
        # has left, and the Bernoulli values once per run (at its first point
        # with i != 0, since i = 0 gives the trivial character, whose
        # B_(k,chi) is the exact B_k)
        tables, values = _index_powers, bernoulli._bernoulli_values
        tables.cache_clear()
        values.cache_clear()
        misses = []  # (p, k, table misses, value misses) of each point

        def counting(records):
            before = (0, 0)
            for rec in records:
                now = (tables.cache_info().misses, values.cache_info().misses)
                misses.append((rec["p"], rec["k"], now[0] - before[0], now[1] - before[1]))
                before = now
                yield rec

        assert write_scan(counting(scan_records(5, 23, 6, 7)), io.StringIO()) == 88
        runs = [n for n, m in enumerate(misses) if n == 0 or misses[n - 1][:2] != m[:2]]
        assert len(runs) == len({m[:2] for m in misses}) == 14
        assert all(m[2] == 0 for n, m in enumerate(misses) if n not in runs)
        assert all(misses[n][2] == 2 for n in runs)
        for start, end in zip(runs, runs[1:] + [len(misses)]):
            assert sum(m[3] for m in misses[start:end]) == 1, misses[start]
        assert sum(m[2] for m in misses) == 7 * 4
