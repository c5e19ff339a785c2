"""q-expansions: the two Eisenstein families, Hecke and theta operators, and
the eigensystem / twin verifications."""

import random
from fractions import Fraction

import pytest

from eiszeta.analyzer import scan_records
from eiszeta.characters import TeichCharacter
from eiszeta.kubota import AdmissibilityError, WeightPoint, zeta_weight
from eiszeta.padic import PadicContext, PadicNumber, state_agreement, state_mul, teichmuller
from eiszeta.primes import primes_up_to, smallest_prime_factors
from eiszeta.qexp import (
    THETA_CACHE_SIZE,
    OperatorCheck,
    QExpansion,
    _ordinary,
    _theta_multipliers,
    dump_lines,
    eisenstein_critical,
    eisenstein_ordinary,
    hecke_Tl,
    hecke_Up,
    theta_pow,
    theta_twin_check,
    verify_eigensystem,
)

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
                      (f.char_exponent + g.char_exponent) % (p - 1), tuple(coeffs))


def _scale(f, c, order=None):
    """c times f, truncated at ``order`` (default: f's own truncation)."""
    coeffs = f.coeffs if order is None else f.coeffs[: order + 1]
    return QExpansion(f.ctx, f.weight, f.char_exponent, tuple(c * a for a in coeffs))


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
        up = hecke_Up(f)
        scaled = _scale(f, PadicNumber.from_int(125, CTX), up.truncation)
        assert up.first_mismatch(scaled) is None

    def test_tl_eigenvalue_on_critical(self):
        f = _crit_54()
        t2 = hecke_Tl(f, 2)
        scaled = _scale(f, PadicNumber.from_int(9, CTX), t2.truncation)
        assert t2.first_mismatch(scaled) is None

    def test_tl_rejects_p(self):
        with pytest.raises(ValueError):
            hecke_Tl(_crit_54(), 5)

    def test_tl_on_constant(self):
        # degenerate sanity: a constant c maps to (1 + eps(l) l^(k-1)) c
        c = PadicNumber.from_int(3, CTX)
        zero = PadicNumber.from_int(0, CTX)
        f = QExpansion(CTX, 4, 0, (c,) + (zero,) * 20)
        t2 = hecke_Tl(f, 2)
        assert t2.coeff(0) == c * PadicNumber.from_int(1 + 2**3, CTX)

    def test_commutativity_on_arbitrary_expansion(self):
        rng = random.Random(11)
        coeffs = tuple(
            PadicNumber.from_int(rng.randrange(1, 5**6), CTX) for _ in range(121)
        )
        f = QExpansion(CTX, 3, 1, coeffs)
        for l, m in ((2, 3), (2, 7), (3, 7)):
            a = hecke_Tl(hecke_Tl(f, l), m)
            b = hecke_Tl(hecke_Tl(f, m), l)
            assert a.first_mismatch(b) is None, (l, m)


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
        f = QExpansion(CTX, 2, 0, fc)
        g = QExpansion(CTX, 4, 2, gc)
        lhs = theta_pow(_multiply(f, g), 1)
        rhs_a = _multiply(theta_pow(f, 1), g)
        rhs_b = _multiply(f, theta_pow(g, 1))
        for n in range(25):
            assert lhs.coeff(n) == rhs_a.coeff(n) + rhs_b.coeff(n), n

    def test_cached_multipliers_match_padic_products(self):
        # two truncations that share (p, N, r) read different cache entries,
        # and a repeated call reads its entry: every coefficient is n^r a_n
        # formed with PadicNumbers
        ctx = PadicContext(7, 10)
        f = eisenstein_ordinary(WeightPoint.classical(7, 5, 1).twin(), 90, ctx)
        _theta_multipliers.cache_clear()
        for M in (40, 40, 90):
            g = QExpansion(ctx, f.weight, f.char_exponent, f.coeffs[: M + 1])
            th = theta_pow(g, 4)
            assert th.truncation == M and th.weight == g.weight + 8
            for n in range(M + 1):
                want = PadicNumber.from_int(n**4, ctx) * g.coeff(n)
                assert th.states[n] == want.state, (M, n)
        info = _theta_multipliers.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_multiplier_cache_stays_within_its_bound(self):
        # the bound README "Caches" states
        assert _theta_multipliers.cache_info().maxsize == THETA_CACHE_SIZE == 1
        _theta_multipliers.cache_clear()
        f = _crit_54()
        for r in range(1, 5):
            theta_pow(f, r)
            assert _theta_multipliers.cache_info().currsize == 1

    def test_a_scan_uses_each_multiplier_key_in_one_run(self, monkeypatch):
        # the one-entry cache misses once per key only if a scan never
        # returns to a key it has left
        import eiszeta.qexp as qexp_mod

        keys = []
        cached = qexp_mod._theta_multipliers

        def recording(*key):
            keys.append(key)
            return cached(*key)

        monkeypatch.setattr(qexp_mod, "_theta_multipliers", recording)
        list(scan_records(5, 11, k_from=2, k_to=5, precision=8, terms=30))
        runs = [key for n, key in enumerate(keys) if n == 0 or keys[n - 1] != key]
        assert len(set(keys)) > 1 and len(runs) == len(set(keys)) < len(keys)


def _reference_checks(f):
    """The operator checks of verify_eigensystem, rebuilt: every index where
    the image of T_l or U_p disagrees with a_l a_n, compared by the agreement
    exponent, and the first of them."""
    p, a = f.ctx.p, f.states
    checks = []
    for l in [l for l in primes_up_to(20) if l != p] + [p]:
        image = hecke_Up(f) if l == p else hecke_Tl(f, l)
        fails = []
        for n, c in enumerate(image.states):
            prod = state_mul(p, a[l], a[n])
            if state_agreement(p, c, prod) < min(c[0] + c[2], prod[0] + prod[2]):
                fails.append(n)
        name = f"U_{l}" if l == p else f"T_{l}"
        checks.append(OperatorCheck(name, not fails, fails[0] if fails else None))
    return tuple(checks)


class TestVerifyEigensystem:
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
        bad = QExpansion(CTX, f.weight, f.char_exponent, tuple(coeffs))
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
        # operator checks a reference builds from the images of T_l and U_p,
        # scanning every n and comparing by the agreement exponent
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
                bad = QExpansion(ctx, f.weight, f.char_exponent, tuple(coeffs))
                rep = verify_eigensystem(bad)
                want = _reference_checks(bad)
                assert rep.checks == want, (n0, digit)
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


class TestThetaTwin:
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
        # sabotage the ordinary constructor: no convention can match, which
        # must surface as an error rather than a report
        import eiszeta.qexp as qexp_mod
        from eiszeta.qexp import TwinConventionError

        real = qexp_mod._ordinary

        def corrupted(w, M, ctx, a0):
            f = real(w, M, ctx, a0)
            coeffs = list(f.coeffs)
            coeffs[2] = coeffs[2] + PadicNumber.from_int(1, ctx)
            return QExpansion(ctx, f.weight, f.char_exponent, tuple(coeffs))

        monkeypatch.setattr(qexp_mod, "_ordinary", corrupted)
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
        from eiszeta.qexp import TwinConventionError

        ctx = PadicContext(p, 12)
        crit = eisenstein_critical(p, k, i, 30, ctx)
        coeffs = list(crit.coeffs)
        coeffs[n] = coeffs[n] + PadicNumber.from_int(1, ctx)
        bad = QExpansion(ctx, crit.weight, crit.char_exponent, tuple(coeffs))
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
    return QExpansion(ctx, weight, i, tuple(coeffs))


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
                        cases += [(lambda w=w: _ordinary(w, M, ctx, ctx.zero()),
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
                                ("ord", lambda: _ordinary(twin, M, ctx, ctx.zero()))):
                made.clear()
                build()
                counts[name, M] = len(made)
        assert counts["crit", 50] == counts["crit", 400], counts
        assert counts["ord", 50] == counts["ord", 400], counts
