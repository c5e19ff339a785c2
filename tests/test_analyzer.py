"""The point analyzer, report structure, and scan stream."""

import io
import json

import pytest

from eiszeta.analyzer import (
    PrecisionBudgetError,
    _scan_plan,
    analyze_point,
    padic_to_dict,
    render_text,
    report_to_dict,
    scan_records,
    write_scan,
)
from eiszeta.kubota import AdmissibilityError, WeightPoint
from eiszeta.padic import PadicContext, PadicNumber, agreement_precision


class TestAnalyzePoint:
    def test_regular_showcase(self):
        r = analyze_point(5, 4, 0, precision=20, terms=200)
        assert r.verdict_smooth is True
        assert r.verdict_etale.status == "etale_provably"
        assert r.slope == 3
        assert r.up_eigenvalue == PadicNumber.from_int(125, PadicContext(5, 20))
        assert r.up_eigenvalue.valuation == r.slope
        assert r.selmer_dims == (1, 0)
        assert r.all_checks_passed
        assert r.zeta_twin.value.valuation == 0  # unit on a nontrivial branch

    def test_inadmissible_named(self):
        with pytest.raises(AdmissibilityError, match="weight 2 with trivial character"):
            analyze_point(5, 2, 0)
        with pytest.raises(AdmissibilityError, match="parity"):
            analyze_point(5, 4, 1)

    def test_critical_series_built_once(self, monkeypatch):
        # the theta-twin check compares the series the analyzer already built
        import eiszeta.analyzer as analyzer_mod
        import eiszeta.qexp as qexp_mod

        real = qexp_mod.eisenstein_critical
        calls = []

        def spy(*args):
            calls.append(args[:3])
            return real(*args)

        monkeypatch.setattr(analyzer_mod, "eisenstein_critical", spy)
        monkeypatch.setattr(qexp_mod, "eisenstein_critical", spy)
        r = analyze_point(7, 5, 1, precision=10, terms=30)
        assert r.check("theta_twin").passed
        assert calls == [(7, 5, 1)]

    @pytest.mark.parametrize("p,k,i", [(37, 4, 28), (7, 5, 1), (157, 4, 2)])
    def test_two_l_series_evaluations_per_point(self, monkeypatch, p, k, i):
        # zeta_p(twin) for the verdict and zeta_p(w) for the ordinary a_0;
        # the theta-twin check needs none
        import eiszeta.kubota as kubota_mod

        real = kubota_mod.lp_series
        calls = []

        def spy(s, j, ctx):
            calls.append((s, j))
            return real(s, j, ctx)

        monkeypatch.setattr(kubota_mod, "lp_series", spy)
        r = analyze_point(p, k, i)
        assert r.all_checks_passed
        assert len(calls) == 2, calls

    def test_budget(self):
        with pytest.raises(PrecisionBudgetError):
            analyze_point(5, 4, 0, precision=10**6)
        with pytest.raises(PrecisionBudgetError):
            analyze_point(5, 4, 0, terms=10**9)

    def test_irregular_branch_point(self):
        # (p=37, k=4, i=2) has twin branch 32, the irregular one
        r = analyze_point(37, 4, 2, precision=20, terms=60)
        assert r.twin.branch == 32
        assert r.verdict_etale.status in ("etale_at_precision", "zero_to_precision")
        # the computed value must be stable against a finer recomputation
        r2 = analyze_point(37, 4, 2, precision=30, terms=60)
        overlap = agreement_precision(r.zeta_twin.value, r2.zeta_twin.value)
        assert overlap >= min(r.zeta_twin.precision_achieved, 15)

    def test_verdict_coherence(self):
        # etale_provably never contradicts the direct computation
        for p, k, i in ((5, 4, 0), (7, 3, 1), (11, 6, 2), (13, 5, 3)):
            r = analyze_point(p, k, i, precision=14, terms=40)
            if r.verdict_etale.status == "etale_provably":
                assert not r.zeta_twin.value.is_zero_to_precision

    def test_degree_note_present(self):
        r = analyze_point(5, 4, 0, precision=12, terms=30)
        assert "same degree" in r.degree_note
        assert r.galois_local.startswith("extension of eps*u^(-1)")

    def test_twin_on_a_zero_branch_is_zero_to_precision(self):
        # 37 is irregular with zero branch 32, where the twin of (4, 2) lies;
        # at N = 2 zeta_p(twin) keeps no digit, so the verdict is the
        # non-etale candidate of the criterion, and no zero is claimed
        r = analyze_point(37, 4, 2, precision=2, terms=60)
        assert r.twin.branch == 32
        assert r.zeta_twin.value.is_zero_to_precision
        assert r.verdict_etale.status == "zero_to_precision"
        assert r.verdict_etale.precision == 1
        assert r.verdict_etale.detail == (
            "zeta_p(twin) is indistinguishable from zero at the carried precision; "
            "no definite zero is claimed")
        assert len(r.checks) == 4 and r.all_checks_passed

    def test_branch_zero_twin_has_pole_valuation(self):
        # k + i = 2 mod (p-1) puts the twin on the trivial branch, where
        # values carry the pole factor: nonzero of valuation -1
        r = analyze_point(5, 6, 0, precision=14, terms=40)
        assert r.twin.branch == 0
        assert not r.zeta_twin.value.is_zero_to_precision
        assert r.zeta_twin.value.valuation == -1


class TestSerialization:
    def test_padic_to_dict(self):
        ctx = PadicContext(5, 6)
        d = padic_to_dict(PadicNumber.from_int(9, ctx))
        assert d == {"valuation": 0, "unit_digits_base_p": [4, 1, 0, 0, 0, 0], "precision": 6}
        z = padic_to_dict(ctx.zero())
        assert z == {"zero_to_precision": 6}

    def test_report_round_trips_through_json(self):
        r = analyze_point(5, 4, 0, precision=12, terms=30)
        d = report_to_dict(r)
        blob = json.dumps(d, sort_keys=True)
        back = json.loads(blob)
        assert back["p"] == 5
        assert back["slope"] == 3
        assert back["verdict_etale"]["status"] == "etale_provably"
        assert back["checks"]["theta_twin"]["passed"] is True
        assert back["selmer_dims"] == [1, 0]

    def test_render_text(self):
        r = analyze_point(5, 4, 0, precision=12, terms=30)
        text = render_text(r)
        assert "slope" in text
        assert "etale_provably" in text
        assert "PASS" in text


class TestScan:
    def test_irregular_records(self):
        recs = list(scan_records(3, 97, irregular_only=True))
        found = {(r["p"], r["branch"]) for r in recs}
        assert found == {(37, 32), (59, 44), (67, 58)}
        assert all(r["bernoulli_numerator_divisible"] for r in recs)

    def test_point_records_ordered(self):
        recs = list(
            scan_records(5, 7, k_from=3, k_to=4, precision=10, terms=20)
        )
        points = [(r["p"], r["k"], r["i"]) for r in recs if r["type"] == "point"]
        assert points == sorted(points)
        assert all(r["verdict_smooth"] for r in recs if r["type"] == "point")

    def test_empty_k_range(self):
        recs = list(scan_records(5, 7, k_from=5, k_to=4, precision=10, terms=20))
        assert [r for r in recs if r["type"] == "point"] == []

    def test_branch_targeted(self):
        recs = list(
            scan_records(
                5, 13, k_from=4, k_to=4, target_branch=2,
                precision=10, terms=20,
            )
        )
        for r in recs:
            if r["type"] == "point":
                assert r["twin"]["branch"] == 2

    def test_deterministic_stream(self):
        kw = dict(k_from=3, k_to=3, precision=10, terms=20)
        a, b = io.StringIO(), io.StringIO()
        write_scan(scan_records(5, 11, **kw), a)
        write_scan(scan_records(5, 11, **kw), b)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().strip()

    def test_cold_terms_give_the_warm_stream(self, monkeypatch):
        # the branch-free L-value terms are a cache, not an input: clearing
        # it before every point leaves the JSONL byte for byte as it is
        import eiszeta.analyzer as analyzer_mod
        import eiszeta.kubota as kubota_mod

        kw = dict(k_from=2, k_to=4, precision=12, terms=40)
        warm = io.StringIO()
        write_scan(scan_records(5, 13, **kw), warm)
        real = analyzer_mod.analyze_point

        def cold(*args, **kwargs):
            kubota_mod._branch_free_terms.cache_clear()
            return real(*args, **kwargs)

        monkeypatch.setattr(analyzer_mod, "analyze_point", cold)
        cleared = io.StringIO()
        write_scan(scan_records(5, 13, **kw), cleared)
        assert cleared.getvalue() == warm.getvalue()
        assert warm.getvalue().count('"type":"point"') > 20

    def test_bad_i_mode(self):
        # a lone k bound is refused, not read as an empty window
        for bounds in (dict(k_from=4), dict(k_to=4)):
            with pytest.raises(ValueError, match="k_from and k_to must be given together"):
                scan_records(5, 7, **bounds)
        # an odd target branch would leave no point to analyse; it is refused
        # when the records are requested, not when they are read
        for j in (3, -1):
            with pytest.raises(AdmissibilityError, match="branch exponent must be even"):
                scan_records(5, 13, k_from=4, k_to=4, target_branch=j)

    def test_plan_yields_exactly_the_critical_points(self):
        # the plan's filter and WeightPoint.critical must state one rule
        ks = range(2, 13)

        def critical(p, k, i):
            try:
                WeightPoint.critical(p, k, i)
            except AdmissibilityError:
                return False
            return True

        primes = []
        for p, points in _scan_plan(3, 31, ks, None):
            primes.append(p)
            assert points == [(k, i) for k in ks for i in range(p - 1) if critical(p, k, i)], p
            for target in range(0, p - 1, 2):
                [(q, points)] = _scan_plan(p, p, ks, target)
                exponents = [(k, (2 - k - target) % (p - 1)) for k in ks]
                assert q == p
                assert points == [(k, i) for k, i in exponents if critical(p, k, i)], (p, target)
        assert primes == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    @pytest.mark.parametrize("p,k,i,terms", [
        (5, 1, 1, 200),  # weight below 2
        (37, 4, 0, 30),  # truncation below a_p
        (2011, 4, 0, 2011),  # past the Bernoulli ceiling
    ])
    def test_scan_refuses_a_point_as_analyze_does(self, p, k, i, terms):
        with pytest.raises(ValueError) as by_analyze:
            analyze_point(p, k, i, precision=10, terms=terms)
        with pytest.raises(ValueError) as by_scan:
            scan_records(p, p, k_from=k, k_to=k, precision=10, terms=terms)
        assert type(by_scan.value) is type(by_analyze.value)
        assert str(by_scan.value) == str(by_analyze.value)
