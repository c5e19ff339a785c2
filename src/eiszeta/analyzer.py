"""Full analysis of a critical Eisenstein point: eigenvalue data, the zeta
value at the twin weight, geometric verdicts, and the supporting identity
checks, plus batch scans emitting JSON lines.

Verdict semantics:

* smoothness holds unconditionally at every critical Eisenstein point, so
  ``verdict_smooth`` is constant true and carries its justification string;
* etaleness of the weight map is equivalent to zeta_p(twin) != 0, which is
  provable when p is regular but only checkable at working precision when p
  is irregular.  The verdict is therefore three-valued
  (etale_provably / etale_at_precision / zero_to_precision) and never claims
  a definite zero: nonvanishing is expected but not known in general.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .archorders import selmer_dims
from .bernoulli import check_bernoulli_index
from .kubota import (
    IrregularScreenError,
    LValue,
    WeightPoint,
    check_irregular_prime,
    even_branch,
    irregular_branches,
    lp_interpolation,
    zeta_weight,
)
from .padic import (
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    format_padic,
    state_agreement,
    state_eq,
    state_mul,
    state_of_int,
)
from .primes import is_prime
from .qexp import (
    TwinConventionError,
    check_terms,
    eisenstein_critical,
    eisenstein_ordinary,
    theta_twin_check,
    verify_eigensystem,
)

__all__ = [
    "CriticalPointReport",
    "EtaleVerdict",
    "CheckResult",
    "PrecisionBudgetError",
    "analyze_point",
    "check_budget",
    "scan_records",
    "write_scan",
    "report_to_dict",
    "render_text",
    "padic_to_dict",
    "MAX_PRECISION",
    "MAX_TERMS",
]

MAX_PRECISION = 500
MAX_TERMS = 20000

SMOOTH_REASON = (
    "critical Eisenstein points are smooth points of the eigencurve "
    "(the local ring is a discrete valuation ring)"
)
DEGREE_NOTE = (
    "the weight map has the same degree at the critical point as at its "
    "ordinary twin; a numeric degree is not claimed when the twin zeta "
    "value is zero to precision"
)


class PrecisionBudgetError(RuntimeError):
    """Requested precision or truncation exceeds the configured ceilings."""


@dataclass(frozen=True)
class EtaleVerdict:
    status: str  # etale_provably | etale_at_precision | zero_to_precision
    precision: int
    detail: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CriticalPointReport:
    p: int
    k: int
    i: int
    slope: int
    up_eigenvalue: PadicNumber
    twin: WeightPoint
    zeta_twin: LValue
    verdict_smooth: bool
    smooth_reason: str
    verdict_etale: EtaleVerdict
    degree_note: str
    selmer_dims: tuple[int, int]
    galois_local: str
    checks: tuple[CheckResult, ...]
    precision: int
    terms: int

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_budget(precision: int, terms: int | None = None):
    """Refuse, before any arithmetic, a count above the ceilings (a lost budget)
    or, when ``terms`` is given, below 1 (an inadmissible ValueError); ``terms``
    is None for a command that builds no q-series."""
    if precision > MAX_PRECISION or (terms or 0) > MAX_TERMS:
        given = f"precision {precision}" + ("" if terms is None else f" / terms {terms}")
        raise PrecisionBudgetError(f"{given} exceed ceilings ({MAX_PRECISION}, {MAX_TERMS})")
    if terms is not None and (precision < 1 or terms < 1):
        raise ValueError("precision and terms must be positive")


def _check_point(p: int, k: int, i: int, terms: int) -> WeightPoint:
    """The checks a point passes before any arithmetic, in order: p is within
    the Bernoulli ceiling, the truncation reaches every coefficient the
    eigensystem checks read, (p, k, i) is a critical point, and k is within
    the Bernoulli ceiling: the interpolation check reads B_(k,eps), which
    generalized_bernoulli refuses past the ceiling (for a nontrivial eps it
    reads no B_m past m = N + 1, but the trivial eps reads the exact B_k)."""
    check_irregular_prime(p)
    check_terms(p, terms)
    w = WeightPoint.critical(p, k, i)
    check_bernoulli_index(k)
    return w


def analyze_point(
    p: int,
    k: int,
    i: int,
    precision: int = 20,
    terms: int = 200,
) -> CriticalPointReport:
    """Analyze the critical Eisenstein point at (p, k, eps = omega^i)."""
    check_budget(precision, terms)
    w = _check_point(p, k, i, terms)
    ctx = PadicContext(p, precision)
    twin = w.twin()
    zeta_twin = zeta_weight(twin, ctx)

    if not irregular_branches(p):
        status, detail = "etale_provably", (
            f"p = {p} is regular, so zeta_p has no zeros and the "
            "weight map is etale at every critical Eisenstein point")
    elif not zeta_twin.value.is_zero_to_precision:
        status, detail = "etale_at_precision", (
            f"zeta_p(twin) is nonzero at the carried precision "
            f"(valuation {zeta_twin.value.valuation})")
    else:
        status, detail = "zero_to_precision", (
            "zeta_p(twin) is indistinguishable from zero at the carried "
            "precision; no definite zero is claimed")
    verdict = EtaleVerdict(status=status, precision=zeta_twin.precision_achieved, detail=detail)

    crit = eisenstein_critical(p, k, i, terms, ctx)
    ordinary = eisenstein_ordinary(w, terms, ctx)

    checks = []
    for name, label, series in (("crit", "critical", crit), ("ord", "ordinary", ordinary)):
        rep = verify_eigensystem(series)
        checks.append(
            CheckResult(
                f"eigensystem_{name}",
                rep.all_passed,
                f"{label} series is an eigenform for all checked operators"
                if rep.all_passed
                else f"failures: {[(c.operator, c.first_fail_index) for c in rep.failing()]}",
            )
        )
    twin_rep = theta_twin_check(crit)
    checks.append(
        CheckResult(
            "theta_twin",
            twin_rep.passed,
            f"theta^(k-1) identity realized under convention(s) "
            f"{','.join(twin_rep.matched)}"
            + ("; conventions coincide" if twin_rep.conventions_coincide else ""),
        )
    )
    # constant term of the ordinary series against the exact interpolation route
    P = ctx.powers
    interp = lp_interpolation(k, w.branch, ctx).value.state
    series_2a0 = state_mul(P, ordinary.states[0], state_of_int(P, precision, 2))
    agree = state_agreement(P, series_2a0, interp)
    ok = state_eq(P, series_2a0, interp)
    checks.append(
        CheckResult(
            "zeta_constant_term",
            ok,
            f"series route and interpolation route agree modulo p^{agree}"
            if ok
            else f"routes disagree beyond p^{agree}",
        )
    )

    dims = selmer_dims(k, i, p)
    galois_local = (
        f"extension of eps*u^(-1) by twist(1-{k})*u, where u is the unramified "
        f"character sending geometric Frobenius to U_p/p^{k - 1}"
    )

    return CriticalPointReport(
        p=p,
        k=k,
        i=i % (p - 1),
        slope=k - 1,
        up_eigenvalue=crit.coeff(p),  # a_p = p^(k-1)
        twin=twin,
        zeta_twin=zeta_twin,
        verdict_smooth=True,
        smooth_reason=SMOOTH_REASON,
        verdict_etale=verdict,
        degree_note=DEGREE_NOTE,
        selmer_dims=dims,
        galois_local=galois_local,
        checks=tuple(checks),
        precision=precision,
        terms=terms,
    )


# -- serialization -----------------------------------------------------------


def padic_to_dict(x: PadicNumber) -> dict:
    if x.is_zero_to_precision:
        return {"zero_to_precision": x.min_valuation}
    return {
        "valuation": x.valuation,
        "unit_digits_base_p": x.digits(),
        "precision": x.abs_precision,
    }


def _lvalue_to_dict(lv: LValue) -> dict:
    return {
        "value": padic_to_dict(lv.value),
        "branch": lv.branch,
        "argument": lv.argument,  # the int k - 1 of a twin
        "route": lv.route,
        "precision_achieved": lv.precision_achieved,
    }


def report_to_dict(r: CriticalPointReport) -> dict:
    return {
        "p": r.p,
        "k": r.k,
        "i": r.i,
        "slope": r.slope,
        "up_eigenvalue": padic_to_dict(r.up_eigenvalue),
        "twin": {"k": r.twin.k, "i": r.twin.i, "branch": r.twin.branch, "s": r.twin.s},
        "zeta_twin": _lvalue_to_dict(r.zeta_twin),
        "verdict_smooth": r.verdict_smooth,
        "smooth_reason": r.smooth_reason,
        "verdict_etale": {
            "status": r.verdict_etale.status,
            "precision": r.verdict_etale.precision,
            "detail": r.verdict_etale.detail,
        },
        "degree_note": r.degree_note,
        "selmer_dims": list(r.selmer_dims),
        "galois_local": r.galois_local,
        "checks": {c.name: {"passed": c.passed, "detail": c.detail} for c in r.checks},
        "precision": r.precision,
        "terms": r.terms,
    }


def render_text(r: CriticalPointReport) -> str:
    v = r.verdict_etale
    lines = [
        f"critical Eisenstein point: p = {r.p}, k = {r.k}, eps = omega^{r.i}",
        f"  slope                 : {r.slope}",
        f"  U_p eigenvalue        : {format_padic(r.up_eigenvalue)}",
        f"  twin weight           : {r.twin.describe()}",
        f"  zeta_p(twin)          : {format_padic(r.zeta_twin.value)}"
        f"  [route: {r.zeta_twin.route}, precision {r.zeta_twin.precision_achieved}]",
        f"  smooth                : {r.verdict_smooth}  ({r.smooth_reason})",
        f"  etale verdict         : {v.status} (precision {v.precision})",
        f"    {v.detail}",
        f"  degree note           : {r.degree_note}",
        f"  Selmer dimensions     : {r.selmer_dims}",
        f"  local Galois shape    : {r.galois_local}",
        "  checks:",
    ]
    for c in r.checks:
        lines.append(f"    {'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return "\n".join(lines)


# -- scanning ----------------------------------------------------------------


def scan_records(
    p_from: int,
    p_to: int,
    k_from: int | None = None,
    k_to: int | None = None,
    target_branch: int | None = None,
    precision: int = 20,
    terms: int = 200,
    irregular_only: bool = False,
) -> Iterator[dict]:
    """Deterministic stream of scan records, ordered by (p, k, i).

    Emits one ``irregular_branch`` record per zero-carrying branch of each
    prime, then (unless suppressed) one ``point`` record per admissible
    critical point in the k window: every exponent i, or with a
    ``target_branch`` J the one whose twin sits on branch J.

    The arguments are validated before the stream is returned, so a caller
    can reject a scan before opening its output: the k window's bounds,
    which come together or not at all, the budget, the target branch's
    parity, and in stream order the checks :func:`analyze_point` makes
    before any arithmetic (:func:`_check_point`), the Bernoulli ceiling also
    for a prime without points.
    """
    if (k_from is None) != (k_to is None):
        raise ValueError("k_from and k_to must be given together")
    if target_branch is not None:
        even_branch(target_branch)
    check_budget(precision, terms)
    ks = range(k_from, k_to + 1) if k_from is not None and not irregular_only else ()
    for p, points in _scan_plan(p_from, p_to, ks, target_branch):
        for k, i in points:
            _check_point(p, k, i, terms)
        check_irregular_prime(p)
    return _scan_stream(_scan_plan(p_from, p_to, ks, target_branch), precision, terms)


def _scan_plan(p_from, p_to, ks, target_branch):
    """(p, [(k, i), ...]) for each prime of a scan, in stream order: every
    exponent i (or, given a target branch, the one whose twin sits on it)
    of matching parity, without weight 2 with the trivial character.

    Primes are found one at a time, not by a sieve up to p_to, so the
    validation pass stops at the first prime past the Bernoulli ceiling
    without allocating for the rest of the window."""
    for p in range(max(p_from, 3), p_to + 1):
        if not is_prime(p):
            continue
        yield p, [(k, i) for k in ks
                  for i in (range(p - 1) if target_branch is None
                            else [(2 - k - target_branch) % (p - 1)])
                  if (k - i) % 2 == 0 and (k, i) != (2, 0)]


def _scan_stream(plan, precision, terms) -> Iterator[dict]:
    for p, points in plan:
        for j in irregular_branches(p):
            yield {
                "type": "irregular_branch",
                "p": p,
                "branch": j,
                "bernoulli_numerator_divisible": True,
            }
        for k, i in points:
            try:
                report = analyze_point(p, k, i, precision=precision, terms=terms)
            except (ValueError, PrecisionBudgetError, PrecisionLossError,
                    TwinConventionError, IrregularScreenError) as e:
                # the refusals the CLI reports, named by their point; the
                # class, and so the exit code, stays
                raise type(e)(f"p = {p}, k = {k}, i = {i}: {e}") from e
            yield {"type": "point", **report_to_dict(report)}


def write_scan(records: Iterator[dict], stream) -> int:
    """Serialize records as JSON lines (stable key order); returns the count."""
    n = 0
    for rec in records:
        stream.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        n += 1
    return n
