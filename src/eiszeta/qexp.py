"""Truncated q-expansions, the theta operator, the critical / ordinary
Eisenstein families and the check that they are Hecke eigenforms.

A critical Eisenstein series of weight k and character eps = omega^i has
a_0 = 0, a_p = p^(k-1) and a_l = eps(l) + l^(k-1) for primes l != p; the
ordinary series at a weight-space point w has a_0 = zeta_p(w)/2, a_p = 1 and
a_l = 1 + w(l)/l.  Both are normalized eigenforms with the nebentypus factor
eps(l) l^(k-1) (for the ordinary series it equals w(l)/l), and one builder
extends them to every index by a_(p^r) = a_p^r, the Hecke recursion

    a_(l^r) = a_l a_(l^(r-1)) - eps(l) l^(k-1) a_(l^(r-2))  (l != p),

and multiplicativity across coprime indices.  Negative integer weights are
first class; they carry the ordinary twins of the critical points, and
theta^(k-1) (a_n -> n^(k-1) a_n) maps weight 2-k to weight k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, count, islice, repeat
from operator import not_

from .kubota import WeightPoint, zeta_weight
from .padic import (
    PadicContext,
    PadicNumber,
    _teich_unit,
    state_add,
    state_char,
    state_div,
    state_eq,
    state_eq_hecke,
    state_eq_product,
    state_mul,
    state_neg,
    state_of_int,
    state_zero,
    powers,
)
from .primes import primes_up_to, smallest_prime_factors

__all__ = [
    "QExpansion",
    "eisenstein_critical",
    "eisenstein_ordinary",
    "theta_pow",
    "verify_eigensystem",
    "check_terms",
    "theta_twin_check",
    "OperatorCheck",
    "EigenReport",
    "TwinConventionError",
    "TwinCheckReport",
    "dump_lines",
]


class TwinConventionError(RuntimeError):
    """Neither twin-character convention realizes the theta identity; this
    indicates an implementation bug, never a property of the input."""


@dataclass(frozen=True, eq=False)
class QExpansion:
    """q-series truncated at order M, tagged with weight and nebentypus.

    The weight is an arbitrary integer (twins have weight 2-k <= 0) and the
    character tag is the exponent i of eps = omega^i.  a_n is held as the int
    state ``states[n]`` (``PadicNumber.state``), on which everything below
    computes; only coeff, coeffs and dump_lines make PadicNumbers.  The states
    may be given as any iterable; they are stored as a tuple.
    """

    ctx: PadicContext
    weight: int
    char_exponent: int
    states: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def truncation(self) -> int:
        return len(self.states) - 1

    @property
    def coeffs(self) -> tuple[PadicNumber, ...]:
        return tuple(PadicNumber.from_state(self.ctx, a) for a in self.states)

    def coeff(self, n: int) -> PadicNumber:
        return PadicNumber.from_state(self.ctx, self.states[n])


def _eigenstates(ctx, M, a0, a_p, ea, beta):
    """The states a_0, ..., a_M of the normalized eigenform with constant term
    a0, eigenvalue a_p at p (int states) and a_l = omega^ea(l) + beta(l) at
    primes l != p, where beta = (eb, r) stands for l -> omega^eb(l) l^r and
    omega^(ea+eb)(l) l^r is the nebentypus factor.  They are yielded in
    index order, each from earlier ones (see _eigen_plan): a reader that
    stops, stops the build.  omega^e(l) l^r is formed as state_char forms
    it, omega^e(l) read from the table of lifts for (p, N) times l^r, with
    l^r read from the table _index_powers(p, N, r, M), which theta^r
    shares."""
    if M < 1:
        raise ValueError("truncation order must be >= 1")
    p, N, P = ctx.p, ctx.precision, ctx.powers
    q, mod, (eb, r) = p - 1, P[N], beta
    row, dlog = _teich_unit(p, N)  # omega^e(l) = row[e * dlog[l % p] % q]
    lr = _index_powers(p, N, r, M)  # entry l holds the state of l^r
    c = [a0, state_of_int(P, N, 1)]
    yield from c
    back = {}  # l -> the state of -eps(l) l^(weight-1), built once per prime
    for n, l, x, y in _eigen_plan(M):
        if not l:
            a = state_mul(P, c[x], c[y])
        elif n == l == p:
            a = a_p
        elif n == l:
            d = dlog[l % p]
            a = state_add(P, N, (0, row[ea * d % q], N), (0, row[eb * d % q] * lr[l][1] % mod, N))
        elif l == p:
            a = state_mul(P, c[x], a_p)
        else:
            if l not in back:
                back[l] = state_neg(P, (0, row[(ea + eb) * dlog[l % p] % q] * lr[l][1] % mod, N))
            a = state_add(P, N, state_mul(P, c[l], c[x]), state_mul(P, back[l], c[y]))
        c.append(a)
        yield a


INDEX_POWERS_CACHE_SIZE = 2


@lru_cache(maxsize=INDEX_POWERS_CACHE_SIZE)
def _index_powers(p: int, N: int, r: int, M: int) -> tuple:
    """The states of n^r for n = 0..M (r may be negative), the zero state at
    n = 0, built along _eigen_plan(M) by multiplicativity: l^r mod p^N at a
    prime l != p, p^r at l = p and a product of two earlier entries
    elsewhere, so no integer n^r is formed.  theta^r multiplies by every
    entry; the builder reads the units at the primes l != p.  Least recently
    used first out beyond INDEX_POWERS_CACHE_SIZE = 2 entries: a point reads
    r = k - 1 (the critical and ordinary series and theta^(k-1)) and
    r = 1 - k (the twin), and a scan visits the points of one (p, k) in an
    unbroken run, so only its first point builds them."""
    P = powers(p, N)
    table = [state_zero(N), (0, 1, N)]
    for n, l, x, y in _eigen_plan(M):
        if not l:
            table.append(state_mul(P, table[x], table[y]))
        elif n == l:
            table.append((r, 1, N) if l == p else (0, pow(l, r, P[N]), N))
        else:
            table.append(state_mul(P, table[x], table[l]))
    return tuple(table[:M + 1])


PLAN_CACHE_SIZE = 1


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _eigen_plan(M: int) -> tuple:
    """How _eigenstates builds a_n for n = 2..M from earlier coefficients, as
    (n, l, x, y) in index order, read once from the sieve of smallest prime
    factors.  l = 0 for n = x * y with coprime x, y > 1 (multiplicativity);
    otherwise n = l^r for a prime l, x = n / l and y = n / l^2 (n = l when
    r = 1), and r >= 2 gives a_n = a_p a_x for l = p and the Hecke recursion
    a_l a_x - eps(l) l^(k-1) a_y otherwise, so the plan does not depend on
    p.  Cached for the last M only: every series of a scan has the same M,
    so a scan sieves once, and no other reader of the sieve runs per point."""
    spf = smallest_prime_factors(M)
    plan = []
    for n in range(2, M + 1):
        l = spf[n]
        m = n // l
        while m % l == 0:
            m //= l
        plan.append((n, 0, n // m, m) if m > 1 else (n, l, n // l, n // (l * l)))
    return tuple(plan)


def eisenstein_critical(p: int, k: int, i: int, M: int, ctx: PadicContext) -> QExpansion:
    """The critical Eisenstein eigenform at weight z^k omega^i, truncated at M."""
    w = WeightPoint.critical(p, k, i)
    if ctx.p != p:
        raise ValueError("context prime differs from p")
    N = ctx.precision
    a0, a_p = state_zero(N), (k - 1, 1, N)  # a_p = p^(k-1), a unit 1 at valuation k - 1
    # a_l = eps(l) + l^(k-1)
    return QExpansion(ctx, w.k, w.i, _eigenstates(ctx, M, a0, a_p, w.i, (0, k - 1)))


def eisenstein_ordinary(w: WeightPoint, M: int, ctx: PadicContext) -> QExpansion:
    """The ordinary Eisenstein series at a classical weight.  The trivial
    weight degenerates to the constant 1 (weight tag 0, coefficients 1, 0,
    ..., 0) rather than being rejected."""
    if ctx.p != w.p:
        raise ValueError("context prime differs from the weight's prime")
    N, P = ctx.precision, ctx.powers
    if w.is_trivial:
        return QExpansion(ctx, 0, 0, (state_of_int(P, N, 1),) + (state_zero(N),) * M)
    a0 = state_div(P, zeta_weight(w, ctx).value.state, state_of_int(P, N, 2))  # zeta_p(w)/2
    return QExpansion(ctx, w.k, w.i, _ordinary_states(w, M, ctx, a0))


def _ordinary_states(w: WeightPoint, M: int, ctx: PadicContext, a0: tuple):
    """The states of the ordinary series at a nontrivial classical weight w
    with the constant term of state a0, as ``_eigenstates`` yields them."""
    # a_p = 1; a_l = 1 + w(l)/l, and w(l)/l = omega^i(l) l^(k-1)
    one = state_of_int(ctx.powers, ctx.precision, 1)
    return _eigenstates(ctx, M, a0, one, 0, (w.i, w.k - 1))


# -- theta -------------------------------------------------------------------


def theta_pow(f: QExpansion, r: int) -> QExpansion:
    """theta^r: a_n -> n^r a_n, raising the weight tag by 2r."""
    if r < 0:
        raise ValueError("theta power must be >= 0")
    if r == 0:
        return f
    P = f.ctx.powers
    n_r = _index_powers(f.ctx.p, f.ctx.precision, r, f.truncation)
    states = (state_mul(P, m, a) for m, a in zip(n_r, f.states))
    return QExpansion(f.ctx, f.weight + 2 * r, f.char_exponent, states)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class OperatorCheck:
    operator: str
    passed: bool
    first_fail_index: int | None


@dataclass(frozen=True)
class EigenReport:
    all_passed: bool
    checks: tuple[OperatorCheck, ...]

    def failing(self) -> list[OperatorCheck]:
        return [c for c in self.checks if not c.passed]


PRIMES_BOUND = 20
CHECK_PRIMES = tuple(primes_up_to(PRIMES_BOUND))  # T_l is checked for each l here but p


def check_terms(p: int, terms: int):
    """The eigensystem checks read a_l for every prime l <= PRIMES_BOUND and
    a_p, so the truncation must reach the largest of them."""
    needed = max(CHECK_PRIMES[-1], p)
    if terms < needed:
        raise ValueError(
            f"terms = {terms} is below {needed}, the largest coefficient index "
            f"the eigensystem checks read (primes up to {PRIMES_BOUND} and p = {p})"
        )


def verify_eigensystem(f: QExpansion) -> EigenReport:
    """Check T_l f = a_l f for primes l <= PRIMES_BOUND (l != p) and
    U_p f = a_p f, coefficientwise on the truncation of the image, each in
    one pass over n in index order that builds no image: the first n whose
    comparison fails or raises decides.  Each compares a_(nl) with a_l a_n,
    except that T_l compares a_(nl) + eps(l) l^(k-1) a_(n/l) with it where
    l divides n (state_eq_hecke)."""
    p, N, P, a = f.ctx.p, f.ctx.precision, f.ctx.powers, f.states
    check_terms(p, f.truncation)
    if not state_eq(P, a[1], state_of_int(P, N, 1)):
        raise ValueError("eigensystem verification expects a normalized expansion (a_1 = 1)")
    checks = []
    for l in [l for l in CHECK_PRIMES if l != p] + [p]:
        if l != p:  # U_p has no second image term
            back = state_char(P, N, f.char_exponent, l, f.weight - 1)  # eps(l) l^(k-1)
        al, bad = a[l], None
        for n, c in enumerate(a[::l]):
            if not (state_eq_hecke(P, N, c, back, a[n // l], al, a[n]) if l != p and n % l == 0
                    else state_eq_product(P, c, al, a[n])):
                bad = n
                break
        checks.append(OperatorCheck(f"{'U' if l == p else 'T'}_{l}", bad is None, bad))
    return EigenReport(all(c.passed for c in checks), tuple(checks))


@dataclass(frozen=True)
class TwinCheckReport:
    """Outcome of the theta-twin comparison for both twin-character
    conventions.  ``matched`` names the conventions under which
    n^(k-1) a_n(ordinary twin) = a_n(critical) holds for every 1 <= n <= M."""

    matched: tuple[str, ...]
    first_mismatch: dict = field(default_factory=dict)
    conventions_coincide: bool = False
    constant_term_annihilated: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.matched) and self.constant_term_annihilated


def theta_twin_check(crit: QExpansion) -> TwinCheckReport:
    """Check the critical series ``crit`` against the ordinary series at its
    twin weight under both character conventions (eps^(-1), the stated twin,
    and eps): compare n^(k-1) a_n(twin) with a_n(crit) from n = 1 as the twin
    is built, up to the first mismatch or n = M.  p, k, i, M are crit's tags.

    The two conventions coincide exactly when eps is quadratic or trivial.
    If neither matches, something is broken internally and the check aborts
    loudly instead of reporting a verdict.
    """
    ctx, k, i, M = crit.ctx, crit.weight, crit.char_exponent, crit.truncation
    p, N, P = ctx.p, ctx.precision, ctx.powers
    conventions = {"inverse": (-i) % (p - 1), "direct": i}
    first_bad = {}  # keyed by the twin's character exponent
    for i_star in dict.fromkeys(conventions.values()):
        tw = WeightPoint.classical(p, 2 - k, i_star)
        # theta^(k-1) annihilates a_0 = zeta_p(tw)/2, so it is not evaluated
        # and n = 0 is not compared
        lifted = map(state_eq_product, repeat(P), islice(crit.states, 1, None),
                     islice(_index_powers(p, N, k - 1, M), 1, None),
                     islice(_ordinary_states(tw, M, ctx, state_zero(N)), 1, None))
        first_bad[i_star] = next(compress(count(1), map(not_, lifted)), None)
    mism = {label: first_bad[e] for label, e in conventions.items()}
    matched = tuple(label for label, bad in mism.items() if bad is None)
    if not matched:
        raise TwinConventionError(
            f"theta^(k-1) matches neither twin convention at (p,k,i)=({p},{k},{i}); "
            f"first mismatches: {mism}"
        )
    return TwinCheckReport(
        matched=matched,
        first_mismatch=mism,
        conventions_coincide=len(first_bad) == 1,
        # the lifted twins have a_0 = 0 by construction; crit's a_0 is zero
        # to precision when its state has no unit
        constant_term_annihilated=crit.states[0][1] is None,
    )


def dump_lines(f: QExpansion) -> list[str]:
    """One line per coefficient: index, valuation, unit digits base p, tail."""
    out = []
    p = f.ctx.p
    for n, a in enumerate(f.coeffs):
        if a.is_zero_to_precision:
            out.append(f"{n}\tzero\t-\tO({p}^{a.min_valuation})")
        else:
            digits = ",".join(str(d) for d in a.digits())
            out.append(f"{n}\t{a.valuation}\t{digits}\tO({p}^{a.abs_precision})")
    return out
