"""Truncated q-expansions with Hecke operators, the theta operator, and the
critical / ordinary Eisenstein families.

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

from .kubota import WeightPoint, zeta_weight
from .padic import (
    PadicContext,
    PadicNumber,
    state_add,
    state_char,
    state_eq,
    state_mul,
    state_neg,
    state_of_int,
    state_zero,
)
from .primes import is_prime, primes_up_to, smallest_prime_factors

__all__ = [
    "QExpansion",
    "eisenstein_critical",
    "eisenstein_ordinary",
    "hecke_Tl",
    "hecke_Up",
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


class QExpansion:
    """q-series truncated at order M, tagged with weight and nebentypus.

    The weight is an arbitrary integer (twins have weight 2-k <= 0) and the
    character tag is the exponent i of eps = omega^i.  a_n is held as the int
    state ``states[n]`` (``PadicNumber.state``), on which everything below
    computes; only coeff, coeffs and dump_lines make PadicNumbers.
    """

    __slots__ = ("ctx", "weight", "char_exponent", "states")

    def __init__(self, ctx: PadicContext, weight: int, char_exponent: int, coeffs):
        """The series with PadicNumber coefficients ``coeffs`` = (a_0, ..., a_M)."""
        self.ctx, self.weight, self.char_exponent = ctx, weight, char_exponent
        self.states = tuple(a.state for a in coeffs)

    @classmethod
    def _of_states(cls, ctx, weight, char_exponent, states) -> "QExpansion":
        f = object.__new__(cls)
        f.ctx, f.weight, f.char_exponent, f.states = ctx, weight, char_exponent, states
        return f

    @property
    def truncation(self) -> int:
        return len(self.states) - 1

    @property
    def coeffs(self) -> tuple[PadicNumber, ...]:
        return tuple(PadicNumber.from_state(self.ctx, a) for a in self.states)

    def coeff(self, n: int) -> PadicNumber:
        return PadicNumber.from_state(self.ctx, self.states[n])

    def first_mismatch(self, other: "QExpansion", start: int = 0) -> int | None:
        """Smallest index where the two expansions disagree at the carried
        precision, over the common truncation; None when they agree."""
        p, a, b = self.ctx.p, self.states, other.states
        end = min(self.truncation, other.truncation)
        return next((n for n in range(start, end + 1) if not state_eq(p, a[n], b[n])), None)


def _assemble(ctx, M, a0, a_p, alpha, beta):
    """The normalized eigenform with constant term a0, eigenvalue a_p at p (int
    states) and a_l = alpha(l) + beta(l) at primes l != p, where (e, n) stands
    for l -> omega^e(l) l^n and alpha * beta is the nebentypus factor; filled
    in index order from its own earlier coefficients."""
    if M < 1:
        raise ValueError("truncation order must be >= 1")
    p, N = ctx.p, ctx.precision
    (ea, na), (eb, nb) = alpha, beta
    weight, char_exponent = na + nb + 1, (ea + eb) % (p - 1)
    c = [a0, state_of_int(p, N, 1)] + [None] * (M - 1)
    back = {}  # l -> the state of -eps(l) l^(weight-1), built once per prime
    spf = smallest_prime_factors(M)
    for n in range(2, M + 1):
        l = spf[n]
        m = n // l
        while m % l == 0:
            m //= l
        if m > 1:  # n = l^r * m with m > 1 coprime to l
            c[n] = state_mul(p, c[n // m], c[m])
        elif n == l:
            c[n] = a_p if l == p else state_add(p, N, state_char(p, N, ea, l, na),
                                                state_char(p, N, eb, l, nb))
        elif l == p:
            c[n] = state_mul(p, c[n // l], a_p)
        else:
            if l not in back:
                back[l] = state_neg(p, state_char(p, N, char_exponent, l, weight - 1))
            c[n] = state_add(p, N, state_mul(p, c[l], c[n // l]),
                             state_mul(p, back[l], c[n // (l * l)]))
    return QExpansion._of_states(ctx, weight, char_exponent, tuple(c))


def eisenstein_critical(p: int, k: int, i: int, M: int, ctx: PadicContext) -> QExpansion:
    """The critical Eisenstein eigenform at weight z^k omega^i, truncated at M."""
    WeightPoint.critical(p, k, i)
    if ctx.p != p:
        raise ValueError("context prime differs from p")
    N = ctx.precision
    # a_l = eps(l) + l^(k-1)
    return _assemble(ctx, M, state_zero(N), state_of_int(p, N, p ** (k - 1)), (i, 0), (0, k - 1))


def eisenstein_ordinary(w: WeightPoint, M: int, ctx: PadicContext) -> QExpansion:
    """The ordinary Eisenstein series at a classical weight.  The trivial
    weight degenerates to the constant 1 (weight tag 0, coefficients 1, 0,
    ..., 0) rather than being rejected."""
    if ctx.p != w.p:
        raise ValueError("context prime differs from the weight's prime")
    if w.is_trivial:
        return QExpansion(ctx, 0, 0, (PadicNumber.from_int(1, ctx),) + (ctx.zero(),) * M)
    return _ordinary(w, M, ctx, zeta_weight(w, ctx).value / PadicNumber.from_int(2, ctx))


def _ordinary(w: WeightPoint, M: int, ctx: PadicContext, a0: PadicNumber) -> QExpansion:
    """The ordinary series at a nontrivial classical weight, with the
    constant term a0 given."""
    # a_l = 1 + w(l)/l, and w(l)/l = omega^i(l) l^(k-1)
    one = state_of_int(ctx.p, ctx.precision, 1)
    return _assemble(ctx, M, a0.state, one, (0, 0), (w.i, w.k - 1))


# -- operators ---------------------------------------------------------------


def hecke_Tl(f: QExpansion, l: int) -> QExpansion:
    """T_l for a prime l != p: a_n -> a_(nl) + eps(l) l^(k-1) a_(n/l)."""
    if not is_prime(l):
        raise ValueError(f"l = {l} is not prime")
    if l == f.ctx.p:
        raise ValueError("T_l is not defined at l = p; use hecke_Up")
    p, N, a = f.ctx.p, f.ctx.precision, f.states
    back = state_char(p, N, f.char_exponent, l, f.weight - 1)  # eps(l) l^(k-1)
    states = list(a[::l])
    for n in range(0, len(states), l):  # includes n = 0
        states[n] = state_add(p, N, states[n], state_mul(p, back, a[n // l]))
    return QExpansion._of_states(f.ctx, f.weight, f.char_exponent, tuple(states))


def hecke_Up(f: QExpansion) -> QExpansion:
    """U_p: a_n -> a_(np)."""
    return QExpansion._of_states(f.ctx, f.weight, f.char_exponent, f.states[::f.ctx.p])


def theta_pow(f: QExpansion, r: int) -> QExpansion:
    """theta^r: a_n -> n^r a_n, raising the weight tag by 2r."""
    if r < 0:
        raise ValueError("theta power must be >= 0")
    if r == 0:
        return f
    p = f.ctx.p
    n_r = _theta_multipliers(p, f.ctx.precision, r, f.truncation)
    states = tuple(state_mul(p, m, a) for m, a in zip(n_r, f.states))
    return QExpansion._of_states(f.ctx, f.weight + 2 * r, f.char_exponent, states)


THETA_CACHE_SIZE = 1


@lru_cache(maxsize=THETA_CACHE_SIZE)
def _theta_multipliers(p: int, N: int, r: int, M: int) -> tuple:
    """The states of n^r for n = 0..M, cached for the last (p, N, r, M) only:
    a scan visits the points of one (p, k), which share r = k - 1, in one
    unbroken run and never returns to that key, so a larger cache gains no
    hits and only holds memory."""
    return tuple(state_of_int(p, N, n**r) for n in range(M + 1))


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


def check_terms(p: int, terms: int):
    """The eigensystem checks read a_l for every prime l <= PRIMES_BOUND and
    a_p, so the truncation must reach the largest of them."""
    needed = max(primes_up_to(PRIMES_BOUND) + [p])
    if terms < needed:
        raise ValueError(
            f"terms = {terms} is below {needed}, the largest coefficient index "
            f"the eigensystem checks read (primes up to {PRIMES_BOUND} and p = {p})"
        )


def verify_eigensystem(f: QExpansion) -> EigenReport:
    """Check T_l f = a_l f for primes l <= PRIMES_BOUND (l != p) and
    U_p f = a_p f, coefficientwise on the truncation of the image."""
    p, a = f.ctx.p, f.states
    check_terms(p, f.truncation)
    if not f.coeff(1) == 1:
        raise ValueError("eigensystem verification expects a normalized expansion (a_1 = 1)")
    checks = []
    for l in [l for l in primes_up_to(PRIMES_BOUND) if l != p] + [p]:
        image = hecke_Up(f) if l == p else hecke_Tl(f, l)
        a_l = a[l]
        bad = next((n for n, c in enumerate(image.states)
                    if not state_eq(p, c, state_mul(p, a_l, a[n]))), None)
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
    and eps): apply theta^(k-1) to the ordinary series and compare
    coefficientwise.  p, k, i and M are read off the tags of ``crit``.

    The two conventions coincide exactly when eps is quadratic or trivial.
    If neither matches, something is broken internally and the check aborts
    loudly instead of reporting a verdict.
    """
    ctx, k, i, M = crit.ctx, crit.weight, crit.char_exponent, crit.truncation
    p = ctx.p
    conventions = {"inverse": (-i) % (p - 1), "direct": i}
    first_bad = {}  # keyed by the twin's character exponent
    for i_star in dict.fromkeys(conventions.values()):
        tw = WeightPoint.classical(p, 2 - k, i_star)
        # theta^(k-1) annihilates a_0 = zeta_p(tw)/2, so it is not evaluated
        lifted = theta_pow(_ordinary(tw, M, ctx, ctx.zero()), k - 1)
        first_bad[i_star] = lifted.first_mismatch(crit, start=1)
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
        # the lifted twins have a_0 = 0 by construction
        constant_term_annihilated=crit.coeff(0).is_zero_to_precision,
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
