"""The Kubota-Leopoldt p-adic L-function by branch, the zeta function on
weight space, and the irregular-prime / zero-locus scan.

Branch dictionary (fixed once, used everywhere):

* Weight space splits into components indexed by an even exponent j modulo
  p-1; the point z -> z^k omega^i(z) sits on branch j = k + i with coordinate
  s = k.
* On branch j, the L-function takes the interpolation values

      L_p(1-n, branch j) = -(1 - chi(p) p^(n-1)) * B_{n,chi} / n,
      chi = omega^(j-n),  n >= 1,

  so chi(p) = 1 exactly when j = n mod p-1 and 0 otherwise.
* The zeta function on weight space evaluates branch j at argument 1 - s.
  On a classical weight z^k omega^i this twists the character to omega^i and
  gives -(1 - omega^i(p) p^(k-1)) B_{k,omega^i} / k.
* The ordinary twin of a critical weight (k, i) is z^(2-k) eps^(-1), i.e.
  branch j* = 2 - k - i with coordinate 2 - k; its zeta value is the branch-j*
  function at argument k - 1.

The convergent evaluation at arbitrary s in Z_p is the classical series over
a twisted sum of one-unit powers,

    L_p(s, branch j) = 1/(p(s-1)) * sum_{a=1}^{p-1} omega^j(a) <a>^(1-s)
                       * sum_{m>=0} C(1-s, m) B_m (p/a)^m,

with <a> = a/omega(a).  Term m of the inner sum has valuation at least
m + v(B_m) >= m - 1 (binomial coefficients of p-adic integers are p-adic
integers; von Staudt-Clausen caps the B_m denominator at one power of p), so
truncating at m = N + 1 leaves a tail of valuation >= N.  The pole of the
trivial branch sits at s = 1; its values carry the pole factor and therefore
have valuation -1 - v(s-1) rather than >= 0.

Only omega^j(a) depends on the branch.  With t = 1 - s the series splits as

    L_p(s, branch j) = 1/(p(s-1)) * sum_{a=1}^{p-1} omega^j(a) X_a,
    X_a = <a>^t * sum_{m>=0} C(t, m) B_m (p/a)^m,

and the X_a are built once per (p, N, t), put over their least valuation and
cached, so every branch at one argument (the admissible i of one (p, k) in a
scan, the irregular branches at one grid point) pays p - 1 int products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bernoulli import (
    MAX_BERNOULLI_INDEX,
    _zeros_mod_p,
    bernoulli_number,
    generalized_bernoulli,
)
from .characters import TeichCharacter
from .padic import (
    PadicContext,
    PadicNumber,
    PrecisionLossError,
    _horner,
    _teich_unit,
    exp_small,
    log_one_unit,
    state_add,
    state_char,
    state_div,
    state_mul,
    state_neg,
    state_normalize,
    state_of_int,
    state_of_rational,
    state_zero,
)
from .primes import primes_up_to, require_odd_prime

__all__ = [
    "AdmissibilityError",
    "PoleError",
    "IrregularScreenError",
    "WeightPoint",
    "even_branch",
    "LValue",
    "lp_interpolation",
    "lp_series",
    "zeta_weight",
    "check_irregular_prime",
    "irregular_branches",
    "irregular_scan",
    "ZeroWitness",
]


class AdmissibilityError(ValueError):
    """A requested point violates one of the admissibility constraints."""


class PoleError(ValueError):
    """Evaluation requested at the pole of the trivial branch."""


class IrregularScreenError(RuntimeError):
    """The mod-p screen of the irregular branches named a j that the exact
    numerator of B_j rejects; this indicates an implementation bug, never a
    property of the input."""


@dataclass(frozen=True)
class WeightPoint:
    """The classical weight z^k omega^i of weight space; it sits on branch
    j = k + i with coordinate s = k (module docstring)."""

    p: int
    k: int
    i: int

    @classmethod
    def classical(cls, p: int, k: int, i: int) -> "WeightPoint":
        require_odd_prime(p)
        i = i % (p - 1)
        if (k - i) % 2 != 0:
            raise AdmissibilityError(
                f"character parity (-1)^{i} must match weight parity (-1)^{k}"
            )
        return cls(p=p, k=k, i=i)

    @classmethod
    def critical(cls, p: int, k: int, i: int) -> "WeightPoint":
        """The critical Eisenstein point z^k omega^i: a classical weight with
        k >= 2, other than weight 2 with the trivial character."""
        w = cls.classical(p, k, i)
        if k < 2:
            raise AdmissibilityError(f"critical weight needs k >= 2, got k = {k}")
        if k == 2 and w.i == 0:
            raise AdmissibilityError(
                "weight 2 with trivial character is excluded (no such critical point)"
            )
        return w

    @property
    def branch(self) -> int:
        return (self.k + self.i) % (self.p - 1)

    @property
    def s(self) -> int:
        return self.k

    @property
    def is_trivial(self) -> bool:
        return self.k == 0 and self.i == 0

    def twin(self) -> "WeightPoint":
        """The ordinary partner z^(2-k) eps^(-1) of a critical weight."""
        return WeightPoint.classical(self.p, 2 - self.k, -self.i)

    def describe(self) -> str:
        return f"z^{self.k} * omega^{self.i} (branch {self.branch}, s = {self.k})"


def even_branch(j: int) -> int:
    """The branch exponent j, refused when odd: weight space has only even
    branches, and reducing j modulo the even p - 1 keeps its parity."""
    if j % 2 != 0:
        raise AdmissibilityError("weight space is even: branch exponent must be even")
    return j


@dataclass(frozen=True)
class LValue:
    """An L-function value with its audit trail."""

    value: PadicNumber
    branch: int
    argument: object
    route: str  # "interpolation" | "series"

    @property
    def precision_achieved(self) -> int:
        return min(self.value.abs_precision, self.value.ctx.precision)


def lp_interpolation(n: int, j: int, ctx: PadicContext) -> LValue:
    """L_p(1-n, branch j) from the interpolation formula (module docstring).

    B_{n,chi} is taken at N + v_p(n) digits, so that the division by n still
    leaves the value known modulo p^N; the result is cut to N relative
    digits.  The Euler factor 1 - p^(n-1) (chi trivial) is an integer."""
    if n < 1:
        raise ValueError("interpolation needs n >= 1")
    p, N = ctx.p, ctx.precision
    j = even_branch(j) % (p - 1)
    chi = TeichCharacter(p, j - n)
    G = N + state_of_int(ctx.powers, N, n)[0]  # N + v_p(n)
    guard = PadicContext(p, G)
    P = guard.powers
    bn = generalized_bernoulli(n, chi, guard).state
    euler = 1 - p ** (n - 1) if chi.is_trivial else 1
    value = state_div(P, state_mul(P, bn, state_of_int(P, G, -euler)), state_of_int(P, G, n))
    value = PadicNumber.from_state(ctx, state_normalize(P, N, *value))
    return LValue(value=value, branch=j, argument=1 - n, route="interpolation")


LOG_GAMMA_CACHE_SIZE = 4096


@lru_cache(maxsize=LOG_GAMMA_CACHE_SIZE)
def _log_gamma_a(p: int, precision: int, a: int) -> PadicNumber:
    """log<a> cached per (p, N, a) for a coprime to p.  Least recently used first
    out beyond LOG_GAMMA_CACHE_SIZE = 4096 entries, which holds every a of
    any one prime below 4096 at one N."""
    ctx = PadicContext(p, precision)
    # <a> = omega(a)^(-1) * a
    return log_one_unit(PadicNumber.from_state(ctx, state_char(ctx.powers, precision, -1, a, 1)))


def _one_minus(s, ctx: PadicContext) -> tuple:
    """The state of t = 1 - s for an L-function argument s, an int, a
    Fraction or a PadicNumber of ctx that must be a p-adic integer."""
    P, N = ctx.powers, ctx.precision
    if isinstance(s, (int, Fraction)):
        x = state_of_rational(P, N, s)
    elif s.ctx != ctx:
        raise ValueError("argument carried a different context")
    else:
        x = s.state
    if x[1] is not None and x[0] < 0:
        raise ValueError("the L-function argument must be a p-adic integer")
    return state_add(P, N, state_of_int(P, N, 1), state_neg(P, x))


LP_TERMS_CACHE_SIZE = 8


@lru_cache(maxsize=LP_TERMS_CACHE_SIZE)
def _branch_free_terms(p: int, N: int, t: tuple) -> tuple:
    """The states X_a = <a>^t * sum_m C(t, m) B_m (p/a)^m, a = 1..p-1, at
    t = 1 - s (the state of a p-adic integer): every factor of the series
    summand but omega^j(a), shared by all branches at one argument.

    Cached per (p, N, t) as :func:`_over_least` gives them, (A, low, rel) and
    p - 1 ints, least recently used first out beyond LP_TERMS_CACHE_SIZE = 8
    entries.  Binomial coefficients C(t, m) are built iteratively on int states."""
    ctx = PadicContext(p, N)
    P = ctx.powers
    t_padic = PadicNumber.from_state(ctx, t)
    # inner-sum length: tail terms have valuation >= m + v(B_m) >= m - 1
    M = N + 1
    binom = state_of_int(P, N, 1)
    # c_m = C(t, m) B_m p^m, None where B_m = 0
    coeffs: list[tuple | None] = [state_of_rational(P, N, bernoulli_number(0))]
    for m in range(1, M + 1):
        factor = state_add(P, N, t, state_of_int(P, N, 1 - m))  # t - (m - 1)
        binom = state_div(P, state_mul(P, binom, factor), state_of_int(P, N, m))
        b = bernoulli_number(m)
        if b == 0:
            coeffs.append(None)
        else:  # B_m p^m: the state of B_m shifted by m
            vb, ub, rb = state_of_rational(P, N, b)
            coeffs.append(state_mul(P, binom, (vb + m, ub, rb)))
    inners = _horner_sums(P, N, coeffs, range(1, p))
    terms = []
    for a, inner in enumerate(inners, start=1):
        gamma = exp_small(t_padic * _log_gamma_a(p, N, a))  # <a>^t = exp(t log<a>)
        terms.append(state_mul(P, gamma.state, inner))
    return _over_least(P, terms)


def _over_least(P: tuple, states) -> tuple:
    """(A, low, rel, ints) for the states of a sum, not all None (an exact 0),
    by the sum rule of eiszeta.padic: the sum is p^low sum(ints) modulo p^A,
    A the least absolute precision, low the least valuation of a unit below
    A, else A, and rel = A - low (rel = 0 only for the zero to p^A, A >= 1);
    ints[i] = u_i p^(v_i - low) mod p^rel, 0 for None, a zero or a term past rel."""
    present = [x for x in states if x is not None]
    A = min(v + r for v, _, r in present)
    low = min([v for v, u, _ in present if u is not None and v < A], default=A)
    rel = A - low
    return A, low, rel, tuple(0 if x is None or x[1] is None or x[0] - low >= rel
                              else x[1] * P[x[0] - low] % P[rel] for x in states)


def _horner_sums(P: tuple, N: int, coeffs: list, bases) -> list:
    """The states of sum_m c_m a^(-m), one for each integer a prime to p in
    bases, for the states c_m in coeffs (None standing for an exact 0).

    Each a^(-m) is a unit, so term m keeps c_m's valuation and precision, and
    by the sum rule of eiszeta.padic every sum is known modulo p^A, A the
    least absolute precision of the c_m: the c_m are put over their least
    valuation once (:func:`_over_least`), and each sum is the integer kernel
    padic._horner modulo p^(A - low), normalised once."""
    _, low, rel, ints = _over_least(P, coeffs)
    return [state_normalize(P, N, low, total, rel)
            for total in _horner(ints, bases, 0, P[rel])]


def lp_series(s, j: int, ctx: PadicContext) -> LValue:
    """L_p(s, branch j) by the convergent twisted series (module docstring),
    as sum_a omega^j(a) X_a / (p(s-1)) with the branch-free X_a of
    :func:`_branch_free_terms`.

    Products of states are associative in value, valuation and relative
    precision, so (omega^j(a) <a>^t) * inner_a and omega^j(a) * X_a are the
    same state; achieved precision is reported from honest propagation
    rather than assumed.
    """
    p, N, P = ctx.p, ctx.precision, ctx.powers
    t = _one_minus(s, ctx)
    j = even_branch(j) % (p - 1)
    s_minus_1 = state_neg(P, t)
    if s_minus_1[1] is None:  # s = 1 to precision
        exact = isinstance(s, PadicNumber) or s == 1
        if j == 0:
            if exact:
                raise PoleError("the trivial branch has its pole at s = 1")
            raise PrecisionLossError(
                f"s = {s} is 1 modulo {p}^{N}, so precision {N} cannot tell it from "
                "the pole of the trivial branch at s = 1"
            )
        # s = 1 exactly on a nontrivial branch: the series becomes 0/0, but
        # the function is analytic there.  Evaluate nearby and use
        # |L(1 + p^h) - L(1)| <= p^(-h-1); the precision cost is reported.
        # At N = 1 every 1 + p^h is again s = 1 modulo p^N; at N = 2, h = 1
        # and the value at 1 + p divides a sum known modulo p^2 by p^2.
        if N < 3:
            need = "s = 1 on a nontrivial branch needs precision >= 3"
            raise PrecisionLossError(need if exact else f"s = {s} is 1 modulo {p}^{N}, and {need}")
        h = N // 2
        near = lp_series(1 + p**h, j, ctx)
        # value + O(p^(h+1)): no digit past p^(h+1) is claimed, whatever the valuation
        value = PadicNumber.from_state(ctx, state_add(P, N, near.value.state, state_zero(h + 1)))
        return LValue(value=value, branch=j, argument=s, route="series")
    row, dlog = _teich_unit(p, N)  # omega^j(a) = row[j * dlog[a] % (p - 1)], a = 1..p-1
    _, low, rel, ints = _branch_free_terms(p, N, t)  # weighted by the units omega^j(a)
    total = state_normalize(P, N, low, sum(row[j * d % (p - 1)] * x
                                           for d, x in zip(dlog[1:], ints)), rel)
    denominator = state_mul(P, state_of_int(P, N, p), s_minus_1)  # p (s - 1)
    value = PadicNumber.from_state(ctx, state_div(P, total, denominator))
    return LValue(value=value, branch=j, argument=s, route="series")


def zeta_weight(w: WeightPoint, ctx: PadicContext) -> LValue:
    """zeta_p(w): branch j of the L-function evaluated at argument 1 - s.

    On classical weights z^k omega^i this is
    -(1 - omega^i(p) p^(k-1)) B_{k,omega^i} / k, and it is nonzero there;
    the only pole is the trivial weight.
    """
    if ctx.p != w.p:
        raise ValueError("context prime differs from the weight's prime")
    if w.is_trivial:
        raise PoleError("zeta_p is undefined at the trivial weight")
    return lp_series(1 - w.k, w.branch, ctx)


# -- irregular primes and the zero locus ------------------------------------


@dataclass(frozen=True)
class ZeroWitness:
    """Numerical shadow of a zero of zeta_p on one branch: every grid value
    has positive valuation, and the residue classes where the valuation jumps
    locate the zero modulo p."""

    branch: int
    grid_precision: int
    baseline_valuation: int
    elevated: tuple[tuple[int, int], ...]  # (s, observed valuation bound)


# irregular_branches(p) may read any B_j up to j = p - 3
MAX_IRREGULAR_PRIME = primes_up_to(MAX_BERNOULLI_INDEX + 3)[-1]


def check_irregular_prime(p: int) -> None:
    """Reject, before any arithmetic, a prime whose screen of B_j mod p may
    name a j past MAX_BERNOULLI_INDEX, where no exact B_j confirms the hit."""
    if p - 3 > MAX_BERNOULLI_INDEX:
        raise ValueError(
            f"p = {p} screens B_j mod p up to j = {p - 3}, and a hit past the Bernoulli ceiling "
            f"{MAX_BERNOULLI_INDEX} has no exact B_j; the largest supported prime is {MAX_IRREGULAR_PRIME}"
        )


def irregular_branches(p: int) -> list[int]:
    """Even branches j in {2,...,p-3} where zeta_p vanishes somewhere, by the
    exact criterion p | numerator(B_j), as a new list on each call."""
    require_odd_prime(p)
    check_irregular_prime(p)
    return list(_irregular_branches(p))


IRREGULAR_CACHE_SIZE = 32


@lru_cache(maxsize=IRREGULAR_CACHE_SIZE)
def _irregular_branches(p: int) -> tuple:
    """The j of irregular_branches(p): the screen of B_j mod p names the
    candidates, and the exact B_j is read at those j only, so that each
    branch rests on p | numerator(B_j) and a prime without candidates fills
    no exact B_j.  Cached per p, least recently used first out beyond
    IRREGULAR_CACHE_SIZE = 32 primes: every analysed point asks, so a scan
    screens each prime once, and a process that scans a window of up to 32
    primes again screens none.  An entry holds at most three j (491 is the
    least of the primes below 2003 with three)."""
    hits = _zeros_mod_p(p)
    for j in hits:
        if bernoulli_number(j).numerator % p:
            raise IrregularScreenError(
                f"the screen of B_j mod {p} names j = {j}, but {p} does not divide "
                f"the numerator of B_{j}")
    return tuple(hits)


def irregular_scan(p: int, ctx: PadicContext) -> list[tuple[int, ZeroWitness]]:
    """The zero-carrying branches of zeta_p, each cross-checked by the
    valuation profile of the convergent series over a residue grid at the
    context's working precision."""
    if ctx.p != p:
        raise ValueError("context prime differs from p")
    branches = irregular_branches(p)
    profiles: dict[int, list] = {j: [] for j in branches}
    # one grid point per residue class mod p; s = 1 is replaced by s = 1 + p
    # to stay clear of the series' removable 0/0 point.  The branches are the
    # inner loop, so they share the branch-free terms of each grid point.
    for s in [0, 1 + p] + list(range(2, p)):
        for j in branches:
            # the valuation of a nonzero value, the bound of a zero one
            profiles[j].append((s, lp_series(s, j, ctx).value.min_valuation))
    hits = []
    for j, profile in profiles.items():
        baseline = min(v for _, v in profile)
        elevated = tuple((s, v) for s, v in profile if v > baseline)
        hits.append(
            (
                j,
                ZeroWitness(
                    branch=j,
                    grid_precision=ctx.precision,
                    baseline_valuation=baseline,
                    elevated=elevated,
                ),
            )
        )
    return hits
