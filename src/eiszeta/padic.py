"""Capped-precision arithmetic in Q_p.

A value is stored as ``unit * p^valuation`` with the unit carried to a bounded
number of base-p digits (its relative precision), so every number knows how
much of itself is trustworthy.  Absolute precision means "known modulo p^A".
A value indistinguishable from zero is kept as an explicit zero-to-precision
marker carrying the modulus exponent to which it is known to vanish; it is
never silently promoted to an exact zero, because downstream zero/nonzero
verdicts must stay precision-qualified.

Precision propagation:

* add/sub: absolute precisions meet (min); cancellation surfaces as a higher
  valuation with correspondingly fewer unit digits.
* mul/div: valuations add/subtract, relative precisions meet.
* sums of many terms (exp_small, log_one_unit, and the inner and branch
  sums of the L-value series, through kubota._over_least): the state of a
  sum is its exact value modulo p^A, where A is the least absolute precision
  among its terms (a zero term counts with its bound), cut to canonical form
  once.  This is the state a left fold of add gives whenever the fold keeps
  a digit at every partial sum: each add keeps its inputs' least absolute
  precision, and the N-digit cap never binds on a partial sum, because a
  partial sum's valuation is at least its least term's valuation v, and the
  term of valuation v keeps at most N digits, so A <= v + N.  So the terms
  are added as one integer in p^v Z and normalised once; where a fold raises
  at a partial sum that cancels to no digit, the sum is still known modulo
  p^A, and only a total that keeps no digit raises.

Relative precision is capped at the context's working precision N, so a unit
is always reduced modulo p^N at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .primes import require_odd_prime

__all__ = [
    "PadicContext",
    "PadicNumber",
    "ContextMismatchError",
    "PrecisionLossError",
    "teichmuller",
    "log_one_unit",
    "exp_small",
    "format_padic",
    "agreement_precision",
]


class ContextMismatchError(ValueError):
    """Operands live in incompatible p-adic contexts."""


class PrecisionLossError(ArithmeticError):
    """A result would keep no digit of precision."""


@dataclass(frozen=True)
class PadicContext:
    """An odd prime p together with a working precision N (digits carried)."""

    p: int
    precision: int

    def __post_init__(self):
        require_odd_prime(self.p)
        if not isinstance(self.precision, int) or self.precision < 1:
            raise ValueError("precision must be a positive integer")

    @property
    def powers(self) -> tuple:
        """p^0..p^N, the power tuple the state kernels take at this context."""
        return powers(self.p, self.precision)

    def zero(self, abs_prec: int | None = None) -> "PadicNumber":
        abs_prec = self.precision if abs_prec is None else abs_prec
        return PadicNumber.from_state(self, state_zero(abs_prec))


@dataclass(frozen=True, eq=False, repr=False)
class PadicNumber:
    """Immutable element of Q_p known to a definite absolute precision: a
    context and the canonical int state (see state_normalize) it stands for.

    Nonzero state: ``(val, unit, rel)``, the value ``unit * p^val`` with
    ``unit`` coprime to p, reduced modulo p^rel (1 <= rel <= N).  Zero state:
    ``(A, None, 0)``, a value known to lie in p^A Z_p.
    """

    ctx: PadicContext
    state: tuple

    # -- construction ------------------------------------------------------

    @classmethod
    def from_state(cls, ctx, state) -> "PadicNumber":
        """The value whose canonical state is ``state``."""
        return cls(ctx, state)

    @classmethod
    def from_int(cls, x: int, ctx: PadicContext) -> "PadicNumber":
        return cls.from_state(ctx, state_of_int(ctx.powers, ctx.precision, x))

    @classmethod
    def from_rational(cls, x, ctx: PadicContext) -> "PadicNumber":
        return cls.from_state(ctx, state_of_rational(ctx.powers, ctx.precision, x))

    # -- state -------------------------------------------------------------

    @property
    def is_zero_to_precision(self) -> bool:
        return self.state[1] is None

    @property
    def valuation(self):
        """Exact valuation for a nonzero value; None when only a lower bound
        (the absolute precision) is known."""
        val, unit, _ = self.state
        return None if unit is None else val

    @property
    def min_valuation(self) -> int:
        """Best known lower bound on the valuation."""
        return self.state[0]

    @property
    def unit(self):
        return self.state[1]

    @property
    def rel_precision(self) -> int:
        return self.state[2]

    @property
    def abs_precision(self) -> int:
        """The value is known modulo p^abs_precision."""
        return self.state[0] + self.state[2]

    def digits(self) -> list[int]:
        """Base-p digits of the unit, least significant first (empty for zero)."""
        _, u, rel = self.state
        if u is None:
            return []
        out, p = [], self.ctx.p
        for _ in range(rel):
            u, d = divmod(u, p)
            out.append(d)
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if type(other) is PadicNumber or isinstance(other, PadicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(other, self.ctx)
        return None

    def _check_ctx(self, other: "PadicNumber"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"operands belong to different contexts: {self.ctx} vs {other.ctx}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_ctx(other)
        ctx = self.ctx
        return PadicNumber.from_state(ctx, state_add(ctx.powers, ctx.precision,
                                                     self.state, other.state))

    __radd__ = __add__

    def __neg__(self):
        return PadicNumber.from_state(self.ctx, state_neg(self.ctx.powers, self.state))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_ctx(other)
        return PadicNumber.from_state(self.ctx, state_mul(self.ctx.powers, self.state, other.state))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_ctx(other)
        return PadicNumber.from_state(self.ctx, state_div(self.ctx.powers, self.state, other.state))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:  # a zero-to-precision base raises in the division
            return (PadicNumber.from_int(1, self.ctx) / self) ** (-e)
        if e == 0:
            return PadicNumber.from_int(1, self.ctx)
        v, u, r = self.state
        if u is None:
            return self.ctx.zero(v * e)
        return PadicNumber.from_state(self.ctx, (v * e, pow(u, e, self.ctx.powers[r]), r))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return state_eq(_shared_powers(self, other), self.state, other.state)

    __hash__ = None  # equality is precision-dependent

    def __repr__(self):
        return f"PadicNumber({format_padic(self)})"


def agreement_precision(a: PadicNumber, b: PadicNumber) -> int:
    """Exponent A such that a == b mod p^A: the shared absolute precision when
    they agree, otherwise the valuation of the difference."""
    return state_agreement(_shared_powers(a, b), a.state, b.state)


def _shared_powers(a, b) -> tuple:
    """The power tuple that reaches the digits of both a and b (PadicNumbers
    or q-expansions), which may carry different precisions but must share
    the prime."""
    if a.ctx.p != b.ctx.p:
        raise ContextMismatchError("agreement requires the same prime")
    return (a if a.ctx.precision >= b.ctx.precision else b).ctx.powers


# -- the precision rules on int states ---------------------------------------
#
# A state is the triple PadicNumber stores: (val, unit, rel) with the unit
# prime to p and reduced mod p^rel, or (A, None, 0) for zero modulo p^A.
# PadicNumber's arithmetic and equality are these functions on its state; the
# q-series, the L-value series, exp_small and log_one_unit call them directly,
# without an object per operation.  Each job has one kernel: state_normalize
# also cuts a state to fewer digits, and equality is the agreement exponent
# reaching both absolute precisions (state_eq_product fuses it with a product
# for the identity checks).
#
# Every kernel takes P = powers(p, top) in place of p, fetched once by its
# caller per series or value, and reads each power of p as a subscript P[e].
# It needs top >= N and top >= the rel of every state it is given; a wider
# shift than top, such as a large valuation gap in a sum, lands past the
# digits kept and is never looked up.


POWERS_CACHE_SIZE = 16


@lru_cache(maxsize=POWERS_CACHE_SIZE)
def powers(p: int, top: int) -> tuple:
    """The immutable tuple (p^0, p^1, ..., p^top), so P[1] == p.  Cached per
    (p, top), least recently used first out beyond POWERS_CACHE_SIZE = 16
    entries: a scan asks for a few tops (N, and N + 1 or so for guard
    digits) at one prime in an unbroken run."""
    table, last = [1], 1
    for _ in range(top):
        last *= p
        table.append(last)
    return tuple(table)


def _split(n: int, p: int) -> tuple:
    """(v, n / p^v) for a nonzero integer n, v its p-adic valuation."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def state_normalize(P: tuple, N: int, val: int, unit: int, rel: int) -> tuple:
    """Canonical state of unit * p^val to rel <= N digits, zero when no unit digit
    survives; PrecisionLossError when not even the zero keeps a digit.  So
    state_normalize(P, N, *a) cuts a canonical state a to N digits: a zero
    (bound >= 1, rel 0) or a unit of at most N digits comes back as it is."""
    if rel > N:
        rel = N
    if rel <= 0:
        # no digits survive: all that remains is the valuation bound
        if val < 1:
            raise ValueError("value carries no usable precision")
        return val, None, 0
    unit %= P[rel]
    if unit % P[1]:  # already a unit, as most results are
        return val, unit, rel
    if unit == 0:
        if val + rel < 1:
            raise PrecisionLossError("cancellation left no digit of precision")
        return val + rel, None, 0
    shift, unit = _split(unit, P[1])
    return val + shift, unit, rel - shift


def state_zero(abs_prec: int) -> tuple:
    if abs_prec < 1:
        raise ValueError("a zero-to-precision value needs a positive modulus exponent")
    return abs_prec, None, 0


def state_of_int(P: tuple, N: int, x: int) -> tuple:
    if x == 0:
        return N, None, 0
    if x % P[1]:
        return state_normalize(P, N, 0, x, N)
    return state_normalize(P, N, *_split(x, P[1]), N)


def state_of_rational(P: tuple, N: int, x) -> tuple:
    x = Fraction(x)
    if x == 0:
        return N, None, 0
    p = P[1]
    (vn, num), (vd, den) = _split(x.numerator, p), _split(x.denominator, p)
    return state_normalize(P, N, vn - vd, num * pow(den, -1, P[N]), N)


def state_mul(P: tuple, a: tuple, b: tuple) -> tuple:
    """a * b: valuations add, relative precisions meet."""
    va, ua, ra = a
    vb, ub, rb = b
    if ua is None or ub is None:
        if va + vb < 1:
            raise PrecisionLossError("product has no surviving precision")
        return va + vb, None, 0
    rel = ra if ra < rb else rb
    # units prime to p multiply to such a unit, so no normalisation is needed
    return va + vb, ua * ub % P[rel], rel


def state_div(P: tuple, a: tuple, b: tuple) -> tuple:
    """a / b: valuations subtract, relative precisions meet; a zero numerator
    keeps its bound shifted by v(b)."""
    va, ua, ra = a
    vb, ub, rb = b
    if ub is None:
        raise ZeroDivisionError(f"division by a value indistinguishable from zero modulo p^{vb}")
    if ua is None:
        if va - vb < 1:
            raise PrecisionLossError("quotient has no surviving precision")
        return va - vb, None, 0
    rel = ra if ra < rb else rb
    mod = P[rel]
    return va - vb, ua * pow(ub, -1, mod) % mod, rel


def state_neg(P: tuple, a: tuple) -> tuple:
    """-a, to the same precision."""
    v, u, r = a
    return a if u is None else (v, P[r] - u, r)


def state_add(P: tuple, N: int, a: tuple, b: tuple) -> tuple:
    """a + b: absolute precisions meet; cancellation raises the valuation."""
    va, ua, ra = a
    vb, ub, rb = b
    if ua is None:
        if ub is None:
            return (va if va < vb else vb), None, 0
        va, ua, ra, vb, ub = vb, ub, rb, va, ua  # the nonzero one first
    if ub is None:  # b lies in p^vb Z_p
        if va >= vb:
            return vb, None, 0
        gap = vb - va
        return state_normalize(P, N, va, ua, ra if ra < gap else gap)
    if va == vb:
        return state_normalize(P, N, va, ua + ub, ra if ra < rb else rb)
    absa, absb = va + ra, vb + rb
    absprec = absa if absa < absb else absb
    if va > vb:  # the lower valuation first
        va, ua, vb, ub = vb, ub, va, ua
    rel, gap = absprec - va, vb - va
    # shifted by gap >= rel digits, the other summand vanishes modulo p^rel
    return state_normalize(P, N, va, ua if gap >= rel else ua + ub * P[gap], rel)


def _horner(coeffs: list, bases, top: int, mod: int) -> list:
    """sum_i c_i a^(top - i) mod `mod` for each int a in bases (prime to mod
    where a power is negative): one multiply-add by a per Horner step, one
    reduction at the end, and the trailing zero c_i as one power of a."""
    head = list(coeffs)
    while len(head) > 1 and not head[-1]:
        head.pop()
    out = []
    for a in bases:
        total = 0
        for c in head:
            total = total * a + c
        out.append(total % mod * pow(a, top - len(head) + 1, mod) % mod)
    return out


def state_agreement(P: tuple, a: tuple, b: tuple) -> int:
    """Exponent A such that a == b mod p^A (see :func:`agreement_precision`)."""
    va, ua, ra = a
    vb, ub, rb = b
    absa, absb = va + ra, vb + rb
    absprec = absa if absa < absb else absb
    if ua is None:
        return absprec if ub is None else (vb if vb < absprec else absprec)
    if ub is None:
        return va if va < absprec else absprec
    if va > vb:  # the lower valuation first; b - a agrees with a - b
        va, ua, vb, ub = vb, ub, va, ua
    # a - b = p^va * rep, known modulo p^top with top <= the rel of a; shifted
    # by gap >= top digits, b vanishes modulo p^top
    top, gap = absprec - va, vb - va
    rep = (ua if gap >= top else ua - ub * P[gap]) % P[top]
    return absprec if rep == 0 else va + _split(rep, P[1])[0]


def state_eq(P: tuple, a: tuple, b: tuple) -> bool:
    """Equality holds to the lower of the two absolute precisions."""
    absa, absb = a[0] + a[2], b[0] + b[2]
    return state_agreement(P, a, b) >= (absa if absa < absb else absb)


def state_eq_product(P: tuple, c: tuple, x: tuple, y: tuple) -> bool:
    """state_eq(P, c, state_mul(P, x, y)), the same answer or exception,
    decided without building the product's state."""
    vx, ux, rx = x
    vy, uy, ry = y
    vc, uc, rc = c
    if ux is None or uy is None or uc is None:
        return state_eq(P, c, state_mul(P, x, y))
    # the product is (vx + vy, ux * uy mod p^rel, rel) with rel = min(rx, ry);
    # two nonzero states agree to both absolute precisions exactly when their
    # valuations are equal (else the difference is a unit times the lower
    # power of p) and their units agree modulo p^min(rel, rc)
    if vc != vx + vy:
        return False
    rel = rx if rx < ry else ry
    return (ux * uy - uc) % P[rel if rel < rc else rc] == 0


def state_eq_hecke(P: tuple, N: int, c: tuple, d: tuple, e: tuple, x: tuple, y: tuple) -> bool:
    """state_eq(P, state_add(P, N, c, state_mul(P, d, e)), state_mul(P, x, y)),
    the same answer or exception, decided without building the sum or either
    product: T_l's image a_(nl) + eps(l) l^(k-1) a_(n/l) against a_l a_n.
    A sum or product that keeps no digit raises PrecisionLossError here, as
    in the composition: at the n whose image term or a_l a_n it is."""
    vc, uc, rc = c
    vd, ud, rd = d
    ve, ue, re = e
    vx, ux, rx = x
    vy, uy, ry = y
    vde, vxy = vd + ve, vx + vy
    # the sum is known modulo p^top: the lower absolute precision of c and
    # d e (its rel never reaches the cap N, as each summand keeps <= N digits)
    top = vde + (rd if rd < re else re)
    if vc + rc < top:
        top = vc + rc
    if uc is None or ud is None or ue is None or ux is None or uy is None or top < 1:
        # a zero, or a sum that may cancel to no digit and raise
        return state_eq(P, state_add(P, N, c, state_mul(P, d, e)), state_mul(P, x, y))
    # the two sides agree to both absolute precisions exactly when
    # c + d e - x y vanishes modulo p^top, top now the least of them; over
    # p^low, low the least valuation, a term shifted by top - low or more
    # digits vanishes there (and would lie past P)
    rel = rx if rx < ry else ry
    if vxy + rel < top:
        top = vxy + rel
    low = vc if vc < vde else vde
    if vxy < low:
        low = vxy
    m = top - low
    total = 0
    if vc - low < m:
        total = uc * P[vc - low]
    if vde - low < m:
        total += ud * ue * P[vde - low]
    if vxy - low < m:
        total -= ux * uy * P[vxy - low]
    return total % P[m] == 0


# -- Teichmuller lift and one-unit functions -------------------------------


TEICH_CACHE_SIZE = 4


@lru_cache(maxsize=TEICH_CACHE_SIZE)
def _teich_unit(p: int, precision: int) -> tuple:
    """The Teichmuller lifts mod p^N as (row, dlog): row[j] = omega(g)^j mod
    p^N for j = 0..p-2, g the least primitive root mod p, and dlog[a] the j
    with g^j = a mod p for a = 1..p-1 (dlog[0] is None), so that
    omega^e(a) = row[e * dlog[a % p] % (p - 1)] for a prime to p.

    a = omega(a) * <a> with <a> = 1 mod p, so <a>^(p^(N-1)) = 1 mod p^N and
    g^(p^(N-1)) = omega(g) mod p^N: a table costs one modular power and
    p - 2 products.  Cached per (p, N), least recently used first out beyond
    TEICH_CACHE_SIZE = 4 tables: a scan reads N (the series and the L-value
    sums) and N + 1 (the guard digit of generalized_bernoulli) at one prime
    in an unbroken run, and N + 1 + v_p(n) where the guard digits of
    lp_interpolation at n = k add v_p(k) > 0."""
    g = 1
    while True:  # the least g whose powers mod p run through every residue
        g += 1
        dlog, x = [None] * p, 1
        for j in range(p - 1):
            if dlog[x] is not None:  # g^j = 1 before j = p - 1
                break
            dlog[x], x = j, x * g % p
        else:
            break
    mod = p**precision
    w = pow(g, p ** (precision - 1), mod)
    row = [1]
    for _ in range(p - 2):
        row.append(row[-1] * w % mod)
    return tuple(row), tuple(dlog)


def state_char(P: tuple, N: int, e: int, a: int, n: int) -> tuple:
    """State of omega^e(a) * a^n for an integer a prime to p (n may be
    negative): a unit known to N digits, omega^e(a) read from the table of
    lifts."""
    p, mod = P[1], P[N]
    row, dlog = _teich_unit(p, N)
    return 0, row[e * dlog[a % p] % (p - 1)] * pow(a, n, mod) % mod, N


def teichmuller(a: int, ctx: PadicContext) -> PadicNumber:
    """Teichmuller lift omega(a) for an integer a coprime to p."""
    if a % ctx.p == 0:
        raise ValueError(f"{a} is divisible by p = {ctx.p}; no Teichmuller lift")
    return PadicNumber.from_state(ctx, state_char(ctx.powers, ctx.precision, 1, a, 0))


def log_one_unit(u: PadicNumber) -> PadicNumber:
    """p-adic logarithm of a one-unit, by the alternating series in z = u - 1.

    Every term keeps rel(z) digits and has valuation at least v(z), so by
    the sum rule (module docstring) the sum is known modulo p^A with
    A = v(z) + rel(z) <= N; it is summed as one integer over D = lcm(1..K),
    K the last index (see _over_denominator).  D divides K! and carries only
    p^floor(log_p(K)), where K! would carry about K/(p-1) powers of p, so the
    Horner pass runs modulo a few digits past p^A.

    Truncation: term n is z^n/n with valuation >= n*v(z) - floor(log_p(n)),
    which never decreases in n, so the series stops once the next index
    already clears A.  Result has valuation v(z) >= 1.
    """
    ctx = u.ctx
    N, p, P = ctx.precision, ctx.p, ctx.powers
    vz, uz, rz = z = state_add(P, N, u.state, state_neg(P, state_of_int(P, N, 1)))
    if uz is None:
        return PadicNumber.from_state(ctx, z)
    if vz < 1:
        raise ValueError("log_one_unit needs u = 1 mod p")
    A = vz + rz
    K = 1
    # the least K with (K + 1) v(z) - floor(log_p(K + 1)) >= A, where
    # floor(log_p(n)) bounds v_p(m) for every m >= n up to the next power
    while (K + 1) * vz - _floor_log(K + 1, p) < A:
        K += 1
    D, g = lcm(*range(1, K + 1)), _floor_log(K, p)
    M, Z = P[A] * P[g], uz * P[vz]
    total = 0  # sum_(m >= n) (-1)^(m-1) Z^(m-n+1) D/m mod p^(A+g)
    for n in range(K, 0, -1):
        c = D // n
        total = (total + (c if n % 2 else -c)) * Z % M
    total = _over_denominator(total, D % M, P, A, g)
    return PadicNumber.from_state(ctx, state_normalize(P, N, vz, total // P[vz], rz))


def _floor_log(n: int, p: int) -> int:
    e = 0
    while p**(e + 1) <= n:
        e += 1
    return e


def _over_denominator(S: int, D: int, P: tuple, A: int, g: int) -> int:
    """sum mod p^A from S = D * sum and D = w p^g, both mod p^(A+g), for a
    sum in Z_p: S is then 0 mod p^g, so S / p^g = w * sum mod p^A, and one
    product with w^(-1) mod p^A leaves the sum, the exact value of its terms
    modulo p^A as the sum rule (module docstring) states it."""
    mod = P[A]
    return S // P[g] * pow(D // P[g], -1, mod) % mod


def exp_small(x: PadicNumber) -> PadicNumber:
    """p-adic exponential for v(x) >= 1 (convergent since p >= 3).

    Term 0 is 1, known to N digits, and every later term keeps rel(x) digits
    at valuation at least v(x), so by the sum rule (module docstring) the sum
    is known modulo p^A with A = min(N, v(x) + rel(x)); it is summed as one
    integer over K!, K the last index (see _over_denominator).

    Truncation: term n is x^n/n! with valuation >= n*v(x) - (n-1)/(p-1),
    strictly increasing, so summation stops once the next index clears A.
    """
    ctx = x.ctx
    N, p, P = ctx.precision, ctx.p, ctx.powers
    if x.is_zero_to_precision:
        return PadicNumber.from_state(ctx, state_normalize(P, N, 0, 1, x.min_valuation))
    if x.valuation < 1:
        raise ValueError("exp_small needs v(x) >= 1")
    vx, ux, rx = x.state
    A = vx + rx if vx + rx < N else N
    K = 1
    # the least K with (K + 1) v(x) - K/(p-1) >= A, checked in integers
    while (K + 1) * vx * (p - 1) - K < A * (p - 1):
        K += 1
    g, q = 0, K  # g = v_p(K!) (Legendre) <= (K - 1)/(p - 1) < A, so P holds p^g
    while q:
        q //= p
        g += q
    M = P[A] * P[g]
    X = ux * pow(p, vx, M)
    total = f = 1  # sum_(m >= n) X^(m-n) K!/m! and K!/n! mod p^(A+g)
    for n in range(K, 0, -1):
        f = f * n % M
        total = (total * X + f) % M
    total = _over_denominator(total, f, P, A, g)
    return PadicNumber.from_state(ctx, state_normalize(P, N, 0, total, A))


# -- textual form ----------------------------------------------------------


def format_padic(x: PadicNumber) -> str:
    """Render as a base-p digit expansion with an O(p^A) tail marker, e.g.
    ``3 + 1*5 + 2*5^3 + O(5^20)``.  Zero digits are omitted; a bare marker
    means zero to that precision."""
    p = x.ctx.p
    parts = []
    if not x.is_zero_to_precision:
        for offset, d in enumerate(x.digits()):
            if d == 0:
                continue
            e = x.valuation + offset
            if e == 0:
                parts.append(str(d))
            elif e == 1:
                parts.append(f"{d}*{p}")
            else:
                parts.append(f"{d}*{p}^{e}")
    parts.append(f"O({p}^{x.abs_precision})")
    return " + ".join(parts)
