"""Dirichlet characters of conductor dividing p: the powers omega^i of the
Teichmuller character.  Values land in Z_p itself, so no cyclotomic extension
arithmetic is ever needed."""

from __future__ import annotations

from dataclasses import dataclass

from .padic import PadicContext, PadicNumber, state_char
from .primes import require_odd_prime

__all__ = ["TeichCharacter"]


@dataclass(frozen=True)
class TeichCharacter:
    """omega^i modulo p, with 0 <= i < p-1 canonical.

    The trivial character takes the value 1 at multiples of p while every
    other one kills them (conductor 1 against conductor p).
    """

    p: int
    exponent: int

    def __post_init__(self):
        require_odd_prime(self.p)
        object.__setattr__(self, "exponent", self.exponent % (self.p - 1))

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def value(self, a: int, ctx: PadicContext) -> PadicNumber:
        """omega^i(a); exact 0 at multiples of p unless the character is trivial."""
        if ctx.p != self.p:
            raise ValueError("context prime differs from character prime")
        if a % self.p == 0:
            if self.is_trivial:
                return PadicNumber.from_int(1, ctx)
            return PadicNumber.from_int(0, ctx)
        return PadicNumber.from_state(ctx, state_char(ctx.powers, ctx.precision, self.exponent, a, 0))
