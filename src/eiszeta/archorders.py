"""Order of vanishing of archimedean Dirichlet L-functions at integers, from
the trivial-zero parity rule alone, and the Selmer dimensions it reproduces.

No numerical analysis happens here: the Gamma-factor forces simple zeros at
one parity class of non-positive integers and nonvanishing at s >= 1 (with
the pole of zeta at s = 1 flagged separately), and that combinatorial rule is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kubota import WeightPoint

__all__ = ["ArchOrderQuery", "ArchOrder", "arch_order", "selmer_dims"]


@dataclass(frozen=True)
class ArchOrderQuery:
    """A character known only through its parity and triviality, and an
    integer argument."""

    parity: int  # chi(-1), +1 or -1
    is_trivial: bool
    s0: int

    def __post_init__(self):
        if self.parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        if self.is_trivial and self.parity != 1:
            raise ValueError("the trivial character is even")


@dataclass(frozen=True)
class ArchOrder:
    order: int
    is_pole: bool = False


def arch_order(q: ArchOrderQuery) -> ArchOrder:
    """ord_{s=s0} L(s, chi).

    s0 >= 1: no zero (for the trivial character, s0 = 1 is the pole, reported
    with order 0 and the pole flag).  s0 <= 0: a simple trivial zero when the
    parity matches: even nontrivial chi vanishes at 0, -2, -4, ...; odd chi
    at -1, -3, ...; zeta at -2, -4, ... only (zeta(0) = -1/2 != 0).
    """
    if q.s0 >= 1:
        return ArchOrder(0, is_pole=q.is_trivial and q.s0 == 1)
    if q.is_trivial:
        return ArchOrder(1 if q.s0 < 0 and q.s0 % 2 == 0 else 0)
    if q.parity == 1:
        return ArchOrder(1 if q.s0 % 2 == 0 else 0)
    return ArchOrder(1 if q.s0 % 2 != 0 else 0)


def selmer_dims(k: int, i: int, p: int) -> tuple[int, int]:
    """Bloch-Kato Selmer dimensions attached to a critical weight (k, i):
    (ord at 2-k of L(s, eps^(-1)), ord at k of L(s, eps)).

    Computed through :func:`arch_order`, never hard-coded; the parity rule
    yields (1, 0) on every admissible input.
    """
    w = WeightPoint.critical(p, k, i)
    eps_trivial = w.i == 0
    parity = -1 if w.i % 2 else 1  # eps and eps^(-1) share parity
    dim_chi = arch_order(ArchOrderQuery(parity, eps_trivial, 2 - k)).order
    dim_chi_inv = arch_order(ArchOrderQuery(parity, eps_trivial, k)).order
    return (dim_chi, dim_chi_inv)
