"""Order of vanishing of archimedean Dirichlet L-functions at integers, from
the trivial-zero parity rule alone, and the Selmer dimensions it reproduces.

No numerical analysis happens here: the Gamma-factor forces simple zeros at
one parity class of non-positive integers and nonvanishing at s >= 1 (with
the pole of zeta at s = 1 as order -1), and that combinatorial rule is
exact.
"""

from __future__ import annotations

from .kubota import WeightPoint

__all__ = ["arch_order", "selmer_dims"]


def arch_order(parity: int, is_trivial: bool, s0: int) -> int:
    """ord_{s=s0} L(s, chi) for a character known only through its parity
    chi(-1) = +1 or -1 and its triviality, at an integer s0.

    s0 >= 1: no zero, order 0, except the pole of zeta at s0 = 1, order -1.
    s0 <= 0: a simple trivial zero, order 1, when the parity matches: even
    nontrivial chi vanishes at 0, -2, -4, ...; odd chi at -1, -3, ...; zeta
    at -2, -4, ... only (zeta(0) = -1/2 != 0).
    """
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    if is_trivial and parity != 1:
        raise ValueError("the trivial character is even")
    if s0 >= 1:
        return -1 if is_trivial and s0 == 1 else 0
    if is_trivial and s0 == 0:
        return 0
    return 1 if (s0 % 2 == 0) == (parity == 1) else 0


def selmer_dims(k: int, i: int, p: int) -> tuple[int, int]:
    """Bloch-Kato Selmer dimensions attached to a critical weight (k, i):
    (ord at 2-k of L(s, eps^(-1)), ord at k of L(s, eps)).

    Computed through :func:`arch_order`, never hard-coded; the parity rule
    yields (1, 0) on every admissible input.
    """
    w = WeightPoint.critical(p, k, i)
    parity = -1 if w.i % 2 else 1  # eps and eps^(-1) share parity
    return (arch_order(parity, w.i == 0, 2 - k), arch_order(parity, w.i == 0, k))
