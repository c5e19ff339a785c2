"""Teichmuller-power Dirichlet characters."""

from math import gcd

import pytest

from eiszeta.characters import TeichCharacter
from eiszeta.padic import PadicContext, PadicNumber

CTX5 = PadicContext(5, 12)


def test_trivial_character_everywhere_one():
    chi = TeichCharacter(5, 0)
    one = PadicNumber.from_int(1, CTX5)
    for a in list(range(1, 12)) + [5, 25]:
        assert chi.value(a, CTX5) == one


def test_quadratic_is_legendre_symbol():
    chi = TeichCharacter(5, 2)
    for a in range(1, 5):
        legendre = pow(a, 2, 5)  # a^((p-1)/2) mod p
        legendre = 1 if legendre == 1 else -1
        assert chi.value(a, CTX5) == PadicNumber.from_int(legendre, CTX5)
    assert chi.value(2, CTX5) == PadicNumber.from_int(-1, CTX5)


def test_conductor_p_kills_p():
    chi = TeichCharacter(5, 1)
    assert chi.value(5, CTX5).is_zero_to_precision
    assert chi.value(10, CTX5).is_zero_to_precision


def test_parity():
    ctx7 = PadicContext(7, 8)
    # omega(-1) = -1, so omega^i(-1) = (-1)^i
    assert TeichCharacter(7, 3).value(-1, ctx7) == PadicNumber.from_int(-1, ctx7)
    assert TeichCharacter(7, 4).value(-1, ctx7) == PadicNumber.from_int(1, ctx7)


@pytest.mark.parametrize("p,i", [(5, 1), (5, 2), (7, 3), (7, 2), (11, 4)])
def test_complete_multiplicativity(p, i):
    ctx = PadicContext(p, 10)
    chi = TeichCharacter(p, i)
    for a in range(1, 20):
        for b in range(1, 20):
            if a % p and b % p:
                assert chi.value(a * b, ctx) == chi.value(a, ctx) * chi.value(b, ctx)


@pytest.mark.parametrize("p,i", [(5, 2), (7, 2), (7, 3), (11, 5), (13, 4)])
def test_values_have_exact_order(p, i):
    ctx = PadicContext(p, 10)
    chi = TeichCharacter(p, i)
    one = PadicNumber.from_int(1, ctx)
    order = (p - 1) // gcd(i, p - 1)
    for a in range(1, p):
        assert chi.value(a, ctx) ** order == one
