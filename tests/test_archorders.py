"""Trivial-zero parity rules for archimedean L-functions and the Selmer
dimensions they reproduce."""

import pytest

from eiszeta.archorders import arch_order, selmer_dims
from eiszeta.kubota import AdmissibilityError


def test_nontrivial_even_character_at_2_minus_k():
    for k in range(2, 12):
        parity = 1 if k % 2 == 0 else -1
        assert arch_order(parity, False, 2 - k) == 1


def test_nonvanishing_at_k():
    for k in range(2, 12):
        parity = 1 if k % 2 == 0 else -1
        assert arch_order(parity, False, k) == 0


def test_zeta_at_negative_one():
    # zeta(-1) = -1/12 != 0: odd negative integers are not trivial zeros of zeta
    assert arch_order(1, True, -1) == 0


def test_zeta_trivial_zeros():
    assert arch_order(1, True, -2) == 1
    assert arch_order(1, True, -4) == 1
    assert arch_order(1, True, 0) == 0  # zeta(0) = -1/2


def test_zeta_pole_is_order_minus_one():
    assert arch_order(1, True, 1) == -1
    assert arch_order(1, True, 2) == 0
    assert arch_order(1, False, 1) == 0  # only zeta has the pole


def test_even_character_parity_rule():
    q = lambda s: arch_order(1, False, s)
    assert [q(s) for s in (0, -1, -2, -3, -4)] == [1, 0, 1, 0, 1]


def test_odd_character_parity_rule():
    q = lambda s: arch_order(-1, False, s)
    assert [q(s) for s in (0, -1, -2, -3, -4)] == [0, 1, 0, 1, 0]


def test_negative_control_distinguishes_parities():
    # an even nontrivial character does not vanish at -1
    assert arch_order(1, False, -1) == 0


def test_reflection_bookkeeping():
    # for nontrivial characters exactly one of {s0, 1-s0} carries the zero
    # when s0 <= 0 (the reflected point lands in the nonvanishing region)
    for parity in (1, -1):
        for s0 in range(-9, 1):
            total = arch_order(parity, False, s0) + arch_order(parity, False, 1 - s0)
            expected = 1 if (s0 % 2 == 0) == (parity == 1) else 0
            assert total == expected


def test_trivial_character_is_even():
    with pytest.raises(ValueError, match="the trivial character is even"):
        arch_order(-1, True, 0)


def test_parity_must_be_a_sign():
    for parity in (0, 2, -2):
        with pytest.raises(ValueError, match="parity must be"):
            arch_order(parity, False, 0)


class TestSelmerDims:
    def test_example_p5(self):
        assert selmer_dims(4, 0, 5) == (1, 0)

    def test_example_p7_odd_character(self):
        assert selmer_dims(3, 1, 7) == (1, 0)

    def test_full_admissible_grid(self):
        for p in (5, 7, 11, 13):
            for k in range(2, 21):
                for i in range(0, p - 1):
                    if (k - i) % 2 or (k == 2 and i == 0):
                        continue
                    assert selmer_dims(k, i, p) == (1, 0), (p, k, i)

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            selmer_dims(2, 0, 5)
        with pytest.raises(AdmissibilityError):
            selmer_dims(3, 0, 5)
