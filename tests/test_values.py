"""Every value the package reports is a plain frozen dataclass, so a context,
a p-adic number, a character, an L-value, a q-series and a whole point
report survive copy.deepcopy and pickle unchanged.

This module needs neither pytest nor hypothesis: with ``src`` and ``tests``
on the path, its test functions can be called from a bare interpreter."""

import copy
import dataclasses
import pickle
from fractions import Fraction

from eiszeta.analyzer import CriticalPointReport, analyze_point, report_to_dict
from eiszeta.characters import TeichCharacter
from eiszeta.kubota import LValue, lp_series
from eiszeta.padic import PadicContext, PadicNumber
from eiszeta.qexp import QExpansion, eisenstein_critical


def _copies(x):
    """x through copy.copy, copy.deepcopy and every pickle protocol."""
    yield copy.copy(x)
    yield copy.deepcopy(x)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(x, protocol))


def test_value_types_are_frozen_dataclasses():
    for cls in (PadicContext, PadicNumber, TeichCharacter, LValue, QExpansion,
                CriticalPointReport):
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" not in vars(cls), cls


def test_values_survive_copy_and_pickle():
    ctx = PadicContext(7, 12)
    for y in _copies(ctx):
        assert y == ctx and hash(y) == hash(ctx)

    for x in (PadicNumber.from_rational(Fraction(35, 3), ctx), ctx.zero(5)):
        for y in _copies(x):
            assert type(y) is PadicNumber
            assert (y.ctx, y.state) == (x.ctx, x.state) and y == x

    chi = TeichCharacter(7, 8)
    for y in _copies(chi):
        assert y == chi and y.exponent == 2
        assert y.value(3, ctx).state == chi.value(3, ctx).state

    lv = lp_series(5, 2, ctx)
    for y in _copies(lv):
        assert (y.value.state, y.branch, y.argument, y.route) == \
            (lv.value.state, lv.branch, lv.argument, lv.route)
        assert y.precision_achieved == lv.precision_achieved

    f = eisenstein_critical(7, 4, 2, 20, ctx)
    for y in _copies(f):
        assert (y.ctx, y.weight, y.char_exponent, y.states) == \
            (f.ctx, f.weight, f.char_exponent, f.states)


def test_reports_survive_copy_and_pickle():
    report = analyze_point(7, 4, 2, precision=12, terms=40)
    want = report_to_dict(report)
    for y in _copies(report):
        assert report_to_dict(y) == want
