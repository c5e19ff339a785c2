"""Span recorder for the traced run.

``Tracer.install`` wraps the public functions of each ``eiszeta`` layer and
rebinds every module attribute that refers to the original object, so a name
imported with ``from .kubota import zeta_weight`` is traced in ``analyzer`` and
``qexp`` as well as in ``kubota``.  Each call becomes a span
``[name, start, end, parent, op]`` kept in memory until the round ends; a
span's self time is its duration minus the durations of its direct children,
which also covers the recursive ``lp_series`` call at s = 1.  The arithmetic
dunders of ``PadicNumber`` are too hot for spans and are only counted.

The untraced run never imports this module.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name)
SPANS = (
    ("eiszeta.padic", "exp_small", "padic.exp_small"),
    ("eiszeta.padic", "log_one_unit", "padic.log_one_unit"),
    ("eiszeta.padic", "teichmuller", "padic.teichmuller"),
    ("eiszeta.characters", "TeichCharacter.value", "characters.value"),
    ("eiszeta.bernoulli", "bernoulli_number", "bernoulli.bernoulli_number"),
    ("eiszeta.bernoulli", "generalized_bernoulli", "bernoulli.generalized_bernoulli"),
    ("eiszeta.kubota", "lp_series", "kubota.lp_series"),
    ("eiszeta.kubota", "lp_interpolation", "kubota.lp_interpolation"),
    ("eiszeta.kubota", "irregular_branches", "kubota.irregular_branches"),
    ("eiszeta.kubota", "zeta_weight", "kubota.zeta_weight"),
    ("eiszeta.qexp", "eisenstein_critical", "qexp.eisenstein_critical"),
    ("eiszeta.qexp", "eisenstein_ordinary", "qexp.eisenstein_ordinary"),
    ("eiszeta.qexp", "verify_eigensystem", "qexp.verify_eigensystem"),
    ("eiszeta.qexp", "theta_twin_check", "qexp.theta_twin_check"),
    ("eiszeta.archorders", "selmer_dims", "archorders.selmer_dims"),
    ("eiszeta.analyzer", "analyze_point", "analyzer.analyze_point"),
    ("eiszeta.analyzer", "report_to_dict", "analyzer.report_to_dict"),
    ("eiszeta.analyzer", "write_scan", "analyzer.write_scan"),
    ("eiszeta.cli", "main", "cli.main"),
)

# counter -> PadicNumber dunders it counts; __sub__/__rsub__/__rtruediv__
# delegate to __add__/__truediv__ and are counted there
DUNDERS = {
    "padic.mul.calls": ("__mul__", "__rmul__"),
    "padic.add.calls": ("__add__", "__radd__"),
    "padic.div.calls": ("__truediv__",),
    "padic.pow.calls": ("__pow__",),
}

# per-layer metric -> unit, in report order
PER_LAYER = {
    "padic.mul.calls": "calls/op",
    "padic.add.calls": "calls/op",
    "padic.div.calls": "calls/op",
    "padic.pow.calls": "calls/op",
    "padic.exp_small.calls": "calls/op",
    "padic.exp_small.self_s": "s/op",
    "padic.log_one_unit.calls": "calls/op",
    "padic.log_one_unit.self_s": "s/op",
    "padic.teichmuller.calls": "calls/op",
    "padic.teich_cache.hit_frac": "ratio",
    "characters.value.calls": "calls/op",
    "characters.value.self_s": "s/op",
    "bernoulli.bernoulli_number.calls": "calls/op",
    "bernoulli.bernoulli_number.self_s": "s/op",
    "bernoulli.bernoulli_number.max_index": "index",
    "bernoulli.generalized_bernoulli.calls": "calls/op",
    "bernoulli.generalized_bernoulli.self_s": "s/op",
    "kubota.lp_series.calls": "calls/op",
    "kubota.lp_series.self_s": "s/op",
    "kubota.lp_series.repeat_branch_frac": "ratio",
    "kubota.lp_series.repeat_arg_frac": "ratio",
    "kubota.lp_interpolation.calls": "calls/op",
    "kubota.lp_interpolation.self_s": "s/op",
    "kubota.irregular_branches.self_s": "s/op",
    "kubota.log_gamma_cache.hit_frac": "ratio",
    "qexp.eisenstein_critical.self_s": "s/op",
    "qexp.eisenstein_ordinary.self_s": "s/op",
    "qexp.verify_eigensystem.self_s": "s/op",
    "qexp.theta_twin_check.self_s": "s/op",
    "qexp.coeffs_built": "coeffs/op",
    "archorders.selmer_dims.self_s": "s/op",
    "analyzer.analyze_point.self_s": "s/op",
    "analyzer.report_to_dict.self_s": "s/op",
    "analyzer.write_scan.self_s": "s/op",
    "analyzer.bytes_written": "B/op",
    "cli.main.self_s": "s/op",
    "cli.process_start_s": "s/op",
    "trace.overhead_frac": "ratio",
}


def _arg_key(s):
    if isinstance(s, int):
        return ("int", s)
    if hasattr(s, "numerator"):
        return ("q", s.numerator, s.denominator)
    return ("padic", s.min_valuation, s.unit, s.rel_precision)


class Tracer:
    """Spans and counters of one process; ``op`` is set by the workload loop."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.max_bernoulli_index = 0
        self._branches_seen: set = set()
        self._args_seen: set = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import eiszeta  # noqa: F401  (loads every layer)
        import eiszeta.cli  # noqa: F401
        from eiszeta.padic import PadicNumber

        for module, path, name in SPANS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._span(name, original, getattr(self, "_before_" + attr, None),
                                 getattr(self, "_after_" + attr, None))
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "eiszeta":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for counter, dunders in DUNDERS.items():
            for dunder in dunders:
                setattr(PadicNumber, dunder, self._count(counter, getattr(PadicNumber, dunder)))

    def _span(self, name, fn, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    # -- hooks run before and after a traced call --------------------------------

    def _before_bernoulli_number(self, n, *args, **kwargs):
        self.max_bernoulli_index = max(self.max_bernoulli_index, n)

    def _before_lp_series(self, s, j, ctx):
        branch = (ctx.p, j % (ctx.p - 1), ctx.precision)
        if branch in self._branches_seen:
            self.counts["lp_series.repeat_branch"] += 1
        self._branches_seen.add(branch)
        arg = (self.op, branch, _arg_key(s))
        if arg in self._args_seen:
            self.counts["lp_series.repeat_arg"] += 1
        self._args_seen.add(arg)

    def _after_eisenstein_critical(self, result, *args):
        self.counts["qexp.coeffs_built"] += len(result.coeffs)

    _after_eisenstein_ordinary = _after_eisenstein_critical

    def _before_write_scan(self, records, stream):
        self._stream_start = stream.tell()

    def _after_write_scan(self, result, records, stream):
        self.counts["analyzer.bytes_written"] += stream.tell() - self._stream_start

    # -- summary -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals of this process: calls, self seconds, counters and
        cache statistics.  Summaries of several processes add up."""
        from eiszeta.kubota import _log_gamma_a
        from eiszeta.padic import _teich_unit

        dur = [end - start for _, start, end, _, _ in self.spans]
        self_s = list(dur)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= dur[k]
        calls: Counter = Counter()
        selfs: dict = defaultdict(float)
        for k, span in enumerate(self.spans):
            calls[span[0]] += 1
            selfs[span[0]] += self_s[k]
        teich, gamma = _teich_unit.cache_info(), _log_gamma_a.cache_info()
        return {
            "calls": dict(calls),
            "self_s": dict(selfs),
            "counts": dict(self.counts),
            "max_bernoulli_index": self.max_bernoulli_index,
            "teich_cache": [teich.hits, teich.misses],
            "log_gamma_cache": [gamma.hits, gamma.misses],
        }

    def dump_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes."""
    total = {"calls": Counter(), "self_s": Counter(), "counts": Counter(),
             "max_bernoulli_index": 0, "teich_cache": [0, 0], "log_gamma_cache": [0, 0]}
    for s in summaries:
        total["calls"].update(s["calls"])
        total["self_s"].update(s["self_s"])
        total["counts"].update(s["counts"])
        total["max_bernoulli_index"] = max(total["max_bernoulli_index"], s["max_bernoulli_index"])
        for cache in ("teich_cache", "log_gamma_cache"):
            total[cache] = [a + b for a, b in zip(total[cache], s[cache])]
    return total


def _frac(num, den):
    return num / den if den else 0.0


def per_layer(total: dict, ops: int, process_start_s: float, overhead_frac: float) -> dict:
    """The per-layer metrics, normalised per op, from merged summaries."""
    calls, selfs, counts = total["calls"], total["self_s"], total["counts"]
    values = {}
    for metric in PER_LAYER:
        if metric in DUNDERS or metric in ("qexp.coeffs_built", "analyzer.bytes_written"):
            values[metric] = counts.get(metric, 0) / ops
        elif metric.endswith(".calls"):
            values[metric] = calls.get(metric[: -len(".calls")], 0) / ops
        elif metric.endswith(".self_s"):
            values[metric] = selfs.get(metric[: -len(".self_s")], 0.0) / ops
    lp = calls.get("kubota.lp_series", 0)
    values.update({
        "padic.teich_cache.hit_frac": _frac(total["teich_cache"][0], sum(total["teich_cache"])),
        "bernoulli.bernoulli_number.max_index": total["max_bernoulli_index"],
        "kubota.lp_series.repeat_branch_frac": _frac(counts.get("lp_series.repeat_branch", 0), lp),
        "kubota.lp_series.repeat_arg_frac": _frac(counts.get("lp_series.repeat_arg", 0), lp),
        "kubota.log_gamma_cache.hit_frac":
            _frac(total["log_gamma_cache"][0], sum(total["log_gamma_cache"])),
        "cli.process_start_s": process_start_s,
        "trace.overhead_frac": overhead_frac,
    })
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}
