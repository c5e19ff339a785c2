"""One round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed S --round R --trace 0|1
                                --spawned-at T [--inject-fault]

``run.py`` starts one worker per round, so every round begins from cold
caches, as a user's invocation does, and nothing one round leaves in the
process (cache contents, heap growth) can slow the next.  The worker builds
the inputs from (workload, seed) alone, so every round of a run repeats the
same ops; it times the ops, runs the oracles after the timed ops and prints
one JSON object.  ``T`` is
the CLOCK_MONOTONIC reading taken by the parent just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
generation.

Before each op the worker also times a fixed pure-Python job that uses no
eiszeta code (``reference_work``), outside the op's timed interval.  The
mean of these samples measures how fast the shared host ran this round;
``run.py`` uses it to express the round's times at a fixed host speed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"  # scratch files of a run, removed at its end
SPAN_DIR = ROOT / ".perfbench_out"  # spans of the last traced run of each workload
DIGESTS = HERE / "digests.json"

clock = time.perf_counter
CHILD_TIMEOUT_S = 170


def monotonic() -> float:
    """A clock shared by all processes of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ------------------------------------------------------------------

SCAN_P = (5, 23)
SCAN_K0 = (2, 12)  # k window [k0, k0+1]; digests.json covers every k0
SCAN_N, SCAN_M = 20, 200
ZERO_PRIMES = (37, 59, 67)
ZERO_N = 10
DEEP_PRIMES = (5, 7, 11, 13)
DEEP_M = (2000, 5000)
DEEP_K = (2, 12)
DEEP_N = 20
DEEP_OPS_PER_PRIME = 6
CENSUS_CENTRES = (300, 400, 500, 600, 700)
# reference samples taken before each op: about 1.5 ms each, so under a tenth
# of the time of an op on every workload
REF_SAMPLES_PER_OP = {"scan_window": 1, "zero_locus": 20, "deep_qexp": 10, "irregular_census": 20}


def _admissible(p: int, k: int) -> list[int]:
    return [i for i in range(p - 1) if (k - i) % 2 == 0 and not (k == 2 and i == 0)]


def make_inputs(workload: str, rng: random.Random) -> list[dict]:
    """The ops of a run.  Inputs are drawn from fixed strata, so the mix of
    cheap and expensive ops is nearly the same for every seed."""
    if workload == "scan_window":
        k0 = rng.randint(*SCAN_K0)
        return [{"p_from": SCAN_P[0], "p_to": SCAN_P[1], "k_from": k0, "k_to": k0 + 1,
                 "N": SCAN_N, "M": SCAN_M}]
    if workload == "zero_locus":
        # the irregular primes below 100, in seeded order.  The set is fixed
        # because their costs differ 3x; the ones from 101 to 157 cost 2-12 s
        # each, too long an op to time steadily on a shared machine
        primes = list(ZERO_PRIMES)
        rng.shuffle(primes)
        return [{"p": p, "N": ZERO_N} for p in primes]
    if workload == "deep_qexp":
        # each prime equally often; M stratified, one slot of the range per op
        ps = list(DEEP_PRIMES) * DEEP_OPS_PER_PRIME
        slots = list(range(len(ps)))
        rng.shuffle(ps)
        rng.shuffle(slots)
        lo, hi = DEEP_M
        ops = []
        for p, slot in zip(ps, slots):
            M = lo + int((hi - lo) * (slot + rng.random()) / len(slots))
            k = rng.randint(*DEEP_K)
            ops.append({"p": p, "k": k, "i": rng.choice(_admissible(p, k)), "N": DEEP_N, "M": M})
        return ops
    if workload == "irregular_census":
        # one prime per centre, of the two primes nearest to it
        ops = []
        for c in CENSUS_CENTRES:
            near = sorted(oracles.primes_between(c - 60, c + 60), key=lambda q: (abs(q - c), q))
            ops.append({"p": rng.choice(near[:2])})
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- host speed reference ----------------------------------------------------------


def reference_work() -> int:
    """A fixed job in the style of the program's exact arithmetic (stdlib
    Fractions, their squares in a dict, printed to strings) that shares no
    code with it, so no change to eiszeta can change its time."""
    xs = [Fraction(i * i + 1, 2 * i + 3) for i in range(1, 400)]
    table = {i: x * x for i, x in enumerate(xs)}
    return sum(len(str(v)) for v in table.values())


class Reference:
    """Times ``reference_work`` between ops, never inside one."""

    def __init__(self, per_op: int):
        self.per_op = per_op
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.per_op):
            t = clock()
            reference_work()
            self.samples.append(clock() - t)


# -- timed operations ------------------------------------------------------------


def run_scan(inp: dict, tracer, ref: Reference) -> tuple[list[float], list]:
    """One scan over the window, serialised to memory; an op is one record.
    A record's latency runs from write_scan asking for it to write_scan asking
    for the next one, so it covers analysis and serialisation."""
    from eiszeta import analyzer

    lat: list[float] = []

    def timed(records):
        it = iter(records)
        while True:
            ref.sample()
            if tracer is not None:
                tracer.op = len(lat)
            t = clock()
            try:
                rec = next(it)
            except StopIteration:
                return
            yield rec
            # resumed when write_scan asks for the next record
            lat.append(clock() - t)

    buf = io.StringIO()
    try:
        analyzer.write_scan(timed(analyzer.scan_records(
            inp["p_from"], inp["p_to"], k_from=inp["k_from"], k_to=inp["k_to"],
            precision=inp["N"], terms=inp["M"])), buf)
    except Exception as e:  # an op that raises is a failed op, not a crashed round
        return lat, [f"raised {e!r}"]
    return lat, [buf.getvalue()]


def _one_op(fn, inp):
    t = clock()
    try:
        out = fn(inp)
    except Exception as e:  # counted as a failed op
        out = f"raised {e!r}"
    return clock() - t, out


def run_ops(workload: str, ops: list[dict], tracer, ref: Reference,
            args) -> tuple[list[float], list]:
    from eiszeta import analyzer, kubota
    from eiszeta.padic import PadicContext

    if workload == "scan_window":
        return run_scan(ops[0], tracer, ref)
    if workload == "zero_locus":
        def fn(inp):
            return kubota.irregular_scan(inp["p"], PadicContext(inp["p"], inp["N"]))
    elif workload == "deep_qexp":
        def fn(inp):
            return analyzer.analyze_point(inp["p"], inp["k"], inp["i"],
                                          precision=inp["N"], terms=inp["M"])
    else:
        fn = _census_op(bool(args.trace), args)
    lat, outs = [], []
    for n, inp in enumerate(ops):
        if tracer is not None:
            tracer.op = n
        inp["op"] = n
        ref.sample()
        dt, out = _one_op(fn, inp)
        lat.append(dt)
        outs.append(out)
    return lat, outs


def _census_op(traced: bool, args):
    def fn(inp):
        p, n = str(inp["p"]), inp["op"]
        out = RUN_DIR / f"census-{os.getpid()}-{n}.jsonl"
        cli = ["scan", "--irregular-only", "--p-from", p, "--p-to", p, "--out", str(out)]
        if traced:
            summary = RUN_DIR / f"census-{os.getpid()}-{n}.trace.json"
            spans = SPAN_DIR / "irregular_census" / f"r{args.round}-op{n}.spans.jsonl"
            cmd = [sys.executable, str(HERE / "tracechild.py"), "--spawned-at", repr(monotonic()),
                   "--summary", str(summary), "--spans", str(spans), "--", *cli]
        else:
            cmd = [sys.executable, "-m", "eiszeta.cli", *cli]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return {"returncode": proc.returncode, "out": out, "stderr": proc.stderr[-500:],
                "summary": summary if traced else None}
    return fn


# -- outputs and oracles -----------------------------------------------------------


def collect(workload: str, outs: list) -> list:
    """Turn raw op results into plain data the oracles read (after timing)."""
    from eiszeta.analyzer import report_to_dict

    rows = []
    for out in outs:
        if isinstance(out, str):
            rows.append(out)  # a raised exception, or the scan's JSONL
        elif workload == "zero_locus":
            rows.append([(j, w.branch, w.grid_precision, w.baseline_valuation, len(w.elevated))
                         for j, w in out])
        elif workload == "deep_qexp":
            rows.append(report_to_dict(out))
        else:
            path = out["out"]
            text = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
            rows.append({"returncode": out["returncode"], "stderr": out["stderr"],
                         "records": [json.loads(line) for line in text.splitlines()]})
    return rows


def inject_fault(workload: str, rows: list) -> None:
    """Corrupt the first op's output: one flipped digit or one dropped branch."""
    first = rows[0]
    if workload == "scan_window":
        lines = first.splitlines()
        rec = json.loads(lines[0])
        digits = rec["up_eigenvalue"]["unit_digits_base_p"]
        digits[0] = (digits[0] + 1) % rec["p"]
        lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        rows[0] = "\n".join(lines) + "\n"
    elif workload == "deep_qexp":
        digits = first["up_eigenvalue"]["unit_digits_base_p"]
        digits[0] = (digits[0] + 1) % first["p"]
    elif workload == "zero_locus":
        first.pop()
    elif first["records"]:
        first["records"].pop()
    else:
        first["records"].append({"type": "irregular_branch", "p": 0, "branch": 0,
                                 "bernoulli_numerator_divisible": True})


def check(workload: str, ops: list[dict], rows: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the round."""
    if workload == "scan_window":
        return _check_scan(ops[0], rows[0])
    failed, problems = 0, []
    for inp, row in zip(ops, rows):
        if isinstance(row, str):
            bad = [f"{inp}: {row}"]
        elif workload == "zero_locus":
            bad = oracles.check_zero_locus(inp["p"], inp["N"], row)
        elif workload == "deep_qexp":
            bad = oracles.check_point(row, inp["p"], inp["k"], inp["i"], inp["N"], inp["M"],
                                      oracles.bernoulli_mod_p(inp["p"]))
        else:
            bad = []
            if row["returncode"] != 0:
                bad.append(f"p={inp['p']}: exit code {row['returncode']}: {row['stderr']}")
            if row["records"] != oracles.census_records(inp["p"]):
                bad.append(f"p={inp['p']}: records differ from the oracle's")
        failed += bool(bad)
        problems += bad
    return len(ops), failed, problems


def _check_scan(inp: dict, text: str) -> tuple[int, int, list[str]]:
    points = [pt for p in oracles.primes_between(inp["p_from"], inp["p_to"])
              for pt in oracles.admissible_points(p, inp["k_from"], inp["k_to"])]
    if text.startswith("raised "):
        return len(points), len(points), [text]
    lines = text.splitlines()
    problems = []
    if len(lines) != len(points):
        problems.append(f"{len(lines)} records, expected {len(points)}")
    failed = max(len(points) - len(lines), 0)
    bern: dict[int, dict] = {}
    for line, (p, k, i) in zip(lines, points):
        rec = json.loads(line)
        bad = [] if rec.pop("type", None) == "point" else [f"(p={p},k={k},i={i}): not a point"]
        bad += oracles.check_point(rec, p, k, i, inp["N"], inp["M"],
                                   bern.setdefault(p, oracles.bernoulli_mod_p(p)))
        failed += bool(bad)
        problems += bad
    key = f"{inp['p_from']}-{inp['p_to']}:{inp['k_from']}-{inp['k_to']}"
    want = json.loads(DIGESTS.read_text()).get(key)
    if oracles.sha256(text) != want:
        # the output is not byte-identical to the recorded scan: every record
        # of the round counts as failed
        problems.append(f"scan {key}: JSONL digest differs from digests.json")
        failed = len(points)
    return len(points), failed, problems


# -- entry point -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    # one CPU for the worker and its children, so the reference job runs on
    # the CPU that runs the ops
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import eiszeta

    src = (ROOT / "src").resolve()
    if Path(eiszeta.__file__).resolve().parent.parent != src:
        print(f"eiszeta was imported from {eiszeta.__file__}, not {src}", file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = make_inputs(args.workload, rng)
    RUN_DIR.mkdir(exist_ok=True)
    if args.trace:
        (SPAN_DIR / args.workload).mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace and args.workload != "irregular_census":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = monotonic() - args.spawned_at

    ref = Reference(REF_SAMPLES_PER_OP[args.workload])
    lat, outs = run_ops(args.workload, ops, tracer, ref, args)

    census = args.workload == "irregular_census"
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if census else resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.dump_spans(SPAN_DIR / args.workload / f"r{args.round}.spans.jsonl")
        trace = {"summary": tracer.summary(), "process_start_s": []}
    elif args.trace:
        import tracer as tracing

        children = []
        for o in outs:
            if isinstance(o, dict) and o["summary"].exists():
                children.append(json.loads(o["summary"].read_text()))
                o["summary"].unlink()
        trace = {"summary": tracing.merge([c["summary"] for c in children]),
                 "process_start_s": [c["process_start_s"] for c in children]}
    rows = collect(args.workload, outs)
    if args.inject_fault:
        inject_fault(args.workload, rows)
    attempted, failed, problems = check(args.workload, ops, rows)
    print(json.dumps({
        "inputs": ops,
        "setup_s": setup_s,
        "latencies": lat,
        "ref_samples_s": ref.samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "rss_mb": rss_kb / 1024,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
