"""The eiszeta benchmark.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Rounds of the workload run one after another, each in a fresh worker process
(``worker.py``), until the next round would end after ``T`` seconds.  The
inputs come from (workload, seed), so every round repeats the same ops; every
op's output is checked by an oracle after it is timed.

The machine is shared: load from outside the process stretches wall times
(CPU time with them) by up to 2x, switching between a fast and a slow speed
many times a second, and the share of time spent slow drifts over minutes,
longer than a run.  Two corrections follow.  Every round also times a fixed
pure-Python reference job between its ops (``worker.reference_work``, no
eiszeta code, so no change to the program can move it), and the round's op
times are multiplied by ``REF_NOMINAL_S / mean reference time``: they are
reported at the host speed at which the reference job takes
``REF_NOMINAL_S``.  This removes the drift.  An op's time is then the median
of its corrected times over the rounds of the run, which removes what is left
of short bursts; the throughput, median and tail are taken over these per-op
times.  ``setup_s`` (interpreter start, imports and input generation) is
corrected with the same factor and is the median over the rounds.  The report
line keeps the uncorrected figures beside the corrected ones.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` each round runs twice on the same inputs, once plain and
once with the span recorder of ``tracer.py`` installed (alternating which goes
first), and the last line reports the per-layer metrics, including the
tracing overhead.  The line before it is a JSON report of the inputs, sample
counts, git revision, Python version and CPU count.

Exit code 0 when a result is printed; ``correct`` is false when any op
failed its oracle or a traced count contradicts the layer mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SPAN_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take
# the reference job's time at the host speed the reported times refer to (about
# its mean on the 2-vCPU host the baseline was measured on)
REF_NOMINAL_S = 0.0015

# workload -> the latency percentile reported as latency_tail_s, fixed so that
# the metric means the same thing on every run and every commit.  For
# scan_window (82-88 ops) and deep_qexp (24 ops) it is the highest percentile
# in steps of 5 that leaves at least ten ops beyond it.  zero_locus (3 ops) and
# irregular_census (5 ops) have too few ops for that; their tail is the
# slowest op.
TAIL_PCT = {"scan_window": 85, "zero_locus": 100, "deep_qexp": 55, "irregular_census": 100}

END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# traced metrics that must be non-zero, and ones that must be zero, on each
# workload (the layer-to-workload mapping in README.md)
PREDICTED = {
    "scan_window": (
        ["kubota.lp_series.calls", "padic.exp_small.calls", "characters.value.calls",
         "qexp.coeffs_built", "analyzer.analyze_point.self_s", "analyzer.report_to_dict.self_s",
         "analyzer.write_scan.self_s", "analyzer.bytes_written", "archorders.selmer_dims.self_s"],
        ["cli.main.self_s"],
    ),
    "zero_locus": (
        ["kubota.lp_series.calls", "padic.exp_small.calls", "padic.mul.calls",
         "kubota.irregular_branches.self_s", "kubota.lp_series.repeat_branch_frac"],
        ["qexp.coeffs_built", "analyzer.analyze_point.self_s", "cli.main.self_s"],
    ),
    "deep_qexp": (
        ["qexp.coeffs_built", "qexp.eisenstein_critical.self_s", "qexp.eisenstein_ordinary.self_s",
         "qexp.verify_eigensystem.self_s", "qexp.theta_twin_check.self_s",
         "characters.value.calls", "kubota.lp_series.calls", "kubota.lp_interpolation.calls"],
        ["analyzer.write_scan.self_s", "cli.main.self_s"],
    ),
    "irregular_census": (
        ["bernoulli.bernoulli_number.calls", "kubota.irregular_branches.self_s",
         "cli.main.self_s", "cli.process_start_s", "analyzer.write_scan.self_s"],
        ["qexp.coeffs_built", "kubota.lp_series.calls"],
    ),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_round(args, round_no: int, traced: int, env: dict, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_no), "--trace", str(traced)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    cmd += ["--spawned-at", repr(monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(DEADLINE_S - (monotonic() - started), 5))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any census child
        proc.communicate()
        raise SystemExit(f"round {round_no} of {args.workload} exceeded the run deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode}):\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    # the host switches between a fast and a slow speed (about 2x apart) many
    # times a second; the mean, unlike the median, follows the share of time
    # spent slow
    result["ref_s"] = statistics.fmean(result["ref_samples_s"])
    scale = REF_NOMINAL_S / result["ref_s"]
    result.update(round=round_no, traced=traced, scale=scale, raw_latencies=result["latencies"],
                  latencies=[t * scale for t in result["latencies"]],
                  raw_setup_s=result["setup_s"], setup_s=result["setup_s"] * scale)
    return result


def source_record() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eiszeta").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def op_times(rounds: list[dict], key: str = "latencies") -> list[float]:
    """Each op's median time over the rounds, which all ran the same ops."""
    return [statistics.median(ts) for ts in zip(*(r[key] for r in rounds))]


def timings(workload: str, rounds: list[dict], raw: bool = False) -> dict:
    times = op_times(rounds, "raw_latencies" if raw else "latencies")
    return {
        "throughput_ops_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": quantile(times, TAIL_PCT[workload] / 100),
        "setup_s": statistics.median(r["raw_setup_s" if raw else "setup_s"] for r in rounds),
    }


def end_to_end(workload: str, rounds: list[dict]) -> tuple[dict, dict]:
    times = op_times(rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = timings(workload, rounds) | {
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "ok_frac": 1 - failed / attempted,
    }
    tail = values["latency_tail_s"]
    info = {"ops": len(times), "repeats": len(rounds), "tail_pct": TAIL_PCT[workload],
            "tail_samples_beyond": sum(x > tail for x in times), "op_times_s": times,
            "ref_nominal_s": REF_NOMINAL_S,
            "scales": [r["scale"] for r in rounds],
            "uncorrected": timings(workload, rounds, raw=True)}
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}, info


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    import tracer as tracing

    ops = sum(len(r["latencies"]) for r in traced)
    overhead = sum(op_times(traced)) / sum(op_times(plain)) - 1
    starts = [s for r in traced for s in r["trace"]["process_start_s"]]
    metrics = tracing.per_layer(
        tracing.merge([r["trace"]["summary"] for r in traced]), ops,
        statistics.median(starts) if starts else 0.0,
        overhead,
    )
    nonzero, zero = PREDICTED[workload]
    problems = [f"{m} is 0 on {workload}" for m in nonzero if not metrics[m]["value"]]
    problems += [f"{m} is not 0 on {workload}" for m in zero if metrics[m]["value"]]
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first op's output of every round (oracle self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "eiszeta" / "__init__.py").is_file():
        print(f"error: no eiszeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if args.trace:
        shutil.rmtree(SPAN_DIR / args.workload, ignore_errors=True)
    started = monotonic()
    plain, traced = [], []
    try:
        round_no = 0
        while True:
            modes = (0, 1) if round_no % 2 == 0 else (1, 0)
            for mode in modes if args.trace else (0,):
                (traced if mode else plain).append(run_round(args, round_no, mode, env, started))
            round_no += 1
            elapsed = monotonic() - started
            if elapsed + elapsed / round_no > args.seconds:
                break
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    e2e, info = end_to_end(args.workload, plain)
    if args.trace:
        metrics, trace_problems = per_layer(args.workload, plain, traced)
        problems += trace_problems
    else:
        metrics, trace_problems = e2e, []
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **info, **source_record(), "inputs": plain[0]["inputs"],
        "rounds": [{k: r[k] for k in ("round", "traced", "raw_setup_s", "rss_mb", "ref_s",
                                      "ref_samples_s", "raw_latencies")}
                   | {"ops": len(r["latencies"]), "timed_s": sum(r["latencies"])}
                   for r in rounds],
        "problems": problems[:20],
    }
    if args.trace:
        report["end_to_end_untraced"] = e2e
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not trace_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
