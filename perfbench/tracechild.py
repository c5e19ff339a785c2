"""Traced stand-in for ``python -m eiszeta.cli`` in the census workload.

    python3 perfbench/tracechild.py --spawned-at T --summary FILE --spans FILE -- CLI ARGS

Installs the tracer, runs ``eiszeta.cli.main`` on the CLI arguments, writes
the trace summary (plus the time from the parent's spawn, ``T`` on
CLOCK_MONOTONIC, to the entry of ``main``) to ``--summary`` and the spans to
``--spans``, and exits with the CLI's exit code.
"""

import argparse
import json
import sys
import time

import tracer as tracing


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--summary", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = tracing.Tracer()
    tracer.install()
    import eiszeta.cli

    process_start_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    rc = eiszeta.cli.main(cli_args)
    with open(args.summary, "w") as out:
        json.dump({"summary": tracer.summary(), "process_start_s": process_start_s}, out)
    tracer.dump_spans(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
