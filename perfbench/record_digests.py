"""Record the sha256 of the scan_window JSONL for every k window.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only at a commit whose scan output is
the reference: the benchmark counts every record of a round whose JSONL
differs from the recorded digest as failed.
"""

import io
import json

import oracles
import worker
from eiszeta.analyzer import scan_records, write_scan


def main() -> None:
    p_from, p_to = worker.SCAN_P
    digests = {}
    for k0 in range(worker.SCAN_K0[0], worker.SCAN_K0[1] + 1):
        buf = io.StringIO()
        write_scan(scan_records(p_from, p_to, k_from=k0, k_to=k0 + 1,
                                precision=worker.SCAN_N, terms=worker.SCAN_M), buf)
        digests[f"{p_from}-{p_to}:{k0}-{k0 + 1}"] = oracles.sha256(buf.getvalue())
    worker.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
