"""Byte-identity of default outputs: sha256 digests of small scans,
`eiszeta qexp` dumps and a grid of `lp_series` values.  The scan and qexp
digests were recorded before the q-series of an analysed point was built once
instead of twice, the `lp_series` digest when an exact s = 1 mod p^N other than
1 on the trivial branch became a loss of precision instead of a pole, the
analyzer grid digest when s = 1 on a nontrivial branch came to need precision 3
(38 refusals of twins at s = 1 mod p^N changed their message, nothing else),
and the high-precision digest before the state kernels read powers of p from a
table; any change that alters a reported digit, precision, verdict, refusal or
record layout changes them."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from eiszeta.analyzer import analyze_point, report_to_dict, scan_records, write_scan
from eiszeta.cli import main
from eiszeta.kubota import AdmissibilityError, PoleError, lp_series
from eiszeta.padic import PadicContext, PrecisionLossError, format_padic


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SCAN_DIGESTS = {
    "all": "e9a23efaa87a194a411e455935a149233ee6928f0ef9d169b4c9ffc8d802bbc8",
    "branch": "41aec443deb72cac1cee8f0f69553aa5de5fe67a0ea85fcabbb6c9c1e7811931",
}

QEXP_DIGESTS = {
    ("crit", 5, 4, 0): "f30d600f3d31b2eb284e6a04870c1e46f993ec409d42741a55b9d0f10be5bfd6",
    ("ord", 5, 4, 0): "b1b3c0f02fa5ebc3f5502d4a7507fd5c216a275c2d0aeddab54c4040a8cc4eaf",
    ("twin", 5, 4, 0): "3df13121ff947763b2ae66cbc0b4851956620d3461cb106b6906219e8ea3150a",
    ("crit", 7, 5, 1): "2006942437a04dec3ee87b2bba8f627e0f54132f0f1bb91f4c42df8ca95ac767",
    ("ord", 7, 5, 1): "9729530b00c90ef46c5c95882e2a529df38169f2c5edd49bc5090168c18abf01",
    ("twin", 7, 5, 1): "d42360f1d6a6fa83c73b00d1fb8f28e772c5ffb03d444df3636e1e42e1a88db0",
    ("ord", 5, 0, 0): "b2adbd9074b8083769b7cf60476a753423a8564931dac79ab4303840348dc29e",
}


@pytest.mark.parametrize("i_mode", sorted(SCAN_DIGESTS))
def test_scan_output_digest(i_mode):
    buf = io.StringIO()
    target_branch = 2 if i_mode == "branch" else None
    records = scan_records(5, 13, k_from=3, k_to=4, target_branch=target_branch,
                           precision=12, terms=40)
    write_scan(records, buf)
    assert _sha256(buf.getvalue()) == SCAN_DIGESTS[i_mode]


@pytest.mark.parametrize("which,p,k,i", sorted(QEXP_DIGESTS))
def test_qexp_dump_digest(which, p, k, i):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["qexp", "--p", str(p), "--k", str(k), "--eps-exponent", str(i),
                   "--which", which, "--terms", "60", "--precision", "12"])
    assert rc == 0
    assert _sha256(buf.getvalue()) == QEXP_DIGESTS[(which, p, k, i)]


LP_SERIES_DIGEST = "0feca41aea524abdf82ea2842ed3ce80bf7b82ff3f7909dd7af224afaab69e0b"


def _lp_series_lines():
    # every even branch of four primes at four precisions, over integer
    # arguments (the pole, s = 1 and its neighbour 1 + p among them) and two
    # fractions; the pole and a loss of every digit are part of the record
    for p in (3, 5, 7, 37):
        for N in (1, 2, 3, 12):
            ctx = PadicContext(p, N)
            for j in range(0, p - 1, 2):
                for s in [*range(-3, 5), 1 + p, Fraction(1, 2), Fraction(-3, 2)]:
                    try:
                        lv = lp_series(s, j, ctx)
                    except (PoleError, PrecisionLossError) as e:
                        out = type(e).__name__
                    else:
                        out = f"{format_padic(lv.value)} {lv.precision_achieved}"
                    yield f"{p} {N} {j} {s}: {out}\n"


def test_lp_series_digest():
    assert _sha256("".join(_lp_series_lines())) == LP_SERIES_DIGEST


ANALYZE_GRID_DIGEST = "4403b62c666883d6390588edc9c6f5eadea7467671421fa11c1585172da9b1bc"


def _analyze_grid_lines():
    # 1728 points, 1084 of them refused: the refusal and its message are part
    # of the record, as is every field of each report
    for p in (3, 5, 7, 13):
        for k in range(2, 8):
            for i in range(p - 1):
                for N in (1, 2, 3, 4, 8, 20):
                    for M in (20, 60):
                        try:
                            out = json.dumps(report_to_dict(analyze_point(p, k, i, N, M)),
                                             sort_keys=True)
                        except (AdmissibilityError, PrecisionLossError) as e:
                            out = f"{type(e).__name__}: {e}"
                        yield f"{p} {k} {i} {N} {M}: {out}\n"


def test_analyze_grid_digest():
    assert _sha256("".join(_analyze_grid_lines())) == ANALYZE_GRID_DIGEST


HIGH_PRECISION_DIGEST = "03bf77093ba35f498d326c0bf4946bce15c434e9607dd55f2e994fde8cbe88f2"

# (p, k, i, N, M) above the grid's N = 20, with the primes interleaved
HIGH_PRECISION_POINTS = [(37, 4, 28, 120, 400), (23, 4, 2, 60, 200),
                         (5, 6, 0, 500, 200), (7, 5, 1, 500, 100)]


def test_high_precision_analyze_digest():
    text = "".join(f"{p} {k} {i} {N} {M}: "
                   + json.dumps(report_to_dict(analyze_point(p, k, i, N, M)), sort_keys=True)
                   + "\n" for p, k, i, N, M in HIGH_PRECISION_POINTS)
    assert _sha256(text) == HIGH_PRECISION_DIGEST
