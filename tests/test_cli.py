"""Command line surface and exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from eiszeta.cli import main


def test_analyze_json(capsys):
    rc = main(["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--precision", "12", "--qexp-terms", "30", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 5
    assert out["verdict_etale"]["status"] == "etale_provably"


def test_analyze_text(capsys):
    rc = main(["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--precision", "12", "--qexp-terms", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "etale_provably" in out
    assert "slope" in out


def test_inadmissible_exit_code(capsys):
    rc = main(["analyze", "--p", "5", "--k", "2", "--eps-exponent", "0"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_budget_exit_code(capsys):
    rc = main(["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--precision", "100000"])
    assert rc == 3


CEILINGS_EXCEEDED = [
    ["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0", "--which", "crit",
     "--terms", "20001", "--precision", "2"],
    ["lp", "--p", "5", "--branch", "2", "--s", "3", "--precision", "501"],
]


@pytest.mark.parametrize("argv", CEILINGS_EXCEEDED)
def test_ceilings_hold_for_qexp_and_lp(capsys, argv):
    # the same ceilings as analyze and scan, refused before any arithmetic
    assert main(argv) == 3
    assert "exceed ceilings (500, 20000)" in _one_line_error(capsys)


PAST_THE_PRIME_CEILING = [
    ["lp", "--p", "2011", "--branch", "2", "--s", "5", "--precision", "2"],
    ["qexp", "--p", "2011", "--k", "4", "--eps-exponent", "0", "--which", "crit",
     "--terms", "20", "--precision", "2"],
]


@pytest.mark.parametrize("argv", PAST_THE_PRIME_CEILING)
def test_prime_ceiling_holds_for_lp_and_qexp(capsys, monkeypatch, argv):
    # the same prime ceiling as analyze and scan, refused before any
    # arithmetic: at p = 2003 the same argv reaches the table of lifts
    from eiszeta import kubota, padic, qexp

    def no_arithmetic(p, N):
        raise RuntimeError(f"table of lifts at p = {p}")

    for module in (padic, kubota, qexp):
        monkeypatch.setattr(module, "_teich_unit", no_arithmetic)
    assert main(argv) == 2
    assert _one_line_error(capsys) == (
        "error: p = 2011 screens B_j mod p up to j = 2008, and a hit past the Bernoulli "
        "ceiling 2000 has no exact B_j; the largest supported prime is 2003")
    with pytest.raises(RuntimeError, match="table of lifts at p = 2003"):
        main([arg.replace("2011", "2003") for arg in argv])


def test_lp_series(capsys):
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", "-1", "--precision", "14"])
    assert rc == 0
    assert "L_p(-1, branch 2)" in capsys.readouterr().out


def test_lp_both_routes(capsys):
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", "-1",
               "--precision", "14", "--route", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "series" in out and "interpolation" in out
    assert "routes agree modulo 5^" in out


def test_lp_reads_an_integer_written_as_a_fraction(capsys):
    # the interpolation route answers s = -4/2 as it answers s = -2
    argv = ["lp", "--p", "5", "--branch", "2", "--precision", "6", "--route", "both"]
    assert main(argv + ["--s=-2"]) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--s=-4/2"]) == 0
    assert capsys.readouterr().out == want.replace("L_p(-2,", "L_p(-4/2,")


def test_lp_interpolation_keeps_the_digit_of_a_unit_value(capsys):
    # the value is a unit, so one digit survives at precision 1
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", "0", "--precision", "1",
               "--route", "interpolation"])
    assert rc == 0
    assert "[interpolation] = 2 + O(5^1)  (precision 1)" in capsys.readouterr().out


def test_lp_pole_rejected(capsys):
    rc = main(["lp", "--p", "5", "--branch", "0", "--s", "1"])
    assert rc == 2


def test_lp_interpolation_rule_is_checked_before_the_series(capsys, monkeypatch):
    # s = 1/2 is not of the form 1 - n, so `--route both` is refused before
    # the series route sums anything
    calls = []
    monkeypatch.setattr("eiszeta.cli.lp_series", lambda *a: calls.append(a))
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", "1/2", "--route", "both"])
    assert rc == 2
    assert "needs s = 1 - n with n >= 1" in _one_line_error(capsys)
    assert calls == []


def test_qexp_dump(capsys):
    rc = main(["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--terms", "8", "--which", "crit", "--precision", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert lines[2].split("\t")[0] == "2"


def test_qexp_twin(capsys):
    rc = main(["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--terms", "6", "--which", "twin", "--precision", "10"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7


def test_scan_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    rc = main(["scan", "--p-from", "5", "--p-to", "7", "--k-from", "3",
               "--k-to", "3", "--precision", "10", "--qexp-terms", "20",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines
    for line in lines:
        json.loads(line)


def test_scan_irregular_only(tmp_path):
    out = tmp_path / "irr.jsonl"
    rc = main(["scan", "--p-from", "3", "--p-to", "67", "--irregular-only",
               "--out", str(out)])
    assert rc == 0
    recs = [json.loads(x) for x in out.read_text().strip().splitlines()]
    assert {(r["p"], r["branch"]) for r in recs} == {(37, 32), (59, 44), (67, 58)}


def test_internal_check_failure_exit_code(monkeypatch, capsys):
    # corrupt the twin comparison inputs so neither convention matches:
    # the analyzer must surface exit code 4, not a report
    import eiszeta.qexp as qexp_mod
    from eiszeta.padic import PadicNumber

    real = qexp_mod._ordinary_states

    def corrupted(w, M, ctx, a0):
        for n, a in enumerate(real(w, M, ctx, a0)):
            if n == 2:
                a = (PadicNumber.from_state(ctx, a) + PadicNumber.from_int(1, ctx)).state
            yield a

    monkeypatch.setattr(qexp_mod, "_ordinary_states", corrupted)
    rc = main(["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--precision", "10", "--qexp-terms", "20"])
    assert rc == 4
    assert "internal check failure" in capsys.readouterr().err


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    return err


def test_lp_zero_denominator_rejected(capsys):
    rc = main(["lp", "--p", "7", "--branch", "2", "--s", "1/0"])
    assert rc == 2
    assert "zero denominator" in _one_line_error(capsys)


@pytest.mark.parametrize("s", ["1.5", "x", "1/x"])
def test_lp_unparsable_s_names_the_option(capsys, s):
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", s])
    assert rc == 2
    assert _one_line_error(capsys) == f"error: --s {s} is not an integer or a fraction a/b"


def test_qexp_terms_below_primes_bound_rejected(capsys):
    rc = main(["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0",
               "--qexp-terms", "5"])
    assert rc == 2
    assert "terms = 5" in _one_line_error(capsys)


def test_qexp_terms_below_p_rejected(capsys):
    rc = main(["analyze", "--p", "37", "--k", "4", "--eps-exponent", "0",
               "--precision", "5", "--qexp-terms", "20"])
    assert rc == 2
    assert "p = 37" in _one_line_error(capsys)


def test_analyze_past_the_bernoulli_ceiling_rejected(capsys):
    rc = main(["analyze", "--p", "2011", "--k", "4", "--eps-exponent", "0",
               "--qexp-terms", "2011"])
    assert rc == 2
    assert "largest supported prime is 2003" in _one_line_error(capsys)


def test_scan_past_the_bernoulli_ceiling_in_k_creates_no_out(tmp_path, capsys):
    # the interpolation check reads B_(k,eps), so k = 2001 is refused with
    # the other point checks, before --out is opened
    out = tmp_path / "scan.jsonl"
    rc = main(["scan", "--p-from", "5", "--p-to", "5", "--k-from", "2001", "--k-to", "2001",
               "--out", str(out)])
    assert rc == 2
    assert "Bernoulli index 2001 exceeds the ceiling 2000" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("p", ["4", "2"])
def test_not_an_odd_prime_is_one_refusal_in_every_command(capsys, p):
    argvs = [["analyze", "--p", p, "--k", "4", "--eps-exponent", "0"],
             ["qexp", "--p", p, "--k", "4", "--eps-exponent", "0", "--which", "crit"],
             ["lp", "--p", p, "--branch", "2", "--s", "3"]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert _one_line_error(capsys) == f"error: p = {p} must be an odd prime", argv


NON_POSITIVE_COUNTS = [
    ["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0", "--precision", "0"],
    ["analyze", "--p", "5", "--k", "4", "--eps-exponent", "0", "--qexp-terms", "-3"],
    ["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0", "--which", "crit", "--terms", "0"],
    ["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0", "--which", "ord",
     "--precision", "0"],
    ["lp", "--p", "5", "--branch", "2", "--s", "3", "--precision", "0"],
    # the count is checked before the twin's L-value loses every digit at N = 1
    ["qexp", "--p", "5", "--k", "7", "--eps-exponent", "5", "--terms", "0",
     "--which", "twin", "--precision", "1"],
]


@pytest.mark.parametrize("argv", NON_POSITIVE_COUNTS)
def test_non_positive_count_is_inadmissible_in_every_command(capsys, argv):
    # a count below 1 is a bad parameter, not a lost precision budget
    assert main(argv) == 2
    _one_line_error(capsys)


def test_no_surviving_precision_is_budget_exit_code(capsys):
    # s = 1 + p at N = 2: p(s - 1) = p^2 divides a sum known modulo p^2
    rc = main(["lp", "--p", "5", "--branch", "2", "--s", "6", "--precision", "2"])
    assert rc == 3
    assert "no surviving precision" in _one_line_error(capsys)


S_ONE_BELOW_THREE = [
    ["lp", "--p", "5", "--branch", "2", "--s", "1", "--precision", "1"],
    ["lp", "--p", "5", "--branch", "2", "--s", "1", "--precision", "2"],
    # the twin of (5, 2, 2) is s = 1 on branch 2
    ["analyze", "--p", "5", "--k", "2", "--eps-exponent", "2", "--precision", "2",
     "--qexp-terms", "20"],
]


@pytest.mark.parametrize("argv", S_ONE_BELOW_THREE)
def test_s_one_on_a_nontrivial_branch_needs_precision_three(capsys, argv):
    assert main(argv) == 3
    assert _one_line_error(capsys) == "error: s = 1 on a nontrivial branch needs precision >= 3"


def test_s_one_on_a_nontrivial_branch_answers_at_precision_three(capsys):
    assert main(["lp", "--p", "5", "--branch", "2", "--s", "1", "--precision", "3"]) == 0
    assert capsys.readouterr().out == "L_p(1, branch 2) [series] = 2 + O(5^1)  (precision 1)\n"


def test_analyze_json_reports_a_zero_to_precision_twin(capsys):
    # the non-etale candidate: 37's zero branch 32 carries the twin of (4, 2)
    rc = main(["analyze", "--p", "37", "--k", "4", "--eps-exponent", "2", "--precision", "2",
               "--qexp-terms", "60", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict_etale"] == {
        "status": "zero_to_precision",
        "precision": 1,
        "detail": "zeta_p(twin) is indistinguishable from zero at the carried precision; "
                  "no definite zero is claimed",
    }
    assert out["zeta_twin"]["value"] == {"zero_to_precision": 1}
    assert all(c["passed"] for c in out["checks"].values()) and len(out["checks"]) == 4


LOW_PRECISION = [
    ["lp", "--p", "5", "--branch", "2", "--s", "1", "--precision", "1"],
    ["analyze", "--p", "5", "--k", "2", "--eps-exponent", "2", "--precision", "1"],
    ["qexp", "--p", "5", "--k", "7", "--eps-exponent", "5", "--terms", "10",
     "--which", "twin", "--precision", "1"],
    ["analyze", "--p", "3", "--k", "3", "--eps-exponent", "1", "--precision", "2"],
]


@pytest.mark.parametrize("argv", LOW_PRECISION)
def test_low_precision_is_budget_exit_code(capsys, argv):
    # s = 1 on a nontrivial branch at N = 1, and arithmetic that cancels
    # every digit, are lost precision rather than bad parameters
    assert main(argv) == 3
    _one_line_error(capsys)


FALSE_POLES = [
    ["lp", "--p", "3", "--branch", "0", "--s", "4", "--precision", "1"],
    # the ordinary constant term evaluates branch 0 at 1 - k = -2
    ["analyze", "--p", "3", "--k", "3", "--eps-exponent", "1", "--precision", "1"],
]


@pytest.mark.parametrize("argv", FALSE_POLES)
def test_argument_congruent_to_the_pole_is_budget_exit_code(capsys, argv):
    # s = 1 mod p^N with s != 1 is lost precision, not the pole at s = 1
    assert main(argv) == 3
    assert "is 1 modulo 3^1" in _one_line_error(capsys)


_SMALL = st.integers(-3, 8)
# "--s=-1/2": argparse would read a bare "-1/2" as an option
_S = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-3, 12)),
)


@st.composite
def _accepted_argv(draw):
    command = draw(st.sampled_from(["analyze", "lp", "qexp"]))
    argv = [command, "--p", str(draw(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 13]))),
            "--precision", str(draw(st.integers(-1, 4)))]
    if command == "lp":
        return argv + ["--branch", str(draw(_SMALL)), f"--s={draw(_S)}",
                       "--route", draw(st.sampled_from(["series", "interpolation", "both"]))]
    argv += ["--k", str(draw(_SMALL)), "--eps-exponent", str(draw(_SMALL))]
    terms = str(draw(st.integers(-1, 40)))
    if command == "analyze":
        return argv + ["--qexp-terms", terms, "--format", draw(st.sampled_from(["json", "text"]))]
    return argv + ["--terms", terms, "--which", draw(st.sampled_from(["crit", "ord", "twin"]))]


@st.composite
def _rejected_argv(draw):
    # an accepted argv broken so that argparse itself refuses it
    argv = draw(_accepted_argv())
    how = draw(st.sampled_from(["value", "drop", "extra", "command", "empty"]))
    if how == "value":
        # every generated option takes an int or a choice, and "x" is neither
        options = [n for n, a in enumerate(argv) if a.startswith("--") and "=" not in a]
        i = draw(st.sampled_from(options))
        argv[i + 1] = "x"
    elif how == "drop":
        i = argv.index("--p")
        del argv[i:i + 2]
    elif how == "extra":
        argv.append("--bogus")
    elif how == "command":
        argv[0] = "bogus"
    else:
        argv = []
    return argv


_argv = st.one_of(_accepted_argv(), _rejected_argv())


@given(_argv)
@settings(max_examples=400, deadline=None)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), argv
    if rc:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


PARSER_REJECTED = [
    ["lp", "--p", "5", "--branch", "2", "--s", "-1/2"],
    ["qexp", "--p", "5", "--k", "4", "--eps-exponent", "0", "--which", "bad"],
    ["analyze", "--p", "x", "--k", "4", "--eps-exponent", "0"],
    ["bogus"],
    [],
]


@pytest.mark.parametrize("argv", PARSER_REJECTED)
def test_parser_rejection_is_one_line_exit_2(capsys, argv):
    # argparse's own refusals keep the one-line contract instead of a usage
    # block and SystemExit
    assert main(argv) == 2
    _one_line_error(capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eiszeta lp")


def _failing_write(records, out):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failure", ["open", "write"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, monkeypatch, failure):
    out = tmp_path / "scan.jsonl"
    if failure == "open":
        out = tmp_path / "missing_dir" / "scan.jsonl"
    else:
        monkeypatch.setattr("eiszeta.cli.write_scan", _failing_write)
    rc = main(["scan", "--p-from", "5", "--p-to", "7", "--k-from", "3", "--k-to", "3",
               "--precision", "10", "--qexp-terms", "20", "--out", str(out)])
    assert rc == 2
    # the reason alone, without the temporary file's name or this process's id
    reason = {"open": "No such file or directory", "write": "No space left on device"}
    err = _one_line_error(capsys)
    assert err == f"error: cannot write {out}: {reason[failure]}"
    assert ".tmp" not in err


def test_scan_to_a_redirected_dev_stdout_keeps_every_record(tmp_path):
    # --out /dev/stdout with stdout redirected to a file: the records and the
    # closing line share one offset, so neither overwrites the other
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "eiszeta.cli", "scan", "--p-from", "5", "--p-to", "7",
            "--k-from", "3", "--k-to", "3", "--precision", "6", "--qexp-terms", "30",
            "--out", "/dev/stdout"]
    out = tmp_path / "R.txt"
    with open(out, "w") as f:
        done = subprocess.run(argv, stdout=f, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    *records, last = out.read_text().splitlines()
    assert records and all(json.loads(line)["type"] == "point" for line in records)
    assert last == f"wrote {len(records)} records to /dev/stdout"



# a scan whose seventh point (p = 3, k = 9, i = 1) loses every digit in an
# identity check, after the first six have produced their records
STOPS_MID_STREAM = ["scan", "--p-from", "3", "--p-to", "13", "--k-from", "2", "--k-to", "9",
                    "--precision", "4", "--qexp-terms", "60"]


def test_scan_that_stops_mid_stream_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    rc = main([*STOPS_MID_STREAM, "--out", str(out)])
    assert rc == 3
    assert "cancellation left no digit of precision" in _one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []  # neither --out nor a temporary file


def test_scan_refusal_names_its_point(tmp_path, capsys):
    # analyze reports the same refusal without the point (test_qexp.py)
    out = tmp_path / "scan.jsonl"
    rc = main([*STOPS_MID_STREAM, "--out", str(out)])
    assert rc == 3
    assert _one_line_error(capsys) == (
        "error: p = 3, k = 9, i = 1: cancellation left no digit of precision")
    assert not out.exists()


def test_scan_that_stops_mid_stream_leaves_an_existing_out_untouched(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    before = b'{"type":"previous run"}\n'
    out.write_bytes(before)
    rc = main([*STOPS_MID_STREAM, "--out", str(out)])
    assert rc == 3
    assert "cancellation left no digit of precision" in _one_line_error(capsys)
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]


def test_scan_replaces_an_existing_out_keeping_its_mode(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    out.write_text("previous run\n")
    out.chmod(0o600)
    rc = main(["scan", "--p-from", "5", "--p-to", "7", "--k-from", "3", "--k-to", "3",
               "--precision", "10", "--qexp-terms", "20", "--out", str(out)])
    assert rc == 0
    assert list(tmp_path.iterdir()) == [out]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["p"] in (5, 7) for r in records)
    assert out.stat().st_mode & 0o777 == 0o600


def test_scan_writes_through_a_symlink(tmp_path, capsys):
    # a symlink, such as /dev/stdout, is written directly: the link stays
    out, link = tmp_path / "scan.jsonl", tmp_path / "link.jsonl"
    link.symlink_to(out)
    rc = main(["scan", "--p-from", "5", "--p-to", "7", "--k-from", "3", "--k-to", "3",
               "--precision", "10", "--qexp-terms", "20", "--out", str(link)])
    assert rc == 0
    assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, out]
    assert out.read_text().count("\n") == int(capsys.readouterr().out.split()[1])


def test_scan_writes_a_device_directly(capsys):
    rc = main(["scan", "--p-from", "5", "--p-to", "7", "--k-from", "3", "--k-to", "3",
               "--precision", "10", "--qexp-terms", "20", "--out", "/dev/null"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("wrote ")

SCAN_FAILURES = [
    (["--p-from", "5", "--p-to", "7", "--k-from", "4", "--k-to", "4",
      "--precision", "0"], 2, "precision and terms must be positive"),
    # a lone k bound would leave the window open at one end
    (["--p-from", "5", "--p-to", "7", "--k-from", "4"], 2,
     "k_from and k_to must be given together"),
    (["--p-from", "5", "--p-to", "41", "--k-from", "4", "--k-to", "4",
      "--qexp-terms", "30", "--precision", "4"], 2, "p = 31"),
    # a prime past the Bernoulli ceiling is refused before any arithmetic,
    # also when the primes before it are within the ceiling and the window
    # reaches far beyond it
    (["--p-from", "2011", "--p-to", "2011", "--irregular-only"], 2,
     "screens B_j mod p up to j = 2008"),
    (["--p-from", "1999", "--p-to", "10000000", "--irregular-only"], 2,
     "the largest supported prime is 2003"),
    (["--p-from", "5", "--p-to", "7", "--k-from", "4", "--k-to", "4",
      "--qexp-terms", "0"], 2, "precision and terms must be positive"),
    # every exponent aimed at an odd branch fails the parity filter, so the
    # scan would analyse nothing; it is refused as `lp --branch 3` is
    (["--p-from", "5", "--p-to", "13", "--k-from", "4", "--k-to", "4",
      "--target-branch", "3"], 2,
     "weight space is even: branch exponent must be even"),
    # the target branch alone picks the points; --i-mode is not an option
    (["--p-from", "5", "--p-to", "13", "--k-from", "4", "--k-to", "4",
      "--i-mode", "branch", "--target-branch", "2"], 2,
     "unrecognized arguments: --i-mode"),
]


def test_scan_target_branch_picks_the_twins_on_it(tmp_path):
    out = tmp_path / "branch.jsonl"
    rc = main(["scan", "--p-from", "5", "--p-to", "13", "--k-from", "4", "--k-to", "4",
               "--target-branch", "2", "--precision", "10", "--qexp-terms", "20",
               "--out", str(out)])
    assert rc == 0
    points = [r for r in map(json.loads, out.read_text().splitlines())
              if r["type"] == "point"]
    assert points
    assert all(r["twin"]["branch"] == 2 for r in points)


@pytest.mark.parametrize("argv,code,message", SCAN_FAILURES)
def test_rejected_scan_leaves_out_untouched(tmp_path, capsys, argv, code, message):
    # the arguments are checked before --out is opened, so an existing file
    # survives byte for byte
    out = tmp_path / "scan.jsonl"
    before = b'{"type":"previous run"}\n'
    out.write_bytes(before)
    rc = main(["scan", *argv, "--out", str(out)])
    assert rc == code
    assert message in _one_line_error(capsys)
    assert out.read_bytes() == before
