"""Command-line interface: exit codes, output fragments, report files."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supercong import cli, curves
from supercong.cli import main
from supercong.congruences import families, identities
from supercong.congruences.columns import CaseBlock
from supercong.padic import MR_EXACT_BOUND


def test_verify_small_range(capsys):
    assert main(["verify", "--primes", "5..30"]) == 0
    out = capsys.readouterr().out
    assert "checked" in out and " 0 fail" in out
    assert "E1.4  pass" in out


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "supercong", "verify", "--primes", "5..30", "--families", "B1"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "B1  pass" in done.stdout


def test_verify_single_prime_and_family(capsys):
    assert main(["verify", "--primes", "13", "--families", "G1,G2"]) == 0
    out = capsys.readouterr().out
    assert "G1  pass  cases=1" in out
    assert "G2  pass  cases=1" in out


def test_repeated_ids_run_once(capsys):
    # G1 has one row at each of 5 and 13 and none at 7 and 11
    assert main(["verify", "--primes", "5..13", "--families", "G1,G2,G1"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if "cases=" in line] == ["G1", "G2"]
    assert "G1  pass  cases=2 failures=0" in out and "checked 4 cases" in out
    assert main(["identity", "--ids", "I1,I1", "--max-n", "3"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines() if "cases=" in line] == ["I1"]


def test_verify_not_applicable_line(capsys):
    assert main(["verify", "--primes", "13", "--families", "A1"]) == 0
    assert "not applicable" in capsys.readouterr().out


def test_verify_rejects_low_range(capsys):
    assert main(["verify", "--families", "T1.6", "--primes", "4..10"]) == 2
    assert "must start at 5" in capsys.readouterr().err


def test_verify_rejects_unknown_family(capsys):
    assert main(["verify", "--primes", "5..10", "--families", "NOPE"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_verify_rejects_bad_prime_specs(capsys):
    assert main(["verify", "--primes", "15"]) == 2
    assert main(["verify", "--primes", "abc"]) == 2
    assert main(["verify", "--primes", "30..5"]) == 2
    assert main(["verify", "--primes", "5..99999"]) == 2
    err = capsys.readouterr().err
    assert "exceeds the cap" in err
    for spec in ("8..10", "24..28"):  # bad input as a reversed range is, not a run that checked nothing
        assert main(["verify", "--primes", spec]) == 2
        assert capsys.readouterr() == ("", f"error: no prime in {spec}\n")


def test_prime_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "10")
    assert main(["verify", "--primes", "5..11", "--families", "B1"]) == 2
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "notanint")
    assert main(["verify", "--primes", "5..7", "--families", "B1"]) == 2
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "2200")
    assert main(["verify", "--primes", "2111", "--families", "B1"]) == 0
    # the weight families are exact at any prime: 9001 was past an old int64 bound
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "9001")
    assert main(["verify", "--primes", "9001", "--families", "E1.11"]) == 0
    capsys.readouterr()
    # is_prime is exact only below MR_EXACT_BOUND, so the cap must lie below it
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", str(MR_EXACT_BOUND))
    assert main(["verify", "--primes", "5..7", "--families", "B1"]) == 2
    assert "exact primality test" in capsys.readouterr().err
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", str(MR_EXACT_BOUND - 1))
    assert main(["verify", "--primes", "5..7", "--families", "B1"]) == 0


def test_a_prime_past_the_t11_grid_bound_is_bad_input(monkeypatch, capsys):
    # 262147 is the first prime past (p+1)/2 (p-1)^2 < 2^53; it is refused before any grid is built
    def never(*args, **kwargs):
        raise AssertionError("grid allocated past its float64 bound")

    for name in ("ones", "array", "empty"):
        monkeypatch.setattr(curves.np, name, never)
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "300000")
    assert main(["verify", "--families", "T1.1", "--primes", "262147", "--sweep-cap", "300000"]) == 2
    assert capsys.readouterr().err.startswith("error: p = 262147 is past the float64 bound")


def test_an_unwritable_out_path_is_bad_input(monkeypatch, tmp_path, capsys):
    # refused before any prime is evaluated, where it used to fail after the whole sweep
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", never)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["verify", "--primes", "5..7", "--families", "B1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write the report to {out}: ")


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


def _internal_error(*args, **kwargs):
    raise RuntimeError("planted")


@pytest.mark.parametrize("stop", ["bad-input", "internal-error", "interrupt"])
def test_a_run_that_writes_no_report_leaves_no_file_it_created(stop, monkeypatch, tmp_path, capsys):
    # the writability check creates the report file; a run that ends without a report removes
    # that file again, and leaves a file that was there before byte for byte
    args = ["verify", "--families", "T1.1", "--primes", "262147", "--sweep-cap", "300000"]
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "300000")  # bad input: past the T1.1 grids' float64 bound
    if stop != "bad-input":
        monkeypatch.setattr(cli, "run_suite", _interrupted if stop == "interrupt" else _internal_error)
    for existing in (None, b'{"kept": true}\n'):
        out = tmp_path / "r.json"
        if existing is not None:
            out.write_bytes(existing)
        if stop == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                main([*args, "--out", str(out)])
        else:
            assert main([*args, "--out", str(out)]) == (2 if stop == "bad-input" else 3)
        assert (out.read_bytes() if out.exists() else None) == existing, (stop, existing)
    capsys.readouterr()


def test_verify_sweep_cap_note(capsys):
    assert main(["verify", "--primes", "101..103", "--families", "T1.1"]) == 0
    out = capsys.readouterr().out
    assert "skipped=" in out


@pytest.mark.parametrize(
    ("args", "line"),
    [
        (["--primes", "101..103", "--families", "T1.1"], "  T1.1  skip  cases=2 failures=0 skipped=2\n"),
        (
            ["--primes", "5..11", "--families", "E1.7", "--time-limit", "0"],
            "  E1.7  skip  cases=3 failures=0 skipped=3\n",
        ),
    ],
    ids=["past-the-sweep-cap", "out-of-budget"],
)
def test_verify_verdict_is_skip_when_no_row_was_checked(args, line, capsys):
    # a family whose every row is a skip checked nothing, so it does not read "pass"; the exit code stays 0
    assert main(["verify", *args]) == 0
    assert line in capsys.readouterr().out


_SUMMARY_ARGS = ["verify", "--primes", "5..40", "--families", "T1.1,A1,E1.7,E1.14"]
_SUMMARY_LINES = """\
  T1.1  {t11}  cases=2453 failures={fails}
    A1  pass  cases=15 failures=0
  E1.7  pass  cases=101 failures=0 skipped=53
 E1.14  pass  cases=60 failures=0
"""
# T1.1 cells at p = 13 whose right side the planted grid below bumps by one
_PLANTED = [
    (0, 1, 0, 1), (1, 1, 12, 0), (2, 1, 7, 8), (3, 1, 10, 11), (4, 1, 12, 0),
    (5, 1, 3, 4), (6, 1, 9, 10), (7, 1, 3, 4), (8, 1, 2, 3), (9, 1, 12, 0),
    (10, 1, 3, 4), (11, 1, 5, 6), (12, 1, 0, 1), (0, 2, 0, 1), (1, 2, 12, 0),
    (2, 2, 5, 6), (3, 2, 3, 4), (4, 2, 7, 8), (5, 2, 0, 1), (6, 2, 7, 8),
]


def _verify_stdout(capsys, args):
    code = main(args)
    return code, re.sub(r"\(\d+\.\ds\)\n", "(elapsed)\n", capsys.readouterr().out)


def test_verify_summary_is_pinned(capsys, monkeypatch):
    # the per-family lines, counterexamples and totals read from the case blocks
    code, out = _verify_stdout(capsys, _SUMMARY_ARGS)
    assert code == 0
    assert out == _SUMMARY_LINES.format(t11="pass", fails=0) + (
        "checked 2629 cases over 10 primes: 2576 pass, 0 fail, 53 skipped (elapsed)\n"
    )
    grid = families.thm11_rhs_grid

    def planted(p):
        out = grid(p).copy()
        if p in (13, 29):
            out[1:, :] = (out[1:, :] + 1) % p
        return out

    monkeypatch.setattr(families, "thm11_rhs_grid", planted)
    code, out = _verify_stdout(capsys, _SUMMARY_ARGS)
    assert code == 1
    counterexamples = "".join(
        f"  counterexample T1.1 p=13 {{'lam': {lam}, 'd': {d}}}: {lhs} != {rhs} (mod 13)\n"
        for lam, d, lhs, rhs in _PLANTED
    )
    assert out == _SUMMARY_LINES.format(t11="FAIL", fails=484) + counterexamples + (
        "checked 2629 cases over 10 primes: 2092 pass, 484 fail, 53 skipped (elapsed)\n"
    )


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--primes", "5..20", "--families", "I8,B1", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["summary"]["fail"] == 0
    assert {c["family"] for c in data["cases"]} == {"I8", "B1"}
    assert "report written" in capsys.readouterr().out


def test_verify_writes_csv_report(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        ["verify", "--primes", "5..20", "--families", "I8", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "family"
    assert all(r[0] == "I8" for r in rows[1:])
    capsys.readouterr()


def test_verify_parallel_flag(capsys):
    assert main(["verify", "--primes", "5..20", "--parallelism", "3"]) == 0
    assert main(["verify", "--primes", "5..20", "--parallelism", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("limit", ["-1", "nan"])
def test_verify_rejects_negative_or_nan_time_limit(limit, capsys):
    # -1 would mark every prime as over budget, and nan compares false, so no limit at all
    assert main(["verify", "--primes", "5..13", "--families", "G2,B1", "--time-limit", limit]) == 2
    assert "--time-limit" in capsys.readouterr().err


def test_verify_rejects_a_negative_sweep_cap(capsys, monkeypatch):
    # a negative cap would turn every heavy row into a "capped at p <= -5" marker
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("a prime ran"))
    assert main(["verify", "--primes", "5..7", "--families", "T1.1", "--sweep-cap", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --sweep-cap") and captured.out == ""


def test_identity_runs_and_reports(capsys):
    assert main(["identity", "--ids", "I1,I4,Z1", "--max-n", "12"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3
    assert "I1" in out and "Z1" in out


def test_identity_vacuous_domain(capsys):
    assert main(["identity", "--ids", "I6", "--max-n", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_identity_rejects_bad_inputs(capsys):
    assert main(["identity", "--ids", "I99", "--max-n", "5"]) == 2
    assert main(["identity", "--ids", "I1", "--max-n", "501"]) == 2
    assert main(["identity", "--ids", "I1", "--max-n", "-1"]) == 2
    capsys.readouterr()


def test_identity_witness_lines_are_pinned(monkeypatch, capsys):
    # planted failures: I4 summed one term short over the negative base -16,
    # a lemma whose sides differ by p mod p^3 (the catalog family I8, which
    # the identity suite reads through the engine), and Z2 with a = 10 for 9
    short = identities._partial_sum_blocks("central_sq", 1, 16, 4, lambda n: n - 1, identities._i4_closed, bases=(-16,))
    lemma = families.CongruenceFamily(
        "I8", "planted", 3, families._always, lambda p: CaseBlock([[("k",), 1, ([1],)]], [p], [0])
    )
    z2 = identities._z_family("cubic", 27, 10, lambda m: (3 * m + 1) * (3 * m + 2))
    monkeypatch.setitem(identities._BY_ID, "I4", identities.ExactIdentity("I4", "planted", "identity", short))
    monkeypatch.setitem(families._BY_ID, "I8", lemma)
    monkeypatch.setitem(identities._BY_ID, "Z2", identities.ExactIdentity("Z2", "planted", "recurrence", z2))
    assert main(["identity", "--ids", "I4,I8,Z2", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "witness" in line] == [
        "      witness n=1: lhs=1 rhs=18",
        "      witness n=2: lhs=-9/8 rhs=-75/4",
        "      witness n=3: lhs=75/64 rhs=1225/64",
        "      witness n=4: lhs=-1225/1024 rhs=-19845/1024",
        "      witness p=5, k=1: lhs=5 rhs=0 (mod 125)",
        "      witness p=7, k=1: lhs=7 rhs=0 (mod 343)",
        "      witness n=2, m=0: lhs=14/3 rhs=40/9",
        "      witness n=3, m=0: lhs=598/81 rhs=560/81",
        "      witness n=3, m=1: lhs=1160/81 rhs=1120/81",
        "      witness n=4, m=0: lhs=66358/6561 rhs=61600/6561",
        "      witness n=4, m=1: lhs=21640/729 rhs=61600/2187",
    ]
    assert "  I4  FAIL  cases=4 failures=4 (" in out
    assert "  Z2  FAIL  cases=6 failures=6 (" in out


def test_curve_output(capsys):
    assert main(["curve", "--p", "5", "--lambda", "2"]) == 0
    out = capsys.readouterr().out
    assert "count=8" in out and "a=2" in out
    assert "singular" not in out


def test_curve_weighted_and_singular(capsys):
    assert main(["curve", "--p", "7", "--lambda", "-1", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "a^(1)=4" in out
    assert "match=True" in out
    assert main(["curve", "--p", "7", "--lambda", "8", "--d", "0"]) == 0
    assert "singular" in capsys.readouterr().out


def test_curve_rejects_bad_prime_or_weight(capsys):
    assert main(["curve", "--p", "9", "--lambda", "2"]) == 2
    assert main(["curve", "--p", "7", "--lambda", "2", "--d", "4"]) == 2
    capsys.readouterr()


def test_one_prime_check_for_verify_curve_and_decompose(monkeypatch, capsys):
    # verify's single prime, curve --p and decompose --p give the same message for the same bad prime
    for p in ("9", "3", "-7"):
        for command in (["verify", "--primes", p], ["curve", "--p", p, "--lambda", "2"], ["decompose", "--p", p]):
            assert main(command) == 2, command
            assert capsys.readouterr().err == f"error: {p} is not a prime >= 5\n", command

    # the cap comes before the primality test at a single verify prime too
    def unreachable(*args):
        raise AssertionError("primality tested above the cap")

    monkeypatch.setattr(cli, "is_prime", unreachable)
    assert main(["verify", "--primes", "2003", "--families", "B1"]) == 2
    assert "exceeds the cap 2000" in capsys.readouterr().err


def test_curve_rejects_prime_above_cap(monkeypatch, capsys):
    # the cap check comes before any O(p) table: every curve routine fails if reached
    def unreachable(*args):
        raise AssertionError("curve table built above the cap")

    for name in ("count_points", "char_sum_a", "weighted_char_sum", "thm11_rhs", "weighted_point_count"):
        monkeypatch.setattr(cli, name, unreachable)
    assert main(["curve", "--p", "2003", "--lambda", "2", "--d", "1"]) == 2
    assert "exceeds the cap 2000" in capsys.readouterr().err
    monkeypatch.setenv("SUPERCONG_MAX_PRIME", "10")
    assert main(["curve", "--p", "11", "--lambda", "2"]) == 2
    assert "exceeds the cap 10" in capsys.readouterr().err


def test_decompose_output(capsys):
    assert main(["decompose", "--p", "13"]) == 0
    assert "(-3)^2 + (2)^2" in capsys.readouterr().out
    assert main(["decompose", "--p", "7"]) == 0
    assert "no representation" in capsys.readouterr().out
    assert main(["decompose", "--p", "15"]) == 2
    capsys.readouterr()


def test_decompose_rejects_p_past_the_exact_primality_bound(capsys):
    # 2^89 - 1 is prime, but above MR_EXACT_BOUND is_prime only gives a probable answer
    assert main(["decompose", "--p", str(2**89 - 1)]) == 2
    assert "bound of the exact primality test" in capsys.readouterr().err
    assert main(["decompose", "--p", "3317044064679887385961813"]) == 0  # the largest prime below it
    assert "p=3317044064679887385961813 = (" in capsys.readouterr().out


def test_argparse_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--p", "5"])  # missing --lambda
    assert exc.value.code == 2
    capsys.readouterr()
