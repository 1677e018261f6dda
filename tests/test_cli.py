import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from franelcheck import suite
from franelcheck.cli import main
from franelcheck.modring import NonInvertibleError
from franelcheck.suite import run_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_franel(capsys):
    code, out, _ = run_cli(capsys, "compute", "--seq", "franel", "--n", "6")
    assert code == 0
    assert out == "1 2 10 56 346 2252 15184\n"


def test_compute_other_sequences(capsys):
    code, out, _ = run_cli(capsys, "compute", "--seq", "apery", "--n", "2")
    assert (code, out) == (0, "1 5 73\n")
    code, out, _ = run_cli(capsys, "compute", "--seq", "fpoly", "--n", "2", "--x", "2")
    assert (code, out) == (0, "1 4 32\n")
    code, out, _ = run_cli(capsys, "compute", "--seq", "genfranel", "--n", "3", "--r", "2")
    assert (code, out) == (0, "1 2 6 20\n")
    code, _, err = run_cli(capsys, "compute", "--seq", "fpoly", "--n", "2")
    assert code == 2 and "--x" in err


def test_compute_json_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "--seq", "franel", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"seq": "franel", "values": ["1", "2", "10"]}


def test_verify_single_check_matches_run_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "C15", "--primes", "5..5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    want = run_check("C15", 5)[0]
    assert rows == [
        {
            "check_id": "C15",
            "class": "theorem",
            "prime": 5,
            "modulus_exponent": 2,
            "params": {},
            "lhs": str(want.lhs),
            "rhs": str(want.rhs),
            "pass": True,
        }
    ]


def test_verify_text_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--primes", "5..13")
    assert code == 0
    assert "C15" in out and "0 fail" in out


def test_verify_repeated_id_runs_once(capsys):
    for workers in ("1", "2"):
        for fmt in ("json", "text"):
            argv = ["verify", "--primes", "5..13", "--format", fmt, "--workers", workers]
            once = run_cli(capsys, *argv, "--id", "C15")
            assert run_cli(capsys, *argv, "--id", "C15,C15") == once
        assert "4/4 pass" in once[1]


def test_verify_small_report_matches_its_committed_digest(capsys, tmp_path):
    # the report bytes that perfbench/digests.json records for verify-small at seed 0
    digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
    out = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--primes", "5..199", "--format", "json", "--workers", "1",
                         "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests["verify-small"][0]


def test_verify_check_error_is_one_row(capsys, monkeypatch):
    spec = suite.REGISTRY["C15"]

    def evaluate(ctx):
        if ctx.p == 7:
            raise NonInvertibleError("7 is not invertible mod 49")
        return spec.evaluate(ctx)

    monkeypatch.setitem(suite.REGISTRY, "C15", dataclasses.replace(spec, evaluate=evaluate))
    outputs = {}
    for fmt in ("json", "csv"):
        for workers in ("1", "2"):
            code, out, err = run_cli(capsys, "verify", "--id", "C15,WOL", "--primes", "5..13",
                                     "--format", fmt, "--workers", workers)
            assert code == 1 and "error:" not in err
            outputs[fmt, workers] = out
        assert outputs[fmt, "1"] == outputs[fmt, "2"]
    rows = json.loads(outputs["json", "1"])
    errors = [r for r in rows if "error" in r]
    assert errors == [{
        "check_id": "C15", "class": spec.check_class, "prime": 7,
        "modulus_exponent": spec.modulus_exponent, "params": {}, "lhs": "", "rhs": "",
        "pass": False, "error": "NonInvertibleError: 7 is not invertible mod 49",
    }]
    # every other row is still there: C15 at 5, 11, 13 and WOL's three parts at 5..13
    assert [(r["check_id"], r["prime"]) for r in rows if "error" not in r] == (
        [("C15", p) for p in (5, 11, 13)] + [("WOL", p) for p in (5, 7, 11, 13) for _ in range(3)]
    )
    assert all(r["pass"] for r in rows if "error" not in r)
    # a bad prime range is still a usage error
    code, _, err = run_cli(capsys, "verify", "--id", "C15", "--primes", "4..4")
    assert code == 2 and "error: " in err


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "WOL", "--primes", "5..7", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {
        "check_id", "class", "prime", "modulus_exponent", "params", "lhs", "rhs", "pass",
    }
    assert len(rows) == 6  # 3 parts x 2 primes
    assert {json.loads(r["params"])["part"] for r in rows} == {"H1", "H2", "CB"}


def test_verify_bad_ranges(capsys):
    code, _, err = run_cli(capsys, "verify", "--primes", "4..4")
    assert code == 2 and "no primes" in err
    code, _, err = run_cli(capsys, "verify", "--primes", "nope")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--primes", "5..7", "--id", "NOPE")
    assert code == 2


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--id", "C15", "--primes", "5..13", "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert len(json.loads(path.read_text())) == 4


def test_verify_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--id", "C15", "--primes", "5..5", "--out", "/nonexistent/dir/x.json"
    )
    assert code == 2 and "error" in err


def test_eval_congruence_statement(capsys):
    code, out, _ = run_cli(
        capsys, "eval",
        "sum(k=0..p-1,(-1)^k*f(k)) ≡ jacobi(p,3) (mod p^2)",
        "--primes", "5..19",
    )
    assert code == 0
    assert "6/6 pass" in out


def test_eval_false_statement_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "sum(k=0..p-1,(-1)^k*f(k)) =mod= 1 (mod p^2)", "--primes", "5..23"
    )
    assert code == 1
    assert "FAIL" in out


def test_eval_bare_expression(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "f(4)", "--primes", "5..5", "--mod-exp", "3"
    )
    assert code == 0
    assert out == "p=5: 96\n"


def test_eval_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "sum(k=0..p, f(k)", "--primes", "5..7")
    assert code == 2
    assert "expected" in err


def test_eval_deep_nesting_is_usage_error(capsys):
    # "0+" first, because argparse reads a leading "-" as an option
    stmt = "0+" + "-(" * 1000 + "1" + ")" * 1000
    code, out, err = run_cli(capsys, "eval", stmt, "--primes", "5..7")
    assert code == 2
    assert out == ""
    assert "nests too deeply" in err
    assert "Traceback" not in err


def test_eval_error_rows(capsys):
    code, out, _ = run_cli(capsys, "eval", "1/p", "--primes", "5..7")
    assert code == 1
    assert "ERROR" in out


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0
    assert out.count("PASS") == 8


def test_scan_ar_command(capsys):
    code, out, _ = run_cli(capsys, "scan-ar", "--r", "1", "--primes", "5..97")
    assert code == 0
    assert "a_1 = -1 (odd)" in out
    code, out, _ = run_cli(capsys, "scan-ar", "--r", "2", "--primes", "5..97", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_check_3adic_command(capsys):
    code, out, _ = run_cli(capsys, "check-3adic", "--n", "243")
    assert code == 0
    assert "no violations" in out


def test_cornacchia_command(capsys):
    code, out, _ = run_cli(capsys, "cornacchia", "--primes", "5..13")
    assert code == 0
    assert "7 = 2^2 + 3*1^2" in out
    assert "5: no representation" in out
    code, out, _ = run_cli(capsys, "cornacchia", "--primes", "5..13", "--format", "json")
    rows = json.loads(out)
    assert rows[1] == {"prime": 7, "x": 2, "y": 1}


def test_workers_flag_validated(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--primes", "5..7", "--workers", "0"])


def test_worker_reports_identical(tmp_path, capsys):
    paths = []
    for w in (1, 4):
        path = tmp_path / f"w{w}.json"
        code, _, _ = run_cli(
            capsys, "verify", "--primes", "5..31", "--format", "json",
            "--workers", str(w), "--out", str(path),
        )
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_missing_native_backend_warns_on_stderr_only(capsys, monkeypatch):
    from franelcheck import kernels, modring, sequences

    argv = ("verify", "--id", "C15,C19,T21_rx", "--primes", "5..13", "--format", "json")

    def fresh_run():
        # drop cached tables so the run rebuilds them on the backend now selected
        sequences.get_context.cache_clear()
        modring.ring_new.cache_clear()
        return run_cli(capsys, *argv)

    monkeypatch.setattr(kernels, "_FORCE_PURE", False)
    code, report, _ = fresh_run()
    assert code == 0

    monkeypatch.setattr(kernels, "_FORCE_PURE", True)
    code, forced, err = fresh_run()
    assert code == 0 and forced == report and err == ""

    monkeypatch.setattr(kernels, "_FORCE_PURE", False)
    monkeypatch.setattr(kernels, "_native", None)
    code, fallback, err = fresh_run()
    assert code == 0 and fallback == report
    assert err.count("\n") == 1 and "pure-Python backend" in err
    assert "pure-Python" not in fallback
