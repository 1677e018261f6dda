"""Tests of the benchmark harness itself, on the tiny --smoke ranges."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_declared_metric():
    proc = _bench("--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for mode, declared in (("e2e", spec["end_to_end"]), ("trace", spec["per_layer"])):
            for metric in declared:
                got = result["metrics"][f"{workload['name']}:{mode}:{metric['name']}"]
                assert got["unit"] == metric["unit"]
    metrics = result["metrics"]
    assert metrics["verify-small:trace:suite.rows"]["value"] > 0
    assert metrics["verify-large:trace:kernels.fpoly_table.ops"]["value"] > 0
    assert metrics["dsl-eval:trace:expr.rows"]["value"] > 0
    assert metrics["dsl-eval:trace:modring.residue_ops"]["value"] > 0
    assert metrics["dsl-eval:trace:suite.rows"]["value"] == 0


def test_single_workload_prints_contract_result():
    proc = _bench("--smoke", "--workload", "verify-small", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["wall_s"]["unit"] == "s"
    assert result["metrics"]["rows_ok_frac"]["value"] == 1.0


def test_workload_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        assert run.invocations(workload, 7) == run.invocations(workload, 7)
        assert run.invocations(workload, 0) != run.invocations(workload, 1)
    assert run.invocations("verify-small", 0)[0][2] == "5..199"
    assert run.invocations("verify-large", 0)[0][2] == "601..617"
    assert run.invocations("dsl-eval", 0)[0][3] == "5..523"


def _primes(argv, i):
    lo, hi = map(int, argv[i].split(".."))
    return {n for n in range(lo, hi + 1) if run._is_prime(n)}


def test_every_shifted_window_has_new_primes_and_the_same_size():
    for workload, i in (("verify-small", 2), ("verify-large", 2), ("dsl-eval", 3)):
        canonical = _primes(run.invocations(workload, 0)[0], i)
        for seed in range(1, 7):
            window = _primes(run.invocations(workload, seed)[0], i)
            assert len(window) == len(canonical)
            if window != canonical:
                assert max(window) > max(canonical), (workload, seed)


def test_digest_mismatch_fails_every_row(tmp_path):
    out = tmp_path / "out.json"
    out.write_text(json.dumps([{"check_id": "C15", "class": "theorem", "pass": True}]))
    argv = ["verify", "--format", "json"]
    assert run.Invocation(argv, out, 0, 1.0, None, expected=None).ok
    bad = run.Invocation(argv, out, 0, 1.0, None, expected="0" * 64)
    assert not bad.ok and bad.bad == bad.rows == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify-small", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
