#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the franelcheck CLI.

    python3 perfbench/run.py --workload verify-small --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is taken from ``src/`` of
the checkout that holds this file, rebuilt first (any previously built
``_native`` extension is deleted, then ``setup.py build_ext --inplace``
runs), and every CLI invocation is a fresh ``python3`` process.

--trace 0  repeats the workload for --seconds and reports the end-to-end
           metrics of BENCHMARK.json, as medians over the repetitions.
--trace 1  runs each invocation with --workers 1, once plainly and once
           under perfbench/trace_child.py, and reports the per-layer
           metrics of BENCHMARK.json.
--smoke    tiny prime ranges, no rebuild; with the defaults it runs every
           workload in both modes in a few seconds.

Every output is checked: at seed 0 against the committed sha256 in
perfbench/digests.json, at any seed for zero hard failures and error rows,
and every repetition of one invocation (any --workers, traced or not) must
give the same bytes.  The last line of stdout is one JSON object with the
keys correct, attempted, failed (report rows) and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from trace_child import FORMATS, KERNEL_OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
RUN_LIMIT_S = 170.0  # every run ends within this, whatever --seconds says
SETUP_SAMPLES = 11

WORKLOADS = ("verify-small", "verify-large", "dsl-eval")

#: The dsl-eval statements: the C15, R1b, C19 and LEH forms and the
#: central-binomial anchor, each one CLI call.
STATEMENTS = (
    "sum(k=0..p-1, (-1)^k * f(k)) ≡ jacobi(p,3) (mod p^2)",
    "sum(k=0..p-1, f(k) / 8^k) ≡ jacobi(p,3) (mod p^2)",
    "sum(k=1..p-1, (-1)^k * f(k) / k) ≡ 0 (mod p^2)",
    "H((p-1)/2) ≡ -2*q2() + p*q2()^2 (mod p^2)",
    "sum(k=0..p-1, binom(2*k,k)) ≡ jacobi(p,3) (mod p^2)",
)

CLI_MAIN = "import sys; from franelcheck.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import franelcheck.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
NATIVE_PROBE = "from franelcheck import kernels; print(kernels.native_available())"

KERNELS = tuple(KERNEL_OPS)


class HarnessError(Exception):
    """The benchmark itself cannot run (no program, failed build, ...)."""


# --- workloads -----------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _window(start: int, count: int, shifts: int, seed: int) -> str:
    """The `count` consecutive primes from the (seed mod shifts)-th prime >= start.

    Every shift drops the lowest prime and adds the next one above the top,
    so each seed but the canonical 0 gives the program primes that seed 0
    never did.  Few shifts keep the cost, which grows like p^2 per prime,
    close to that of seed 0.
    """
    primes: list[int] = []
    n = start
    while len(primes) < count + shifts:
        if _is_prime(n):
            primes.append(n)
        n += 1
    d = seed % shifts
    return f"{primes[d]}..{primes[d + count - 1]}"


def invocations(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """CLI argument lists (without --out) for one pass of a workload.

    The seed shifts the prime window within its size class; seed 0 is the
    canonical window whose outputs perfbench/digests.json records.
    """
    if workload == "verify-small":
        # 44 primes, 5..199 at seed 0; the shift adds about 10% CPU time
        primes = "5..31" if smoke else _window(5, 44, 2, seed)
        return [["verify", "--primes", primes, "--format", "json", "--workers", "1"]]
    if workload == "verify-large":
        # four primes from the 600s, 601..617 at seed 0; a shift adds ~2% p^2 work
        primes = "29..41" if smoke else _window(600, 4, 3, seed)
        return [["verify", "--primes", primes, "--format", "csv", "--workers", "2"]]
    if workload == "dsl-eval":
        # 97 primes, 5..523 at seed 0; a shift adds up to 3% CPU time
        primes = "5..31" if smoke else _window(5, 97, 3, seed)
        return [["eval", s, "--primes", primes, "--format", "json"] for s in STATEMENTS]
    raise HarnessError(f"unknown workload {workload!r}")


def _with_workers_1(argv: list[str]) -> list[str]:
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return argv


def _format_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1]


# --- running the program -----------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRANELCHECK_PURE", None)
    # imports come from warm bytecode, as users have it, cached inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], deadline: Deadline, log: Path) -> tuple[int, float, os.struct_rusage | None]:
    """Run cmd to completion; (exit code, wall seconds, rusage of it and its children).

    The child leads its own process group, which is killed if the run's
    deadline passes first.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=WORK, stdout=fh, stderr=fh,
                                start_new_session=True)
        timer = threading.Timer(max(deadline.left(), 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage


class Invocation:
    """One CLI call's output, checked against the expected digest."""

    def __init__(self, argv: list[str], out: Path, code: int, wall: float, usage, expected: str | None):
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime if usage else 0.0
        self.rss_mb = usage.ru_maxrss / 1024 if usage else 0.0
        self.digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        self.rows, self.bad = count_rows(out, _format_of(argv)) if self.digest else (0, 0)
        self.ok = code == 0 and self.digest is not None and self.bad == 0
        if expected is not None and self.digest != expected:
            self.ok = False
        if not self.ok:
            self.bad = self.rows = max(self.rows, 1)


def count_rows(path: Path, fmt: str) -> tuple[int, int]:
    """(rows, hard failures plus error rows) of one report file."""
    if fmt == "json":
        rows = json.loads(path.read_text())
        bad = sum(1 for r in rows if "error" in r or (not r["pass"] and r["class"] != "conjecture"))
    else:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for r in rows if r["pass"] != "True" and r["class"] != "conjecture")
    return len(rows), bad


def run_cli(argv: list[str], index: int, deadline: Deadline, expected: str | None,
            trace_stats: Path | None = None) -> Invocation:
    out = WORK / f"out{index}.{_format_of(argv)}"
    out.unlink(missing_ok=True)
    if trace_stats is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv, "--out", str(out)]
    else:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_stats), *argv, "--out", str(out)]
    code, wall, usage = spawn(cmd, deadline, WORK / f"log{index}.txt")
    inv = Invocation(argv, out, code, wall, usage, expected)
    if not inv.ok:
        tail = (WORK / f"log{index}.txt").read_text(errors="replace")[-2000:]
        print(f"FAILED: franelcheck {' '.join(argv)} (exit {code}, digest {inv.digest})\n{tail}",
              file=sys.stderr)
    return inv


class Checker:
    """Expected digest per invocation: committed at seed 0, else the first seen."""

    def __init__(self, workload: str, canonical: bool):
        self.expected: dict[int, str | None] = {}
        if canonical:
            recorded = json.loads(DIGESTS.read_text())[workload]
            self.expected = dict(enumerate(recorded))
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str], index: int, deadline: Deadline, **kw) -> Invocation:
        inv = run_cli(argv, index, deadline, self.expected.get(index), **kw)
        if inv.ok:
            self.expected.setdefault(index, inv.digest)
        self.attempted += inv.rows
        self.failed += inv.bad
        return inv


def rebuild_program() -> bool:
    """Delete any built _native extension, run the repo's build; True if native loads."""
    for path in (SRC / "franelcheck" / "kernels").glob("_native*"):
        if path.suffix in (".so", ".pyd"):
            path.unlink()
    log = WORK / "build.log"
    with open(log, "wb") as fh:
        build = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(WORK / "build-temp")],
            cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT, timeout=600,
        )
    if build.returncode != 0:
        raise HarnessError(f"extension build failed, see {log}")
    return native_available()


def native_available() -> bool:
    probe = subprocess.run([sys.executable, "-c", NATIVE_PROBE], cwd=WORK, env=child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise HarnessError(f"cannot import franelcheck: {probe.stderr.strip()}")
    return probe.stdout.strip() == "True"


def measure_setup(deadline: Deadline, count: int) -> list[float]:
    """Fresh-interpreter time to import franelcheck.cli and build its parser."""
    samples = []
    for i in range(count + 1):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=WORK, env=child_env(),
                               capture_output=True, text=True, timeout=max(deadline.left(), 1.0))
        if probe.returncode != 0:
            raise HarnessError(f"cannot import franelcheck.cli: {probe.stderr.strip()}")
        if i:  # the first one only warms the bytecode cache
            samples.append(float(probe.stdout))
    return samples


# --- the two modes -----------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_e2e(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[Checker, dict, dict]:
    """Repeat the workload for `seconds`; (checker, medians, sample lists)."""
    deadline = Deadline(RUN_LIMIT_S)
    argvs = invocations(workload, seed, smoke)
    checker = Checker(workload, canonical=seed == 0 and not smoke)
    setup = measure_setup(deadline, 2 if smoke else SETUP_SAMPLES)
    for i, argv in enumerate(argvs):
        if argv != _with_workers_1(argv) and i not in checker.expected:
            # reference output with --workers 1: the timed runs must match it
            checker.run(_with_workers_1(argv), i, deadline)
    samples = {"wall_s": [], "cpu_s": [], "rows_per_s": [], "peak_rss_mb": []}
    stop = time.perf_counter() + seconds
    while not samples["wall_s"] or (time.perf_counter() < stop and deadline.left() > 0):
        runs = [checker.run(argv, i, deadline) for i, argv in enumerate(argvs)]
        wall = sum(r.wall for r in runs)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(sum(r.cpu for r in runs))
        samples["rows_per_s"].append(sum(r.rows for r in runs) / wall)
        samples["peak_rss_mb"].append(max(r.rss_mb for r in runs))
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["setup_s"] = statistics.median(setup)
    metrics["rows_ok_frac"] = 1.0 - checker.failed / max(checker.attempted, 1)
    samples["setup_s"] = setup
    print(f"rows_failed_frac = {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed} of {checker.attempted} rows)")
    return checker, metrics, samples


def layer_metrics(spans: dict, counts: dict, check_ids: list[str]) -> dict:
    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m = {}
    for k in KERNELS:
        m[f"kernels.{k}.s"] = total(f"kernels.{k}")
        m[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        m[f"kernels.{k}.ops"] = counts.get(f"kernels.{k}.ops", 0)
    kernel_calls = sum(calls(f"kernels.{k}") for k in KERNELS)
    m["kernels.native_frac"] = counts.get("kernels.native_calls", 0) / kernel_calls if kernel_calls else 0.0
    lookups = counts.get("sequences.lookups", 0)
    m["sequences.lookups"] = lookups
    m["sequences.builds"] = counts.get("sequences.builds", 0)
    m["sequences.hit_ratio"] = 1.0 - m["sequences.builds"] / lookups if lookups else 0.0
    m["sequences.self_s"] = self_s("sequences")
    for cid in check_ids:
        m[f"suite.eval_s.{cid}"] = self_s(f"suite.eval.{cid}")
    m["suite.eval_s"] = sum(m[f"suite.eval_s.{cid}"] for cid in check_ids)
    m["suite.row_build_s"] = self_s("suite.run_check")
    m["suite.rows"] = counts.get("suite.rows", 0)
    for fmt in FORMATS:
        m[f"report.render_s.{fmt}"] = total(f"report.render.{fmt}")
        m[f"report.bytes.{fmt}"] = counts.get(f"report.bytes.{fmt}", 0)
    m["expr.parse_s"] = total("expr.parse")
    m["expr.eval_s"] = self_s("expr.eval")
    m["expr.rows"] = counts.get("expr.rows", 0)
    m["modring.residue_ops"] = counts.get("modring.residue_ops", 0)
    return m


def _merge(stats: list[dict]) -> tuple[dict, dict]:
    spans: dict = {}
    counts: dict = {}
    for s in stats:
        for name, span in s["spans"].items():
            acc = spans.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for key in acc:
                acc[key] += span[key]
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return spans, counts


def measure_layers(workload: str, seed: int, seconds: float, smoke: bool,
                   check_ids: list[str]) -> tuple[Checker, dict, dict]:
    """Alternate plain and traced --workers 1 passes for `seconds`."""
    deadline = Deadline(RUN_LIMIT_S)
    argvs = [_with_workers_1(a) for a in invocations(workload, seed, smoke)]
    checker = Checker(workload, canonical=seed == 0 and not smoke)
    rounds: list[dict] = []
    plain_walls: list[float] = []
    stop = time.perf_counter() + seconds
    while not rounds or (time.perf_counter() < stop and deadline.left() > 0):
        plain_wall = traced_wall = 0.0
        stats = []
        for i, argv in enumerate(argvs):
            plain_wall += checker.run(argv, i, deadline).wall
            stats_path = WORK / f"trace{i}.json"
            stats_path.unlink(missing_ok=True)
            traced_wall += checker.run(argv, i, deadline, trace_stats=stats_path).wall
            if stats_path.exists():
                stats.append(json.loads(stats_path.read_text()))
        spans, counts = _merge(stats)
        m = layer_metrics(spans, counts, check_ids)
        m["trace.overhead_frac"] = (traced_wall - counts.get("report.extra_s", 0.0)) / plain_wall - 1.0
        rounds.append(m)
        plain_walls.append(plain_wall)
    # the base for a layer's share of the run
    print(f"{workload} untraced --workers 1 wall = {statistics.median(plain_walls):.6g} s "
          f"(median of {len(plain_walls)})")
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    samples = {name: [r[name] for r in rounds] for name in rounds[0]}
    return checker, metrics, samples


# --- entry point -------------------------------------------------------------------


def check_ids_from_spec(spec: dict) -> list[str]:
    prefix = "suite.eval_s."
    return [m["name"][len(prefix):] for m in spec["per_layer"] if m["name"].startswith(prefix)]


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict) -> dict:
    if trace:
        checker, metrics, samples = measure_layers(workload, seed, seconds, smoke, check_ids_from_spec(spec))
        declared = spec["per_layer"]
    else:
        checker, metrics, samples = measure_e2e(workload, seed, seconds, smoke)
        declared = spec["end_to_end"]
    if set(metrics) != {d["name"] for d in declared}:
        raise HarnessError(f"metrics {sorted(set(metrics) ^ {d['name'] for d in declared})} "
                           "do not match BENCHMARK.json")
    for d in declared:
        vals = samples.get(d["name"], [metrics[d["name"]]])
        q1, q3 = quartiles(vals)
        print(f"{workload} {d['name']} = {metrics[d['name']]:.6g} {d['unit']} "
              f"(median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g})")
    return {
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload and mode (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", default="both", choices=("0", "1", "both"))
    ap.add_argument("--smoke", action="store_true", help="tiny prime ranges, no rebuild")
    args = ap.parse_args(argv)
    try:
        if not (SRC / "franelcheck" / "cli.py").is_file():
            raise HarnessError(f"no franelcheck sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        native = native_available() if args.smoke else rebuild_program()
        if not native:
            warning = ("WARNING: the native kernel backend is MISSING; every kernel runs on the "
                       "pure-Python backend (kernels.native_frac = 0)")
            print(warning)
            print(warning, file=sys.stderr)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (0, 1) if args.trace == "both" else (int(args.trace),)
        results = {(w, t): run_one(w, args.seed, seconds, t, args.smoke, spec)
                   for w in workloads for t in modes}
    except (HarnessError, OSError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{'trace' if t else 'e2e'}:{name}": v
                        for (w, t), r in results.items() for name, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
