"""Run reports: per-(check, prime) result rows and their serializations.

A row serializes to the stable JSON schema

    {"check_id": str, "class": str, "prime": int, "modulus_exponent": int,
     "params": object, "lhs": str, "rhs": str, "pass": bool}

with lhs/rhs as decimal strings (residues mod p^4 overflow doubles).  A row
may instead carry an "error" field when a statement or a check could not be
evaluated at some prime (e.g. division by a non-invertible residue); errors
are distinct from failures.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    check_id: str
    check_class: str
    prime: int
    modulus_exponent: int
    params: dict
    lhs: int
    rhs: int
    passed: bool
    error: str | None = None

    def row_dict(self) -> dict:
        d = {
            "check_id": self.check_id,
            "class": self.check_class,
            "prime": self.prime,
            "modulus_exponent": self.modulus_exponent,
            "params": _params_json(self.params),
            "lhs": str(self.lhs) if self.error is None else "",
            "rhs": str(self.rhs) if self.error is None else "",
            "pass": self.passed,
        }
        if self.error is not None:
            d["error"] = self.error
        return d


def _params_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        out[k] = v if isinstance(v, (int, str)) else str(v)
    return out


@dataclass
class Report:
    """An ordered collection of check rows (sorted by check id, then prime)."""

    rows: list[CheckResult] = field(default_factory=list)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.rows if not r.passed and r.error is None]

    def errors(self) -> list[CheckResult]:
        return [r for r in self.rows if r.error is not None]

    def conjecture_failures(self) -> list[CheckResult]:
        return [r for r in self.failures() if r.check_class == "conjecture"]

    def hard_failures(self) -> list[CheckResult]:
        """Failures of proven statements: any of these is an implementation bug."""
        return [r for r in self.failures() if r.check_class != "conjecture"]

    def exit_code(self, strict_conjectures: bool = False) -> int:
        if self.hard_failures() or self.errors():
            return 1
        if strict_conjectures and self.conjecture_failures():
            return 1
        return 0


def render_json(report: Report) -> str:
    return json.dumps(
        [r.row_dict() for r in report.rows],
        sort_keys=True,
        indent=2,
    ) + "\n"


CSV_COLUMNS = ["check_id", "class", "prime", "modulus_exponent", "params", "lhs", "rhs", "pass"]


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        d = r.row_dict()
        writer.writerow(
            [
                d["check_id"],
                d["class"],
                d["prime"],
                d["modulus_exponent"],
                json.dumps(d["params"], sort_keys=True, separators=(",", ":")),
                d["lhs"],
                d["rhs"],
                d["pass"],
            ]
        )
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = []
    by_id: dict[str, list[CheckResult]] = {}
    for r in report.rows:
        by_id.setdefault(r.check_id, []).append(r)
    for check_id, rows in by_id.items():
        fails = [r for r in rows if not r.passed and r.error is None]
        errs = [r for r in rows if r.error is not None]
        npass = len(rows) - len(fails) - len(errs)
        line = f"{check_id:<12} {rows[0].check_class:<10} {npass}/{len(rows)} pass"
        if fails:
            first = fails[0]
            line += f", first failure at p={first.prime} params={_params_json(first.params)}"
        if errs:
            line += f", {len(errs)} error(s)"
        lines.append(line)
    for r in report.rows:
        if r.error is not None:
            lines.append(f"ERROR {r.check_id} p={r.prime} params={_params_json(r.params)}: {r.error}")
        elif not r.passed:
            label = (
                "CONJECTURE COUNTEREXAMPLE"
                if r.check_class == "conjecture"
                else "FAIL"
            )
            lines.append(
                f"{label} {r.check_id} p={r.prime} e={r.modulus_exponent} "
                f"params={_params_json(r.params)} lhs={r.lhs} rhs={r.rhs}"
            )
    nfail = len(report.failures())
    nerr = len(report.errors())
    lines.append(
        f"total: {len(report.rows)} rows, {len(report.rows) - nfail - nerr} pass, "
        f"{nfail} fail, {nerr} error"
    )
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown format {fmt!r}")
