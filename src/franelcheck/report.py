"""Run reports: per-(check, prime) result rows and their serializations.

A row serializes to the stable JSON schema

    {"check_id": str, "class": str, "prime": int, "modulus_exponent": int,
     "params": object, "lhs": str, "rhs": str, "pass": bool}

with lhs/rhs as decimal strings (residues mod p^4 overflow doubles).  A row
may instead carry an "error" field when a statement or a check could not be
evaluated at some prime (e.g. division by a non-invertible residue); errors
are distinct from failures.  Param values that are neither int nor str
(e.g. Fraction) are written as their str().

Byte contract: for the rows' row dicts (the schema above, "error" only on
error rows, lhs/rhs "" there), ``render_json`` equals
``json.dumps(rows, sort_keys=True, indent=2) + "\n"`` and ``render_csv``
equals ``csv.writer(buf, lineterminator="\n")`` output (minimal quoting) of
the CSV_COLUMNS header and one line per row, with the params column as
compact ``json.dumps(params, sort_keys=True, separators=(",", ":"))``.
The renderers lay each row out with a string template instead of running a
general encoder per row; only the strings go through the C JSON escaper.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


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


def _params_text(params: dict) -> dict:
    """Params as the text report shows them: non-int, non-str values as their str()."""
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


def _json_value(v) -> str:
    """A param value as JSON text; one that is neither int nor str is written as its str()."""
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, int):
        return "true" if v is True else "false" if v is False else int.__repr__(v)
    return _quote(str(v))


def _param_items(params: dict) -> list[tuple[str, str]]:
    """The (key, value) pairs of a params dict as JSON text, sorted by key."""
    return [(_quote(k), _json_value(params[k])) for k in sorted(params)]


def _json_params(params: dict) -> str:
    """A row's params object as json.dumps(indent=2) nests it in a row."""
    if not params:
        return "{}"
    return "{\n" + ",\n".join([f"      {k}: {v}" for k, v in _param_items(params)]) + "\n    }"


def render_json(report: Report) -> str:
    if not report.rows:
        return "[]\n"
    rows = []
    for r in report.rows:
        if r.error is None:
            error, lhs, rhs = "", f'"{r.lhs}"', f'"{r.rhs}"'
        else:
            error, lhs, rhs = f'\n    "error": {_quote(r.error)},', '""', '""'
        rows.append(
            f'  {{\n    "check_id": {_quote(r.check_id)},\n    "class": {_quote(r.check_class)},{error}\n'
            f'    "lhs": {lhs},\n    "modulus_exponent": {r.modulus_exponent},\n'
            f'    "params": {_json_params(r.params)},\n    "pass": {"true" if r.passed else "false"},\n'
            f'    "prime": {r.prime},\n    "rhs": {rhs}\n  }}'
        )
    return "[\n" + ",\n".join(rows) + "\n]\n"


CSV_COLUMNS = ["check_id", "class", "prime", "modulus_exponent", "params", "lhs", "rhs", "pass"]


def _csv_specials() -> str:
    """The characters that make csv.writer quote a field in the report dialect.

    Besides the delimiter, the quote and the "\\n" line terminator, newer
    Pythons also quote a bare "\\r"; ask the csv module once which it does.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["\r", ""])
    return ',"\n' + ("\r" if buf.getvalue().startswith('"') else "")


_CSV_SPECIALS = _csv_specials()


def _csv_field(s: str) -> str:
    if any(c in s for c in _CSV_SPECIALS):
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(report: Report) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in report.rows:
        params = "{}"
        if r.params:
            # the keys are quoted, so the JSON text always needs quoting
            text = ",".join([f"{k}:{v}" for k, v in _param_items(r.params)])
            params = '"{' + text.replace('"', '""') + '}"'
        values = "," if r.error is not None else f"{r.lhs},{r.rhs}"
        lines.append(f"{_csv_field(r.check_id)},{_csv_field(r.check_class)},{r.prime},{r.modulus_exponent},{params},{values},{r.passed}")
    return "\n".join(lines) + "\n"


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
            line += f", first failure at p={first.prime} params={_params_text(first.params)}"
        if errs:
            line += f", {len(errs)} error(s)"
        lines.append(line)
    for r in report.rows:
        if r.error is not None:
            lines.append(f"ERROR {r.check_id} p={r.prime} params={_params_text(r.params)}: {r.error}")
        elif not r.passed:
            label = (
                "CONJECTURE COUNTEREXAMPLE"
                if r.check_class == "conjecture"
                else "FAIL"
            )
            lines.append(
                f"{label} {r.check_id} p={r.prime} e={r.modulus_exponent} "
                f"params={_params_text(r.params)} lhs={r.lhs} rhs={r.rhs}"
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
