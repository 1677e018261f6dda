"""The general encoders that the template renderers in report.py stand in for.

Each row becomes a dict in the report schema, and goes through
``json.dumps(sort_keys=True, indent=2)`` for JSON and through ``csv.writer``
(minimal quoting, compact params JSON) for CSV.  ``render_json`` and
``render_csv`` must give the same bytes for any row; tests/test_report.py and
benchmarks/bench_render.py compare them with these.
"""

import csv
import io
import json

from franelcheck.report import CSV_COLUMNS, CheckResult, Report


def row_dict(r: CheckResult) -> dict:
    d = {
        "check_id": r.check_id,
        "class": r.check_class,
        "prime": r.prime,
        "modulus_exponent": r.modulus_exponent,
        "params": {k: v if isinstance(v, (int, str)) else str(v) for k, v in r.params.items()},
        "lhs": str(r.lhs) if r.error is None else "",
        "rhs": str(r.rhs) if r.error is None else "",
        "pass": r.passed,
    }
    if r.error is not None:
        d["error"] = r.error
    return d


def oracle_json(report: Report) -> str:
    return json.dumps([row_dict(r) for r in report.rows], sort_keys=True, indent=2) + "\n"


def oracle_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        d = row_dict(r)
        params = json.dumps(d["params"], sort_keys=True, separators=(",", ":"))
        writer.writerow([d["check_id"], d["class"], d["prime"], d["modulus_exponent"],
                         params, d["lhs"], d["rhs"], d["pass"]])
    return buf.getvalue()
