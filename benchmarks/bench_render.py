#!/usr/bin/env python3
"""Time every report renderer on the rows of one verify run.

The rows of ``verify --primes`` (all checks, one worker) are computed once.
Then render_json, render_csv and render_text are each timed, best of
--repeats.  JSON and CSV are also rendered with the general encoders they
stand in for (tests/report_oracle.py: ``json.dumps(indent=2)`` and
``csv.writer``), which must give the same bytes.  Text has no reference
encoder and is only timed.

    python3 benchmarks/bench_render.py [--primes 5..199] [--repeats 3]
"""

import argparse
import sys
import time
from pathlib import Path

from franelcheck import report
from franelcheck.cli import _parse_prime_range
from franelcheck.suite import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from report_oracle import oracle_csv, oracle_json  # noqa: E402

RENDERERS = (
    ("json", report.render_json, oracle_json),
    ("csv", report.render_csv, oracle_csv),
    ("text", report.render_text, None),
)


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="5..199")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    start = time.perf_counter()
    rep = run_suite(primes=_parse_prime_range(args.primes))
    print(f"{len(rep.rows)} rows over {args.primes}, computed in {time.perf_counter() - start:.2f}s")

    print(f"best of {args.repeats}")
    header = f"{'format':<6} {'bytes':>10} {'render':>10} {'reference':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for fmt, render, reference in RENDERERS:
        t_render, text = best_of(lambda: render(rep), args.repeats)
        if reference is None:
            print(f"{fmt:<6} {len(text):>10} {t_render * 1e3:>8.1f}ms {'-':>10} {'-':>8}")
            continue
        t_ref, expected = best_of(lambda: reference(rep), args.repeats)
        assert text == expected, f"{fmt} output differs from the reference encoder"
        print(f"{fmt:<6} {len(text):>10} {t_render * 1e3:>8.1f}ms {t_ref * 1e3:>8.1f}ms "
              f"{t_ref / t_render:>7.1f}x")


if __name__ == "__main__":
    main()
