"""Run one franelcheck CLI invocation with spans and counters at each layer.

    PYTHONPATH=src python3 perfbench/trace_child.py STATS.json verify --primes 5..31 ...

Everything after STATS.json is passed to ``franelcheck.cli.main`` unchanged.
Before the call, the public functions of each layer are wrapped from here;
nothing inside ``src/`` knows it is being traced:

  kernels      every table kernel: a span, its call count, its main-loop
               iteration count computed from the arguments, and which
               backend ``kernels.backend_name(m)`` says served it
  sequences    the public ``PrimeContext`` methods (one span name), plus
               cache lookups and misses counted at ``PrimeContext._get``
  suite        ``run_check`` and each registry check's ``evaluate``
  report       ``report.render`` renders every format from the same report
  expr         ``parse`` and ``eval_congruence``
  modring      every ``Residue`` arithmetic call (a count, no span)

Spans nest on one stack, so a span's self time excludes the spans it
caused.  Totals stay in memory and are written to STATS.json as

    {"spans": {name: {"total": s, "self": s, "calls": n}}, "counts": {name: n}}

when the CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

KERNEL_OPS = {
    # main-loop iterations of each kernel, computed from its arguments
    "inverse_table": lambda p, m, n: n,
    "franel_table": lambda p, m, length: length,
    "central_binom_table": lambda p, m, length: length,
    "binom_shift_table": lambda p, m, rbar, length: length,
    "fpoly_table": lambda p, m, x, length: sum(l // 2 + 1 for l in range(length)),
    "genfranel_table": lambda p, m, r, length: length * (length + 1) // 2,
    "weighted_cube_table": lambda p, m, w, length: length * (length + 1) // 2,
    "triangle_weighted_sums": lambda p, m: p * (p + 1) // 2 - 1,
}

RESIDUE_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__", "inv",
)

CONTEXT_METHODS = (
    "inv", "franel", "central", "fpoly", "shift", "genfranel", "weighted_cubes",
    "harmonic", "powers", "q2", "triangle_sums", "central_double_mod_p3",
)

FORMATS = ("json", "csv", "text")


class Tracer:
    """Aggregated spans and counters, kept in memory until the run ends."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open: list[float] = []  # time covered by children, per open span

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) may add counts."""
        open_, total, self_time, calls = self._open, self.total, self.self_time, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_.pop()
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
                if open_:
                    open_[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": {
                name: {"total": self.total[name], "self": self.self_time[name], "calls": self.calls[name]}
                for name in self.total
            },
            "counts": dict(self.counts),
        }


def _patch(owner, name: str, make) -> None:
    """Replace owner.name by make(original).

    A layer function that has moved raises AttributeError, so the traced
    call fails and its rows count as failed instead of its metrics reading 0.
    """
    setattr(owner, name, make(getattr(owner, name)))


def instrument(tracer: Tracer) -> None:
    from franelcheck import expr, kernels, modring, report, sequences, suite

    counts = tracer.counts

    def kernel_counts(kname, ops):
        def after(args, result):
            counts[f"kernels.{kname}.ops"] += ops(*args)
            if kernels.backend_name(args[1]) == "native":
                counts["kernels.native_calls"] += 1

        return after

    for kname, ops in KERNEL_OPS.items():
        _patch(kernels, kname, lambda fn, kname=kname, ops=ops: tracer.span(
            f"kernels.{kname}", fn, kernel_counts(kname, ops)))

    ctx_cls = sequences.PrimeContext
    for method in CONTEXT_METHODS:
        _patch(ctx_cls, method, lambda fn: tracer.span("sequences", fn))

    def make_get(get):
        def _get(self, key, build):
            counts["sequences.lookups"] += 1
            if key not in getattr(self, "_cache", {}):
                counts["sequences.builds"] += 1
            return get(self, key, build)

        return _get

    _patch(ctx_cls, "_get", make_get)

    def count_rows(name):
        def after(args, result):
            counts[name] += len(result.rows if hasattr(result, "rows") else result)

        return after

    _patch(suite, "run_check", lambda fn: tracer.span("suite.run_check", fn, count_rows("suite.rows")))
    for cid, spec in list(suite.REGISTRY.items()):
        suite.REGISTRY[cid] = dataclasses.replace(
            spec, evaluate=tracer.span(f"suite.eval.{cid}", spec.evaluate)
        )

    renderers = {}
    for fmt in FORMATS:
        _patch(report, f"render_{fmt}", lambda fn, fmt=fmt: tracer.span(f"report.render.{fmt}", fn))
        renderers[fmt] = getattr(report, f"render_{fmt}")

    def make_render(render):
        def render_all(rep, fmt):
            out = None
            for other, render_other in renderers.items():
                start = time.perf_counter()
                text = render_other(rep)
                counts[f"report.bytes.{other}"] += len(text.encode())
                if other == fmt:
                    out = text
                else:
                    counts["report.extra_s"] += time.perf_counter() - start
            return out if out is not None else render(rep, fmt)

        return render_all

    _patch(report, "render", make_render)

    _patch(expr, "parse", lambda fn: tracer.span("expr.parse", fn))
    _patch(expr, "eval_congruence", lambda fn: tracer.span("expr.eval", fn, count_rows("expr.rows")))

    for op in RESIDUE_OPS:
        _patch(modring.Residue, op, lambda fn: tracer.counted("modring.residue_ops", fn))


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from franelcheck import cli

    code = cli.main(cli_args)
    with open(stats_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
