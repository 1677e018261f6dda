"""Kernel backend selection and the kernel boundary.

The table kernels exist twice: a hand-written C extension (``_native``,
built from ``_native.c`` by ``setup.py``) and a pure-Python mirror
(``pure``).  The compiled backend is picked at import when it was built; it
only handles moduli below 2**63, so larger moduli fall through to the pure
path, which is arbitrary precision.

Every call goes through the functions below, which validate the arguments
and reduce residue parameters mod m once for both backends, so the two
accept the same inputs and return the same results.  Five kernels sit
behind them: ``precursive_table``, ``inverse_table``, ``genfranel_table``
(row sums of binomial powers r >= 5), ``triangle_weighted_sums`` and
``wdot``.  Every table but the inverses, the triangle sums and the row sums
for r >= 5 is P-recursive: its function only evaluates an entry of
``RECURRENCES`` at its parameter mod m and runs it through
``precursive_table``, in O(p).  ``franelcheck.identities`` proves each
entry of that table.  ``wdot`` is the one reduction, a sum over k of
products of table entries, under the registry's sums and the sums the DSL
lowers.

Set ``FRANELCHECK_PURE=1`` to force the pure backend, e.g. to time or
check an end-to-end run on it.
"""

from __future__ import annotations

import os

from . import pure
from .recurrences import RECURRENCES

try:
    from . import _native
except ImportError:
    _native = None

_FORCE_PURE = os.environ.get("FRANELCHECK_PURE") == "1"

NATIVE_MODULUS_LIMIT = 1 << 63


def native_available() -> bool:
    return _native is not None and not _FORCE_PURE


def backend_name(m: int | None = None) -> str:
    """Which backend a call with modulus m would use."""
    if native_available() and (m is None or m < NATIVE_MODULUS_LIMIT):
        return "native"
    return "pure"


def _impl(m: int):
    if _native is not None and not _FORCE_PURE and m < NATIVE_MODULUS_LIMIT:
        return _native
    return pure


def _check_length(p: int, length: int) -> None:
    if not 0 <= length <= p:
        raise ValueError(f"length must be in 0..p, got {length} with p={p}")


def inverse_table(p: int, m: int, n: int) -> list[int]:
    """[0] + the inverses of 1..n mod m; slot 0 is 0 on both backends."""
    if not 0 <= n < p:
        raise ValueError(f"inverse table needs 0 <= n < p, got n={n}, p={p}")
    return _impl(m).inverse_table(p, m, n)


def precursive_table(p: int, m: int, coeffs, init, length: int) -> list[int]:
    """The one P-recursive kernel, on entries the caller reduced mod m."""
    _check_length(p, length)
    return _impl(m).precursive_table(p, m, coeffs, init, length)


def _recurrence_table(p: int, m: int, name: str, x: int, length: int) -> list[int]:
    """Entry ``name`` of RECURRENCES at the parameter x, evaluated mod m."""
    rec = RECURRENCES[name]
    x %= m
    coeffs = [[pure.horner(row, x, m) for row in a] for a in rec.coeffs]
    return precursive_table(p, m, coeffs, [pure.horner(row, x, m) for row in rec.init], length)


def franel_table(p: int, m: int, length: int) -> list[int]:
    return _recurrence_table(p, m, "franel", 0, length)


def central_binom_table(p: int, m: int, length: int) -> list[int]:
    return _recurrence_table(p, m, "central", 0, length)


def binom_shift_table(p: int, m: int, rbar: int, length: int) -> list[int]:
    return _recurrence_table(p, m, "shift", rbar, length)


def fpoly_table(p: int, m: int, x: int, length: int) -> list[int]:
    return _recurrence_table(p, m, "fpoly", x, length)


#: genfranel_table's powers r that have a recurrence; others use the row sums
_GENFRANEL_RECURRENCES = {1: "pow2", 2: "central", 3: "franel", 4: "binom4"}


def genfranel_table(p: int, m: int, r: int, length: int) -> list[int]:
    if r in _GENFRANEL_RECURRENCES:
        return _recurrence_table(p, m, _GENFRANEL_RECURRENCES[r], 0, length)
    _check_length(p, length)
    if r < 1:
        raise ValueError(f"power must be >= 1, got {r}")
    # the exponent is not a residue, so one past 64 bits stays on pure
    impl = pure if r >> 64 else _impl(m)
    return impl.genfranel_table(p, m, r, length)


def weighted_cube_table(p: int, m: int, w: int, length: int) -> list[int]:
    return _recurrence_table(p, m, "weighted_cubes", w, length)


def triangle_weighted_sums(p: int, m: int) -> list[int]:
    return _impl(m).triangle_weighted_sums(p, m)


def wdot(m: int, alternate: bool, *tables: list[int]) -> int:
    """sum_k (+-1)^k prod_j tables[j][k] mod m over lists of one length.

    The sign alternates from +1 at k = 0 when alternate is true.  Entries
    must already be in [0, m); callers shift an index range by slicing.
    """
    return _impl(m).wdot(m, alternate, *tables)
