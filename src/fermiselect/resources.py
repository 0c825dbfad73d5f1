"""Gate-count accounting and the one cost law of the catalogue.

Every catalogued component is a ``gadgets.Component`` row, and its
expected costs follow from its swap-network count alone.  With
L = ``address_bits(n)``, per swap network:

* plain: 7 T per controlled swap, 2(n-1) controlled swaps (a single
  one at n = 2, where there is no idle address bit to borrow), and a
  T-depth ceiling of 16L;
* star: 4(n-1) T and a T-depth ceiling of 4L.

The T-count must match exactly and the T-depth stay within its ceiling.
The width is exact: ``address``·L + ``flags`` + n, no ancillas.  The
control extension points are the row's own count.

Plain rows additionally carry a Toffoli-ratio row: their non-Clifford
cost comes entirely from controlled swaps, so t_count divided by the
number of controlled swaps must equal 7.  The SELECT rows named in
``GROWTH_CAP`` carry the growth of lowered Clifford depth relative to
``log2(n)**2``, pinned under a frozen cap.  ``check_against_formulas``
schedules each un-lowered circuit as its lowering (``schedule`` reads a
macro that way), building no lowered circuit, and emits a CSV with one
row per (component, n, metric).

The k = 2 SELECT's lowered depths follow the paper's O(log n) T-depth and
O(log² n) Clifford depth as exact laws, equal at n = 2^L and at most that
elsewhere (tested to n = 1,024, and equal at n = 8,192): star T-depth 48L
(at every n), Clifford depth 12L² + 40L + 28; plain T-depth 128L − 64
(from L = 2; 32 at n = 2, one controlled swap), Clifford depth
32L² + 108L + 214 (from L = 4).  The general k = 4 SELECT has T-count
128(n − 1) + 56 star and 336(n − 1) + 56 plain (from n = 3), and T-depth
128L + 32 star (at every n) and 384L − 160 plain (from L = 2, at most
that elsewhere).
"""

from __future__ import annotations

from .circuit_ir import ResourceReport, count_extension_points, schedule
from .gadgets import GADGETS, Component, address_bits
from .select_synth import synth_select_k2

__all__ = [
    "FORMULAS",
    "GROWTH_CAP",
    "measure",
    "check_against_formulas",
]

# the gadget rows are the GADGETS objects themselves
FORMULAS: dict[str, Component] = {
    **GADGETS,
    "SelectK2Plain": Component(lambda n: synth_select_k2(n, "plain"), "plain", 8, 2, 3, 9),
    "SelectK2Star": Component(lambda n: synth_select_k2(n, "star"), "star", 12, 2, 3, 9),
}

# Frozen caps on lowered clifford_depth / log2(n)**2 for the SELECT
# circuits.  Measured maxima over n in {8..256} are 90.0 (plain, at
# n=8) and 28.4 (star, at n=8), decreasing with n; caps carry ~30%
# slack.  A regression that breaks the polylog depth scaling trips
# these.
GROWTH_CAP = {
    "SelectK2Plain": 117.0,
    "SelectK2Star": 37.0,
}

GROWTH_SIZES = (8, 16, 32, 64, 128, 256)


def _expected(c: Component, n: int) -> tuple[int, int, int]:
    """(T-count, T-depth ceiling, width) of ``c`` at n, by the module's law."""
    L = address_bits(n)
    if c.variant == "plain":
        t, depth = 7 * (1 if n == 2 else 2 * (n - 1)), 16 * L
    else:
        t, depth = 4 * (n - 1), 4 * L
    return c.networks * t, c.networks * depth, c.address * L + c.flags + n


def measure(name: str, n: int) -> tuple[ResourceReport, int, int]:
    """(schedule of the lowering, extension points, controlled-swap count)."""
    circuit = FORMULAS[name].build(n)
    points = count_extension_points(circuit)
    cswaps = sum(1 for g in circuit.gates if g.kind in ("CSWAP", "CSWAP_STAR"))
    report = schedule(circuit)
    return report, points, cswaps


def _rows_for(name: str, n: int) -> list[tuple[str, int, str, str, str, bool]]:
    c = FORMULAS[name]
    report, points, cswaps = measure(name, n)
    t_exp, d_exp, w_exp = _expected(c, n)
    rows = [
        (name, n, "t_count", str(report.t_count), str(t_exp), report.t_count == t_exp),
        (name, n, "t_depth", str(report.t_depth), str(d_exp), report.t_depth <= d_exp),
        (name, n, "extension_points", str(points), str(c.extension_points),
         points == c.extension_points),
        (name, n, "width", str(report.total_qubits), str(w_exp), report.total_qubits == w_exp),
    ]
    if c.variant == "plain":
        ratio = report.t_count / cswaps if cswaps else float("nan")
        rows.append((name, n, "toffoli_ratio", f"{ratio:g}", "7", ratio == 7))
    if name in GROWTH_CAP and n in GROWTH_SIZES:
        growth = report.clifford_depth / address_bits(n) ** 2
        cap = GROWTH_CAP[name]
        rows.append((name, n, "clifford_growth", f"{growth:.3f}", f"{cap:.3f}", growth <= cap))
    return rows


def check_against_formulas(n_list: list[int]) -> str:
    """CSV of measured vs expected costs for every catalogued component."""
    lines = ["component,n,metric,measured,expected,status"]
    for name in FORMULAS:
        for n in n_list:
            for comp, nn, metric, measured, expected, ok in _rows_for(name, n):
                status = "ok" if ok else "FAIL"
                lines.append(f"{comp},{nn},{metric},{measured},{expected},{status}")
    return "\n".join(lines) + "\n"
