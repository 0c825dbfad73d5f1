"""Gate-count accounting and closed-form cost checks.

Each catalogued component has a closed-form T-count (exact), a T-depth
bound (measured depth must not exceed it), and a fixed number of
control extension points.  ``check_against_formulas`` measures lowered
circuits and emits a CSV with one row per (component, n, metric).

Plain-variant components additionally carry a Toffoli-ratio row: their
non-Clifford cost comes entirely from controlled swaps at 7 T each, so
t_count divided by the number of controlled swaps must equal 7.  A plain
swap network has 2(n-1) controlled swaps for n >= 3 and a single one at
n = 2, so the plain T-counts are 14(n-1) for SwapUp, 28(n-1) for each
injector (two networks) and 112(n-1) for SelectK2Plain (eight
networks), and exactly 7, 14, 14, 14 and 56 at n = 2.

SELECT rows include the register width (selection plus system, exact)
and the growth of lowered Clifford depth relative to ``log2(n)**2``,
which is pinned under a frozen cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .circuit_ir import (
    Circuit,
    ResourceReport,
    count_extension_points,
    lower_macros,
    schedule,
)
from .gadgets import GADGETS, address_bits
from .select_synth import synth_select_k2

__all__ = [
    "CostFormula",
    "FORMULAS",
    "GROWTH_CAP",
    "measure",
    "check_against_formulas",
]


@dataclass(frozen=True)
class CostFormula:
    """Closed-form costs for one catalogued component."""

    name: str
    build: Callable[[int], Circuit]
    t_count: Callable[[int], int]
    t_depth_bound: Callable[[int], int]
    extension_points: int
    width: Callable[[int], int]
    toffoli_ratio: bool = False
    select_like: bool = False


def _L(n: int) -> int:
    return address_bits(n)


def _plain_t(networks: int) -> Callable[[int], int]:
    """T-count of ``networks`` plain swap networks at 7 T per controlled swap.

    A plain network has 2(n-1) controlled swaps for n >= 3 and a single
    one at n = 2, where there is no idle address bit to borrow.
    """
    return lambda n: 7 * networks * (1 if n == 2 else 2 * (n - 1))


FORMULAS: dict[str, CostFormula] = {
    f.name: f
    for f in (
        CostFormula(
            "SwapUp", GADGETS["SwapUp"].build,
            _plain_t(1), lambda n: 16 * _L(n),
            0, lambda n: _L(n) + n, toffoli_ratio=True,
        ),
        CostFormula(
            "SwapUpStar", GADGETS["SwapUpStar"].build,
            lambda n: 4 * (n - 1), lambda n: 4 * _L(n),
            0, lambda n: _L(n) + n,
        ),
        CostFormula(
            "InjectZ", GADGETS["InjectZ"].build,
            _plain_t(2), lambda n: 32 * _L(n),
            1, lambda n: _L(n) + n, toffoli_ratio=True,
        ),
        CostFormula(
            "InjectZStar", GADGETS["InjectZStar"].build,
            lambda n: 8 * (n - 1), lambda n: 8 * _L(n),
            1, lambda n: _L(n) + n,
        ),
        CostFormula(
            "InjSelQ", GADGETS["InjSelQ"].build,
            _plain_t(2), lambda n: 32 * _L(n),
            4, lambda n: _L(n) + 2 + n, toffoli_ratio=True,
        ),
        CostFormula(
            "InjSelQStar", GADGETS["InjSelQStar"].build,
            lambda n: 16 * (n - 1), lambda n: 16 * _L(n),
            4, lambda n: _L(n) + 2 + n,
        ),
        CostFormula(
            "InjSelP", GADGETS["InjSelP"].build,
            _plain_t(2), lambda n: 32 * _L(n),
            2, lambda n: _L(n) + 1 + n, toffoli_ratio=True,
        ),
        CostFormula(
            "InjSelPStar", GADGETS["InjSelPStar"].build,
            lambda n: 16 * (n - 1), lambda n: 16 * _L(n),
            2, lambda n: _L(n) + 1 + n,
        ),
        CostFormula(
            "SelectK2Plain", lambda n: synth_select_k2(n, "plain"),
            _plain_t(8), lambda n: 128 * _L(n),
            9, lambda n: 2 * _L(n) + 3 + n, toffoli_ratio=True, select_like=True,
        ),
        CostFormula(
            "SelectK2Star", lambda n: synth_select_k2(n, "star"),
            lambda n: 48 * (n - 1), lambda n: 48 * _L(n),
            9, lambda n: 2 * _L(n) + 3 + n, select_like=True,
        ),
    )
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


def measure(name: str, n: int) -> tuple[ResourceReport, int, int]:
    """(lowered schedule, extension points, controlled-swap count)."""
    circuit = FORMULAS[name].build(n)
    points = count_extension_points(circuit)
    cswaps = sum(1 for g in circuit.gates if g.kind in ("CSWAP", "CSWAP_STAR"))
    report = schedule(lower_macros(circuit))
    return report, points, cswaps


def _rows_for(name: str, n: int) -> list[tuple[str, int, str, str, str, bool]]:
    f = FORMULAS[name]
    report, points, cswaps = measure(name, n)
    rows = []
    t_exp = f.t_count(n)
    rows.append((name, n, "t_count", str(report.t_count), str(t_exp), report.t_count == t_exp))
    d_exp = f.t_depth_bound(n)
    rows.append((name, n, "t_depth", str(report.t_depth), str(d_exp), report.t_depth <= d_exp))
    rows.append(
        (name, n, "extension_points", str(points), str(f.extension_points),
         points == f.extension_points)
    )
    w_exp = f.width(n)
    rows.append(
        (name, n, "width", str(report.total_qubits), str(w_exp),
         report.total_qubits == w_exp)
    )
    if f.toffoli_ratio:
        ratio = report.t_count / cswaps if cswaps else float("nan")
        rows.append((name, n, "toffoli_ratio", f"{ratio:g}", "7", ratio == 7))
    if f.select_like and n in GROWTH_SIZES:
        growth = report.clifford_depth / _L(n) ** 2
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
