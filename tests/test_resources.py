"""Resource accounting: measured circuit costs against closed-form predictions."""

import numpy as np
import pytest

from fermiselect.circuit_ir import lower_macros, schedule
from fermiselect.gadgets import GADGETS, address_bits
from fermiselect.resources import (
    FORMULAS,
    GROWTH_CAP,
    GROWTH_SIZES,
    check_against_formulas,
    measure,
)
from fermiselect.select_synth import synth_select_general, synth_select_k2
from fermiselect.simulator import unitary_of


def _rows(n_list):
    text = check_against_formulas(n_list)
    lines = text.strip().splitlines()
    assert lines[0] == "component,n,metric,measured,expected,status"
    return [line.split(",") for line in lines[1:]]


def test_swap_up_golden_row():
    rows = _rows([8])
    assert ["SwapUp", "8", "t_count", "98", "98", "ok"] in rows


def test_all_components_ok_at_n8():
    for row in _rows([8]):
        assert row[5] == "ok", row


def test_formula_names_cover_all_components():
    rows = _rows([4])
    assert {r[0] for r in rows} == set(FORMULAS)


def test_toffoli_ratio_rows_only_for_plain_variants():
    rows = _rows([8])
    ratio_components = {r[0] for r in rows if r[2] == "toffoli_ratio"}
    assert ratio_components == {
        "SwapUp", "InjectZ", "InjSelQ", "InjSelP", "SelectK2Plain",
    }
    for r in rows:
        if r[2] == "toffoli_ratio":
            assert r[3] == r[4] == "7" and r[5] == "ok"


def test_growth_rows_only_for_select_components_at_growth_sizes():
    rows = _rows(list(GROWTH_SIZES) + [12])
    growth = [r for r in rows if r[2] == "clifford_growth"]
    assert {r[0] for r in growth} == set(GROWTH_CAP)
    assert {int(r[1]) for r in growth} == set(GROWTH_SIZES)  # n=12 not a growth point
    for r in growth:
        assert float(r[3]) <= float(r[4]) and r[5] == "ok"


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_width_and_extension_points_exact(name):
    # no ancillas: address registers, flags and data, counted from the row
    f = FORMULAS[name]
    for n in (4, 8):
        report, points, _ = measure(name, n)
        assert report.total_qubits == f.address * address_bits(n) + f.flags + n
        assert points == f.extension_points


def test_t_depth_bound_holds():
    ceiling = {(r[0], int(r[1])): int(r[4]) for r in _rows([4, 8, 16]) if r[2] == "t_depth"}
    for name in FORMULAS:
        for n in (4, 8, 16):
            report, _, _ = measure(name, n)
            assert report.t_depth <= ceiling[name, n], (name, n)


_LAW_SIZES = [1 << L for L in range(1, 11)] + [3, 5, 6, 7, 12, 20, 33, 100, 200, 300, 600, 1000]


@pytest.mark.parametrize("n", _LAW_SIZES)
def test_select_depths_follow_the_papers_laws(n):
    # T-depth O(log n) and Clifford depth O(log^2 n) as exact laws in L = ceil(log2 n): each
    # depth equals its law at n = 2^L (plain T-depth from L = 2, plain Clifford depth from
    # L = 4) and stays at or below it elsewhere; the star T-depth is 48L at every n
    L, power = address_bits(n), n & (n - 1) == 0
    circuits = {v: synth_select_k2(n, v) for v in ("star", "plain")}
    star, plain = (schedule(circuits[v], lower=True) for v in ("star", "plain"))
    if n == 64:  # one size cross-checks the un-lowered schedule against the lowered circuit
        assert [star, plain] == [schedule(lower_macros(circuits[v])) for v in ("star", "plain")]
    assert star.t_depth == 48 * L
    for depth, law, exact in ((star.clifford_depth, 12 * L * L + 40 * L + 28, power),
                              (plain.t_depth, 128 * L - 64, power and L >= 2),
                              (plain.clifford_depth, 32 * L * L + 108 * L + 214, power and L >= 4)):
        assert depth == law if exact else depth <= law, (depth, law)
    if n == 2:
        assert plain.t_depth == 32  # the plain network is a single CSWAP


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 32, 64, 100, 128])
def test_general_k4_select_follows_its_laws(n):
    # T-count 128(n-1) + 56 star and 336(n-1) + 56 plain (from n = 3; the 56 is eight
    # CCZ/TOFFOLI); T-depth 128L + 32 star at every n, 384L - 160 plain at n = 2^L from
    # L = 2 and at or below it elsewhere
    L, power = address_bits(n), n & (n - 1) == 0
    star = schedule(synth_select_general(n, 4, "star"), lower=True)
    plain = schedule(synth_select_general(n, 4, "plain"), lower=True)
    assert star.t_count == 128 * (n - 1) + 56
    assert star.t_depth == 128 * L + 32
    if n == 2:  # one controlled swap per network, as for k = 2
        assert (plain.t_count, plain.t_depth) == (224, 128)
        return
    assert plain.t_count == 336 * (n - 1) + 56
    law = 384 * L - 160
    assert plain.t_depth == law if power else plain.t_depth <= law, (plain.t_depth, law)


def test_gadget_rows_are_the_formula_rows():
    # one row object per gadget, and the CSV keeps its component order
    assert list(FORMULAS) == [*GADGETS, "SelectK2Plain", "SelectK2Star"]
    assert list(GADGETS) == [
        "SwapUp", "SwapUpStar", "InjectZ", "InjectZStar",
        "InjSelQ", "InjSelQStar", "InjSelP", "InjSelPStar",
    ]
    for name, row in GADGETS.items():
        assert FORMULAS[name] is row


def test_n2_plain_known_shortfalls():
    # at n=2 a plain swap network is a single controlled swap (no idle
    # address bit to borrow), so the plain T-counts are 7 per network:
    # exactly 7 / 14 / 14 / 14 / 56, and the table agrees on every row
    rows = _rows([2])
    for r in rows:
        assert r[5] == "ok", r
    t_counts = {r[0]: (int(r[3]), int(r[4])) for r in rows if r[2] == "t_count"}
    for name, t in {
        "SwapUp": 7,
        "InjectZ": 14,
        "InjSelQ": 14,
        "InjSelP": 14,
        "SelectK2Plain": 56,
    }.items():
        assert t_counts[name] == (t, t), name


def test_measure_rejects_unknown_component():
    with pytest.raises(KeyError):
        measure("NoSuchThing", 4)


# --- pure_clifford_t lowering ------------------------------------------------


def _a_balance(circuit):
    kinds = [g.kind for g in lower_macros(circuit).gates]
    return kinds.count("A"), kinds.count("Adg")


@pytest.mark.parametrize("name", sorted(FORMULAS))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_every_formula_circuit_balances_a_gates(name, n):
    # the A -> S·H·T·H·Sdg rewrite is exact only when A and Adg pair up
    a, adg = _a_balance(FORMULAS[name].build(n))
    assert a == adg


@pytest.mark.parametrize("variant", ["plain", "star"])
@pytest.mark.parametrize("n", [2, 5])
def test_general_select_balances_a_gates(variant, n):
    a, adg = _a_balance(synth_select_general(n, 4, variant))
    assert a == adg


@pytest.mark.parametrize(
    "build", [lambda: synth_select_k2(2, "star"), lambda: FORMULAS["InjSelQStar"].build(4)]
)
def test_pure_clifford_t_lowering_is_exact(build):
    c = build()
    exact = unitary_of(lower_macros(c))
    assert np.abs(unitary_of(lower_macros(c, pure_clifford_t=True)) - exact).max() < 1e-12
