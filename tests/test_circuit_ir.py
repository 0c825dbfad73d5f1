"""Gate IR: macro lowering, scheduling, controls, inversion, emission.

Macro references are built as explicit permutation/diagonal matrices,
not from the package's own expansions.
"""

import itertools
from functools import partial

import numpy as np
import pytest

from fermiselect.circuit_ir import (
    Circuit,
    Gate,
    ResourceReport,
    MACRO_KINDS,
    TERMINAL_KINDS,
    add_global_controls,
    compose,
    conjugated,
    count_extension_points,
    emit_text,
    expand_macro,
    inverse,
    lower_macros,
    schedule,
    terminal_gates,
    _frame_gates,
    _inverted,
    _remapped,
)
from fermiselect.gadgets import (
    GADGETS,
    _toggle_gates,
    address_bits,
    basis_change,
    cswap_phase_incorrect,
    fanout_cnot,
    inject,
    multi_target_controlled_swap,
    select_p,
    select_q,
    swap_up,
)
from fermiselect.resources import FORMULAS
from fermiselect.select_synth import controlled_select, synth_select_general, synth_select_k2
from fermiselect.simulator import unitary_of

from conftest import chain_depth, permutation_matrix


def ref_ccz():
    m = np.eye(8, dtype=complex)
    m[7, 7] = -1
    return m


def ref_toffoli():
    return permutation_matrix(3, lambda b: [b[0], b[1], b[2] ^ (b[0] & b[1])])


def ref_cswap():
    def fn(b):
        if b[0]:
            b[1], b[2] = b[2], b[1]
        return b

    return permutation_matrix(3, fn)


def ref_cswap_star():
    m = ref_cswap()
    m[4, 4] = -1  # |100> picks up a sign
    return m


def ref_swap():
    return permutation_matrix(2, lambda b: [b[1], b[0]])


def ref_cs(sign):
    return np.diag([1, 1, 1, 1j * sign]).astype(complex)


MACRO_REFS = {
    "CCZ": ((0, 1, 2), ref_ccz()),
    "TOFFOLI": ((0, 1, 2), ref_toffoli()),
    "CSWAP": ((0, 1, 2), ref_cswap()),
    "CSWAP_STAR": ((0, 1, 2), ref_cswap_star()),
    "SWAP": ((0, 1), ref_swap()),
    "CS": ((0, 1), ref_cs(+1)),
    "CSdg": ((0, 1), ref_cs(-1)),
}


@pytest.mark.parametrize("kind", sorted(MACRO_REFS))
def test_macro_unitary(kind):
    qubits, ref = MACRO_REFS[kind]
    c = Circuit(len(qubits))
    c.add(kind, *qubits)
    lowered = lower_macros(c)
    assert not ({g.kind for g in lowered.gates} & MACRO_KINDS)
    assert np.abs(unitary_of(lowered) - ref).max() < 1e-12


@pytest.mark.parametrize(
    "kind,t_count,t_depth",
    [("CCZ", 7, 4), ("TOFFOLI", 7, 4), ("CSWAP", 7, 4), ("CSWAP_STAR", 4, 4),
     ("CS", 3, 2), ("CSdg", 3, 2), ("SWAP", 0, 0)],
)
def test_macro_costs(kind, t_count, t_depth):
    c = Circuit(3)
    c.add(kind, *range(2 if kind in ("CS", "CSdg", "SWAP") else 3))
    rep = schedule(lower_macros(c))
    assert rep.t_count == t_count
    assert rep.t_depth == t_depth


def test_macro_expansion_is_one_step():
    g = Gate("CSWAP", (0, 1, 2))
    kinds = [h.kind for h in expand_macro(g)]
    assert kinds == ["CX", "TOFFOLI", "CX"]


@pytest.mark.parametrize("kind", sorted(MACRO_REFS))
def test_inverse_of_macros(kind):
    qubits, ref = MACRO_REFS[kind]
    c = Circuit(len(qubits))
    c.add(kind, *qubits)
    assert np.abs(unitary_of(inverse(c)) - ref.conj().T).max() < 1e-12


def test_inverse_reverses_and_conjugates(rng):
    c = Circuit(3)
    for kind, qs in [("H", (0,)), ("T", (1,)), ("CX", (0, 2)), ("S", (2,)),
                     ("A", (1,)), ("CY", (2, 1)), ("Sdg", (0,)), ("CZ", (0, 1))]:
        c.add(kind, *qs)
    u = unitary_of(c)
    v = unitary_of(inverse(c))
    assert np.abs(u @ v - np.eye(8)).max() < 1e-12


def test_pure_clifford_t_removes_a_gates():
    c = Circuit(3)
    c.add("CSWAP_STAR", 0, 1, 2)
    c.add("A", 0)
    c.add("Adg", 2)
    lowered = lower_macros(c, pure_clifford_t=True)
    kinds = {g.kind for g in lowered.gates}
    assert not kinds & {"A", "Adg"}
    assert not kinds & MACRO_KINDS
    # global phases of the A-rewrites cancel pairwise, so the unitary matches
    assert np.abs(unitary_of(lowered) - unitary_of(lower_macros(c))).max() < 1e-12


@pytest.mark.parametrize("kinds,diff", [(("A",), "+1"), (("Adg", "H", "Adg"), "-2")])
def test_pure_clifford_t_rejects_unmatched_a_gates(kinds, diff):
    # each unmatched A would leave a global phase exp(±iπ/8)
    c = Circuit(2)
    for kind in kinds:
        c.add(kind, 1)
    with pytest.raises(ValueError, match=f"A minus Adg is \\{diff}"):
        lower_macros(c, pure_clifford_t=True)
    assert len(lower_macros(c).gates) == len(kinds)


def test_schedule_rejects_macros():
    c = Circuit(3)
    c.add("TOFFOLI", 0, 1, 2)
    with pytest.raises(ValueError, match="lowered"):
        schedule(c)


def test_chain_depth_over_every_kind_is_asap_depth():
    # greedy ASAP layers are 1, 1, 2, 1: the deepest is layer 2
    c = Circuit(3)
    c.add("H", 0)
    c.add("H", 1)
    c.add("CX", 0, 1)
    c.add("X", 2)
    every = {"H", "CX", "X"}
    assert chain_depth(c, every) == 2
    c.add("CX", 1, 2)
    assert chain_depth(c, every) == 3


def test_chain_depth_ignores_other_kinds():
    c = Circuit(2)
    c.add("T", 0)
    c.add("H", 0)
    c.add("T", 0)
    c.add("T", 1)
    assert chain_depth(c, {"T"}) == 2
    assert chain_depth(c, {"H"}) == 1


def test_schedule_counts():
    c = Circuit(2)
    c.add("T", 0)
    c.add("H", 1)
    c.add("CX", 0, 1)
    c.add("Tdg", 1)
    rep = schedule(c)
    assert rep.t_count == 2 and rep.t_depth == 2
    assert rep.clifford_count == 2 and rep.total_qubits == 2


def test_gate_validation():
    # a Gate is a plain record; every way into a circuit checks it
    bad = [
        Gate("XX", (0,)),
        Gate("CX", (0,)),  # wrong arity
        Gate("CX", (1, 1)),  # duplicate qubits
        Gate("X", (-1,)),
    ]
    for g in bad:
        c = Circuit(2)
        with pytest.raises(ValueError):
            Circuit(2, [g])
        with pytest.raises(ValueError):
            c.extend([g])
        with pytest.raises(ValueError):
            c.add(g.kind, *g.qubits)
        assert c.gates == []
    listed = Gate("CX", [0, 1])
    with pytest.raises(ValueError, match="tuple"):
        Circuit(2, [listed])
    with pytest.raises(ValueError, match="tuple"):
        c.extend([listed])
    with pytest.raises(ValueError):
        c.add("X", 5)


def test_extend_is_atomic():
    # a bad gate anywhere in the batch leaves the circuit as it was
    c = Circuit(2)
    with pytest.raises(ValueError, match="out of range"):
        c.extend([Gate("X", (0,)), Gate("X", (5,))])
    assert c.gates == []
    c.add("H", 1)
    with pytest.raises(ValueError, match="repeated qubit"):
        c.extend(iter([Gate("Z", (0,)), Gate("CX", (1, 1))]))
    assert c.gates == [Gate("H", (1,))]
    c.extend(iter([Gate("Z", (0,)), Gate("CX", (0, 1))]))
    assert c.gates == [Gate("H", (1,)), Gate("Z", (0,)), Gate("CX", (0, 1))]


def test_append_and_conjugated_reject_a_non_injective_map():
    # no gate touches both merged qubits, so only the map check sees it
    b = Circuit(2, [Gate("X", (0,)), Gate("Z", (1,))])
    c = Circuit(2)
    with pytest.raises(ValueError, match="two qubits to one"):
        c.append(b, [0, 0])
    with pytest.raises(ValueError, match="two qubits to one"):
        with conjugated(c, b, [1, 1]):
            c.add("H", 0)
    with pytest.raises(ValueError, match="two qubits to one"):
        compose(c, b, [0, 0])
    assert c.gates == []


def test_compose_embeds_and_keeps_labels():
    a = Circuit(3, [], {"main": (0, 1, 2)})
    b = Circuit(2)
    b.add("CX", 0, 1)
    out = compose(a, b, [2, 0])
    assert out.gates[-1].qubits == (2, 0)
    assert out.register_labels == {"main": (0, 1, 2)}
    with pytest.raises(ValueError):
        compose(a, b, [0])  # wrong map length


def test_compose_preserves_extension_markers():
    b = Circuit(1)
    b.add("Z", 0, control_extension_point=True)
    out = compose(Circuit(2), b, [1])
    assert out.gates[0].control_extension_point


def test_compose_copies_and_append_extends_in_place():
    a = Circuit(2, [Gate("H", (0,))])
    b = Circuit(2, [Gate("CX", (0, 1))])
    out = compose(a, b)
    assert a.gates == [Gate("H", (0,))]
    assert out.gates == [Gate("H", (0,)), Gate("CX", (0, 1))]
    a.append(b, [1, 0])
    assert a.gates == [Gate("H", (0,)), Gate("CX", (1, 0))]
    for bad in ([0], [0, 2]):  # wrong length, leaves the host
        with pytest.raises(ValueError):
            a.append(b, bad)
    with pytest.raises(ValueError):
        a.append(Circuit(3))  # widths differ and no map
    assert len(a.gates) == 2


def test_conjugated_remaps_once_and_inverts():
    net = Circuit(2, [Gate("S", (0,)), Gate("CX", (0, 1))])
    c = Circuit(3)
    with conjugated(c, net, [2, 0]) as host:
        assert host is c
        c.add("Z", 1)
    assert [(g.kind, g.qubits) for g in c.gates] == [
        ("S", (2,)), ("CX", (2, 0)), ("Z", (1,)), ("CX", (2, 0)), ("Sdg", (2,)),
    ]


def test_wrappers_note_their_spans_beside_the_gate_list():
    net = Circuit(2, [Gate("CX", (0, 1))])
    c = Circuit(3)
    with conjugated(c, net, [1, 2]):
        with basis_change(c, [0], "Y"):
            c.add("Z", 0)
    assert [g.kind for g in c.gates] == ["CX", "Sdg", "H", "Z", "H", "S", "CX"]
    assert c.spans == [(1, 3, 4, 6, (basis_change, [0], "Y")), (0, 1, 6, 7, (conjugated, net, [1, 2]))]
    # equality, copies and emission ignore them
    assert c == Circuit(3, list(c.gates)) and compose(c, Circuit(3)).spans == []
    assert "span" not in repr(c) and emit_text(lower_macros(c)) == emit_text(Circuit(3, list(c.gates)))


def _assert_spans_match_fresh_builds(c):
    for start, body, end, stop, (builder, *args) in c.spans:
        if builder is conjugated:
            opening = _remapped(c, *args)
            closing = _inverted(opening)
        else:
            opening, closing = map(list, _frame_gates(*args))
        assert c.gates[start:body] == opening and c.gates[end:stop] == closing, builder.__name__


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_every_span_opens_and_closes_as_a_fresh_build(n):
    # reused blocks are the gates a first call on the same net and map (or qubits and letter) writes
    for row in FORMULAS.values():
        _assert_spans_match_fresh_builds(row.build(n))
    built = 0
    for k, v, controls in itertools.product((2, 4, 6), ("plain", "star"), (0, 1, 2)):
        if k != 2 and controls == 2:
            continue  # the general layout takes at most one control
        c = controlled_select(n, k, v, controls)
        assert c.spans
        _assert_spans_match_fresh_builds(c)
        built += 1
    assert built == 14


def test_reused_blocks_ignore_edits_to_the_gate_list():
    net = Circuit(2, [Gate("S", (0,)), Gate("CX", (0, 1))])
    c = Circuit(3)
    frame = [("Sdg", (0,)), ("H", (0,)), ("Sdg", (1,)), ("H", (1,)),
             ("Z", (1,)),
             ("H", (0,)), ("S", (0,)), ("H", (1,)), ("S", (1,))]

    def wrap_and_read() -> list:
        with conjugated(c, net, [2, 0]):
            with basis_change(c, [0, 1], "Y"):
                c.add("Z", 1)
        return [(g.kind, g.qubits) for g in c.gates[c.spans[-1][0]:]]

    for _ in range(3):  # the first call writes the blocks, the others reuse them
        assert wrap_and_read() == [("S", (2,)), ("CX", (2, 0)), *frame, ("CX", (2, 0)), ("Sdg", (2,))]
        del c.gates[0], c.gates[2]  # the net's first gate and the frame's first
    net.add("H", 1)  # an edited net is remapped again
    assert wrap_and_read() == [("S", (2,)), ("CX", (2, 0)), ("H", (0,)), *frame,
                               ("H", (0,)), ("CX", (2, 0)), ("Sdg", (2,))]


def test_select_shares_gate_objects():
    # each repeated block is written from one set of gate objects: remapped, inverted and
    # shifted gates are made once per distinct gate
    def objects(c):
        return len({id(g) for g in c.gates}), len(set(c.gates)), len(c.gates)

    assert objects(synth_select_k2(512, "star")) == (11_255, 5_149, 68_966)
    assert objects(synth_select_k2(512, "plain")) == (2_677, 1_922, 25_402)
    assert objects(controlled_select(512, 2, "star", 1)) == (5_151, 5_148, 68_963)
    assert objects(controlled_select(512, 2, "plain", 2)) == (1_930, 1_922, 25_415)
    assert objects(synth_select_general(64, 4, "plain")) == (621, 355, 7_861)
    first, second = _inverted([Gate("T", (0,)), Gate("T", (0,))])
    assert first is second and first == Gate("Tdg", (0,))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_conjugated_swap_network_is_inject(n):
    net = swap_up(n)
    c = Circuit(net.n_qubits, [], dict(net.register_labels))
    with conjugated(c, net):
        c.add("Z", address_bits(n), control_extension_point=True)
    payload = Gate("Z", (address_bits(n),), control_extension_point=True)
    assert c.gates == net.gates + [payload] + inverse(net).gates
    assert c.gates == inject("Z", n).gates


# --- global controls -------------------------------------------------------


def controlled(ref: np.ndarray, num_controls: int) -> np.ndarray:
    dim = ref.shape[0]
    total = dim << num_controls
    out = np.eye(total, dtype=complex)
    out[-dim:, -dim:] = ref
    return out


@pytest.mark.parametrize("num_controls", [1, 2])
@pytest.mark.parametrize(
    "kind,qubits",
    [("Z", (0,)), ("CZ", (0, 1)), ("CX", (0, 1)), ("CY", (0, 1))],
)
def test_add_global_controls_on_marked_gate(kind, qubits, num_controls):
    # one idle qubit: two-control extensions borrow a spare wire, which
    # SELECT circuits always have
    width = max(qubits) + 2
    c = Circuit(width, [], {"payload": tuple(range(width))})
    c.add(kind, *qubits, control_extension_point=True)
    cc = add_global_controls(c, num_controls)
    assert cc.register_labels["ctrl"] == tuple(range(num_controls))
    assert cc.register_labels["payload"] == tuple(
        q + num_controls for q in range(width)
    )
    base = Circuit(width)
    base.add(kind, *qubits)
    ref = controlled(unitary_of(base), num_controls)
    assert np.abs(unitary_of(cc) - ref).max() < 1e-12


@pytest.mark.parametrize("kind,qubits", [("CCZ", (0, 1, 2)), ("TOFFOLI", (0, 1, 2)),
                                         ("Sdg", (0,))])
def test_add_one_control_on_three_qubit_marked_gate(kind, qubits):
    width = max(qubits) + 2
    c = Circuit(width)
    c.add(kind, *qubits, control_extension_point=True)
    cc = add_global_controls(c, 1)
    base = Circuit(width)
    base.add(kind, *qubits)
    ref = controlled(unitary_of(base), 1)
    assert np.abs(unitary_of(cc) - ref).max() < 1e-12
    with pytest.raises(ValueError):
        add_global_controls(c, 2)


def test_unmarked_gates_untouched():
    # the H passes through uncontrolled; only the marked Z gains the control
    c = Circuit(1)
    c.add("H", 0)
    c.add("Z", 0, control_extension_point=True)
    cc = add_global_controls(c, 1)
    assert cc.gates[0] == Gate("H", (1,))
    h = Circuit(1)
    h.add("H", 0)
    z = Circuit(1)
    z.add("Z", 0)
    ref = controlled(unitary_of(z), 1) @ np.kron(np.eye(2), unitary_of(h))
    assert np.abs(unitary_of(cc) - ref).max() < 1e-12


@pytest.mark.parametrize("num_controls", [1, 2])
def test_add_global_controls_rejects_a_circuit_without_marks(num_controls):
    lowered = lower_macros(synth_select_k2(2, "star"))
    assert not any(g.control_extension_point for g in lowered.gates)
    with pytest.raises(ValueError, match="no marked extension point.*unlowered"):
        add_global_controls(lowered, num_controls)
    with pytest.raises(ValueError, match="no marked extension point"):
        add_global_controls(Circuit(2), num_controls)


def test_phase_group_collapses_to_sdg():
    # the four-gate block X Sdg X Sdg realizes a global -i; controlled it
    # becomes a single Sdg / CSdg on the control(s)
    c = Circuit(2)
    for kind in ("X", "Sdg", "X", "Sdg"):
        c.add(kind, 0, control_extension_point=True, extension_group=0)
    assert np.abs(unitary_of(c) + 1j * np.eye(4)).max() < 1e-12
    one = add_global_controls(c, 1)
    assert np.abs(unitary_of(one) - controlled(-1j * np.eye(4), 1)).max() < 1e-12
    assert sum(1 for g in one.gates if g.kind == "Sdg") == 1
    two = add_global_controls(c, 2)
    assert np.abs(unitary_of(two) - controlled(-1j * np.eye(4), 2)).max() < 1e-12
    assert sum(1 for g in two.gates if g.kind == "CSdg") == 1


def test_count_extension_points_groups_once():
    c = Circuit(2)
    c.add("Z", 0, control_extension_point=True)
    c.add("X", 1, control_extension_point=True, extension_group=3)
    c.add("X", 1, control_extension_point=True, extension_group=3)
    c.add("CZ", 0, 1)
    assert count_extension_points(c) == 2


def test_add_global_controls_rejects_bad_count():
    c = Circuit(1)
    with pytest.raises(ValueError):
        add_global_controls(c, 0)
    with pytest.raises(ValueError):
        add_global_controls(c, 3)


# --- emission ---------------------------------------------------------------


def test_emit_text_golden():
    c = Circuit(1)
    c.add("X", 0)
    assert emit_text(c) == "qubits 1;\nx q[0];\n"


def test_emit_text_registers_and_gates():
    c = Circuit(3, [], {"addr": (0, 1), "data": (2,)})
    c.add("CX", 0, 2)
    c.add("Tdg", 1)
    text = emit_text(c)
    assert text.splitlines() == [
        "qubits 3;",
        "# addr: q[0..1]",
        "# data: q[2]",
        "cx q[0],q[2];",
        "tdg q[1];",
    ]


def test_emit_text_rejects_macros():
    c = Circuit(3)
    c.add("CSWAP", 0, 1, 2)
    with pytest.raises(ValueError):
        emit_text(c)


# --- reuse of repeated gates within one call ----------------------------------
#
# The back-end passes handle each distinct gate once per call and reuse the
# result for its repeats.  These references do the per-gate work afresh.


def _expand_reference(gates):
    """Every macro expanded through expand_macro, one gate at a time."""
    out = []
    for g in gates:
        step = expand_macro(g)
        out.extend([g] if step is None else _expand_reference(step))
    return out


def _repeated_macros(rng):
    """Shuffled macros of each kind on several qubit tuples, some marked."""
    gates = []
    for kind, (ref_qubits, _) in sorted(MACRO_REFS.items()):
        for qs in [(0, 1, 2), (2, 1, 0), (3, 0, 1), (1, 3, 2)]:
            qs = qs[: len(ref_qubits)]
            gates += [Gate(kind, qs), Gate(kind, qs, True), Gate(kind, qs, True, 7)] * 3
    gates += [Gate("H", (1,)), Gate("CX", (0, 1), True), Gate("T", (2,), False, 3)] * 4
    return [gates[i] for i in rng.permutation(len(gates))]


def test_terminal_gates_expands_each_repeat_like_the_first(rng):
    gates = _repeated_macros(rng)
    expected = _expand_reference(gates)
    assert list(terminal_gates(gates)) == expected
    assert list(terminal_gates(iter(gates))) == expected
    lowered = lower_macros(Circuit(4, gates))
    assert lowered.gates == [Gate(g.kind, g.qubits) for g in expected]


def test_append_remaps_kinds_that_share_a_qubit_tuple():
    b = Circuit(3)
    for kind, qs, mark in [("CX", (0, 1), False), ("CZ", (0, 1), False), ("CX", (0, 1), True),
                           ("CX", (1, 0), False), ("CX", (0, 1), False), ("S", (2,), False)]:
        b.add(kind, *qs, control_extension_point=mark)
    c = Circuit(5)
    c.append(b, [4, 2, 0])
    c.append(b, [1, 3, 2])  # a second call maps the same gates elsewhere
    expected = [
        Gate(g.kind, tuple(m[q] for q in g.qubits), g.control_extension_point)
        for m in ([4, 2, 0], [1, 3, 2]) for g in b.gates
    ]
    assert c.gates == expected and all(type(g) is Gate for g in c.gates)
    host = Circuit(5)
    with conjugated(host, b, [2, 0, 4]):
        host.add("H", 1)
    net = [Gate(g.kind, tuple([2, 0, 4][q] for q in g.qubits), g.control_extension_point)
           for g in b.gates]
    assert host.gates == net + [Gate("H", (1,))] + inverse(Circuit(5, net)).gates


def test_emit_text_renders_each_repeat_like_the_first(rng):
    pool = [Gate("CX", (0, 1)), Gate("CX", (1, 0)), Gate("CZ", (0, 1)), Gate("CX", (0, 1), True),
            Gate("T", (0,)), Gate("T", (2,)), Gate("Tdg", (2,)), Gate("A", (2,), False, 4)]
    gates = [pool[i] for i in rng.integers(len(pool), size=200)]
    lines = emit_text(Circuit(3, gates)).splitlines()
    assert lines[1:] == [
        f"{g.kind.lower()} " + ",".join(f"q[{q}]" for q in g.qubits) + ";" for g in gates
    ]


def test_emit_text_lowers_macros_when_asked(rng):
    c = Circuit(4, _repeated_macros(rng), {"a": (0, 1), "b": (3, 2)})
    assert emit_text(c, lower=True) == emit_text(lower_macros(c))
    with pytest.raises(ValueError, match=r"emit_text needs a lowered circuit; found \["):
        emit_text(c)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16])
def test_emit_text_lowering_matches_lower_macros_on_every_select(n):
    built = 0
    for k, v, controls in itertools.product((2, 4, 6), ("plain", "star"), (0, 1, 2)):
        if k != 2 and controls == 2:
            continue  # the general layout takes at most one control
        c = controlled_select(n, k, v, controls)
        assert emit_text(c, lower=True) == emit_text(lower_macros(c)), (k, v, controls)
        built += 1
    assert built == 14


def test_a_macro_after_many_repeats_is_still_rejected():
    c = Circuit(3, [Gate("CX", (0, 1))] * 5000 + [Gate("T", (2,))] * 5000)
    c.add("SWAP", 1, 2)
    c.add("CX", 0, 1)
    c.add("CSWAP", 0, 1, 2)
    found = r"needs a lowered circuit; found \['CSWAP', 'SWAP'\]"
    with pytest.raises(ValueError, match="emit_text " + found):
        emit_text(c)
    with pytest.raises(ValueError, match="schedule " + found):
        schedule(c)


def test_schedule_mixed_arities_by_hand():
    c = Circuit(4)
    for kind, *qs in [("T", 0), ("H", 1), ("S", 0), ("CX", 0, 1), ("CCZ", 1, 2, 3),
                      ("Z", 3), ("Adg", 2)]:
        c.add(kind, *qs)
    # (T, Clifford) chain per qubit after T, H, S, CX: q0 (1, 2), q1 (1, 2);
    # the 14-gate CCZ network on (1, 2, 3) leaves q1 (5, 8), q2 (5, 8),
    # q3 (5, 7); then Z makes q3 (5, 8) and Adg makes q2 (6, 8)
    assert schedule(lower_macros(c)) == ResourceReport(
        t_count=9, t_depth=6, clifford_count=11, clifford_depth=8, total_qubits=4
    )


def test_schedule_lowering_matches_lower_macros_on_any_qubit_order(rng):
    # every macro kind on every ordered tuple of distinct qubits out of four, with random
    # extension markers, among terminals that leave the chains unequal; each prefix is
    # checked, so a profile read by qubit value instead of position in the gate shows
    gates = [Gate(kind, qs, bool(rng.integers(2)), [None, 7][rng.integers(2)])
             for kind in sorted(MACRO_KINDS)
             for qs in itertools.permutations(range(4), len(MACRO_REFS[kind][0]))]
    gates += [Gate("T", (q,)) for q in (0, 0, 1, 3)] + [Gate("H", (2,)), Gate("CX", (3, 1))] * 3
    gates = [gates[i] for i in rng.permutation(len(gates))]
    assert {g.qubits for g in gates if g.kind == "CSWAP"} == set(itertools.permutations(range(4), 3))
    for end in range(len(gates) + 1):
        c = Circuit(4, gates[:end])
        assert schedule(c, lower=True) == schedule(lower_macros(c)), gates[:end]
    with pytest.raises(ValueError, match=r"schedule needs a lowered circuit; found \['CCZ', "):
        schedule(c)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 32])
def test_schedule_lowering_matches_lower_macros_on_every_formula(n):
    for name, row in FORMULAS.items():
        c = row.build(n)
        assert schedule(c, lower=True) == schedule(lower_macros(c)), name


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16])
def test_schedule_lowering_matches_lower_macros_on_every_select(n):
    built = 0
    for k, v, controls in itertools.product((2, 4, 6), ("plain", "star"), (0, 1, 2)):
        if k != 2 and controls == 2:
            continue  # the general layout takes at most one control
        c = controlled_select(n, k, v, controls)
        assert schedule(c, lower=True) == schedule(lower_macros(c)), (k, v, controls)
        built += 1
    assert built == 14


# --- gates from the unchecked paths ------------------------------------------

_REGISTERED = {name: spec.build for name, spec in GADGETS.items()}
_REGISTERED.update((name, f.build) for name, f in FORMULAS.items())

_SOURCES = [
    *((f"{name}-n{n}", partial(build, n)) for name, build in _REGISTERED.items()
      for n in (2, 3, 5)),
    ("select_q", select_q),
    ("select_p", select_p),
    ("cswap_phase_incorrect", cswap_phase_incorrect),
    ("fanout_cnot", partial(fanout_cnot, 2, [0, 4, 1, 3, 5])),
    *((f"multi_swap-m{m}", partial(multi_target_controlled_swap, m)) for m in (1, 2, 3)),
    ("multi_swap-borrow", lambda: Circuit(8, _toggle_gates(7, ((0, 1), (2, 3), (4, 5)), 6))),
    *((f"select-k{k}-{v}-n{n}-c{nc}", partial(controlled_select, n, k, v, nc))
      for k, controls in ((2, (0, 1, 2)), (4, (0, 1)))
      for v in ("plain", "star") for n in (2, 3, 5) for nc in controls),
]


@pytest.mark.parametrize("build", [b for _, b in _SOURCES], ids=[i for i, _ in _SOURCES])
def test_unchecked_paths_make_valid_gates(build):
    # remaps, inverses, lowering and the control shift skip the entry
    # check; rebuilding each circuit runs it on every gate they produced
    c = build()
    for out in (c, lower_macros(c), lower_macros(c, pure_clifford_t=True)):
        for d in (out, inverse(out)):
            Circuit(d.n_qubits, list(d.gates))


# --- register labels ---------------------------------------------------------


@pytest.mark.parametrize("n,labels", [
    (2, {"data": (0, 5)}),  # names a qubit past the end
    (3, {"system": (1, 7)}),
    (3, {"system": (-1, 2)}),
    (3, {"ok": (0,), "data": (1, 1)}),  # repeats a qubit
])
def test_register_labels_are_checked(n, labels):
    # a bad label used to reach emit_text (a "# data: q[0],q[5]" line for
    # two qubits) or apply_classical_control (qubit 2 read as selection)
    with pytest.raises(ValueError, match="register"):
        Circuit(n, [Gate("X", (0,))], labels)


@pytest.mark.parametrize("build", [b for _, b in _SOURCES], ids=[i for i, _ in _SOURCES])
def test_builders_label_distinct_qubits_in_range(build):
    c = build()
    for out in (c, lower_macros(c)):
        for qs in out.register_labels.values():
            assert len(set(qs)) == len(qs)
            assert all(0 <= q < out.n_qubits for q in qs)
