"""Statevector kernels, dense simulation, and classical selection tracking."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiselect import kernels, select_synth, simulator
from fermiselect.circuit_ir import (
    _ARITY,
    MACRO_KINDS,
    Circuit,
    Gate,
    basis_change,
    conjugated,
    lower_macros,
    terminal_gates,
)
from fermiselect.gadgets import swap_up_star
from fermiselect.pauli import PauliString, pauli_apply
from fermiselect.select_synth import (
    SelectionLayout,
    controlled_select,
    decode_index,
    synth_select_general,
    synth_select_k2,
)
from fermiselect.simulator import (
    GATE_1Q,
    MAX_DENSE_QUBITS,
    MAX_UNITARY_QUBITS,
    apply_circuit,
    apply_classical_control,
    random_state,
    unitary_of,
    verify_select,
)

from conftest import basis_state, dense_pauli, zero_state


def test_states():
    z = zero_state(3)
    assert z[0] == 1 and np.abs(z[1:]).max() == 0
    b = basis_state(2, 3)
    assert b[3] == 1
    r = random_state(4, 7)
    assert abs(np.linalg.norm(r) - 1) < 1e-12
    assert np.abs(random_state(4, 7) - r).max() == 0  # seeded


def test_random_state_takes_a_numpy_integer_seed():
    assert np.array_equal(random_state(4, np.int64(7)), random_state(4, 7))


def test_gate_matrices_unitary():
    for kind, mat in GATE_1Q.items():
        assert np.abs(mat @ mat.conj().T - np.eye(2)).max() < 1e-12, kind
    # A is the pi/8 Y-rotation: A^8 = -I
    a8 = np.linalg.matrix_power(GATE_1Q["A"], 8)
    assert np.abs(a8 + np.eye(2)).max() < 1e-12


# --- kernels, against dense one-qubit math --------------------------------------


def _dense_one_qubit(n, q, mat):
    out = np.eye(1, dtype=complex)
    for i in range(n):
        out = np.kron(out, mat if i == q else np.eye(2, dtype=complex))
    return out


def _dense_controlled(n, ctrl, tgt, mat):
    dim = 1 << n
    out = np.eye(dim, dtype=complex)
    single = _dense_one_qubit(n, tgt, mat)
    for col in range(dim):
        if (col >> (n - 1 - ctrl)) & 1:
            out[:, col] = single[:, col]
    return out


@pytest.mark.parametrize("n,q", [(1, 0), (3, 0), (3, 2), (5, 3)])
def test_one_qubit_kernels_match_dense(n, q, rng):
    mat = GATE_1Q["H"] @ GATE_1Q["T"]
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    want = _dense_one_qubit(n, q, mat) @ v
    got = v.astype(np.complex128).copy()
    kernels.apply_one_qubit(got, n, q, mat.astype(np.complex128))
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n,c,t", [(2, 0, 1), (2, 1, 0), (4, 1, 3), (5, 4, 0)])
def test_controlled_kernels_match_dense(n, c, t, rng):
    mat = GATE_1Q["Y"] @ GATE_1Q["S"]
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    want = _dense_controlled(n, c, t, mat) @ v
    got = v.astype(np.complex128).copy()
    kernels.apply_controlled_one_qubit(got, n, c, t, mat.astype(np.complex128))
    assert np.abs(got - want).max() < 1e-12


# matrices of every shape: diagonal (Z, T), anti-diagonal (X, Y), dense (H, A)
_FAST_PATHS = ["Z", "T", "X", "Y", "H", "A"]


@pytest.mark.parametrize("kind", _FAST_PATHS)
@pytest.mark.parametrize(
    "batch,masked", [((), False), ((5,), False), ((5,), True), ((5, 3), False), ((5, 3), True)]
)
@pytest.mark.parametrize("qubits", [(2,), (0,), (1, 3), (3, 0)])
def test_kernel_fast_paths_match_dense(kind, batch, masked, qubits, rng):
    # the kernels take no mask: a caller masks by running them on the states it selects
    n = 4
    mat = GATE_1Q[kind]
    if len(qubits) == 1:
        dense = _dense_one_qubit(n, qubits[0], mat)
    else:
        dense = _dense_controlled(n, *qubits, mat)
    shape = (1 << n,) + batch
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = rng.random(batch[0]) < 0.5 if masked else None
    if masked:
        mask[:2] = (True, False)
    flat = v.reshape(1 << n, -1)
    want = (dense @ flat).reshape(shape)
    if masked:
        want[:, ~mask] = v[:, ~mask]
    got = v.copy()
    sub = got[:, mask] if masked else got
    if len(qubits) == 1:
        kernels.apply_one_qubit(sub, n, qubits[0], mat)
    else:
        kernels.apply_controlled_one_qubit(sub, n, *qubits, mat)
    if masked:
        got[:, mask] = sub
    assert np.abs(got - want).max() < 1e-12


# --- apply_circuit / unitary_of -------------------------------------------------


def test_apply_circuit_matches_unitary(rng):
    c = Circuit(3)
    for kind, qs in [("H", (0,)), ("A", (1,)), ("CX", (0, 1)), ("CZ", (1, 2)),
                     ("T", (2,)), ("CY", (2, 0)), ("CSWAP", (0, 1, 2))]:
        c.add(kind, *qs)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.abs(apply_circuit(c, v) - unitary_of(c) @ v).max() < 1e-12


def test_apply_circuit_is_pauli_for_pauli_gates():
    c = Circuit(2)
    c.add("X", 0)
    c.add("Z", 1)
    v = np.arange(4, dtype=complex)
    want = pauli_apply(PauliString("XZ", 0), v)
    assert np.abs(apply_circuit(c, v) - want).max() < 1e-12


def test_unitary_is_unitary(rng):
    c = Circuit(2)
    for kind, qs in [("H", (0,)), ("T", (1,)), ("CX", (0, 1)), ("A", (0,))]:
        c.add(kind, *qs)
    U = unitary_of(c)
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-10


_ONE_QUBIT_KINDS = sorted(GATE_1Q)
_CONTROLLED_KINDS = ["CX", "CY", "CZ"]


def _random_circuit(n, gates, rng):
    """Terminal gates of every kind; controls land above and below targets."""
    c = Circuit(n)
    for i in range(gates):
        if n > 1 and i % 3 == 2:
            ctrl, tgt = rng.choice(n, size=2, replace=False)
            c.add(_CONTROLLED_KINDS[i % len(_CONTROLLED_KINDS)], int(ctrl), int(tgt))
        else:
            c.add(_ONE_QUBIT_KINDS[i % len(_ONE_QUBIT_KINDS)], int(rng.integers(n)))
    return c


def _dense_reference(c):
    """The circuit's unitary as a product of Kronecker-built gate matrices."""
    out = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        if len(g.qubits) == 1:
            out = _dense_one_qubit(c.n_qubits, g.qubits[0], GATE_1Q[g.kind]) @ out
        else:
            out = _dense_controlled(c.n_qubits, *g.qubits, GATE_1Q[g.kind[1:]]) @ out
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_fused_route_matches_kronecker_reference(n, rng):
    c = _random_circuit(n, 60, rng)
    want = _dense_reference(c)
    blocks = list(simulator._blocks(c.gates, range(n)))
    if n > 5:
        # the plan closes blocks at the width limit
        assert max(len(qs) for qs, _ in blocks) == 5 and len(blocks) > 1
    else:
        assert len(blocks) == 1
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    assert np.abs(apply_circuit(c, v) - want @ v).max() < 1e-12
    assert np.abs(unitary_of(c) - want).max() < 1e-12


def test_apply_blocks_orders_each_block_by_its_qubit_list(rng):
    # qubits[0] is the block's most significant qubit, whatever its place
    n = 4
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
    want = np.zeros((1 << n, 1 << n), dtype=complex)
    for row in range(1 << n):
        for col in range(1 << n):
            r = [(row >> (n - 1 - i)) & 1 for i in range(n)]
            b = [(col >> (n - 1 - i)) & 1 for i in range(n)]
            if (r[0], r[2]) == (b[0], b[2]):
                want[row, col] = u[2 * r[3] + r[1], 2 * b[3] + b[1]]
    got = kernels.apply_blocks(v.copy(), n, [([3, 1], u)])
    assert np.abs(got - want @ v).max() < 1e-12


def test_fused_route_matches_gate_by_gate_replay(rng):
    # the 17-qubit SELECT of the benchmark, against one kernel call per gate
    c = lower_macros(synth_select_k2(8, "star"))
    n = c.n_qubits
    v = random_state(n, rng)
    want = v.copy()
    for g in c.gates:
        if len(g.qubits) == 1:
            kernels.apply_one_qubit(want, n, g.qubits[0], GATE_1Q[g.kind])
        else:
            kernels.apply_controlled_one_qubit(want, n, *g.qubits, GATE_1Q[g.kind[1:]])
    assert np.abs(apply_circuit(c, v) - want).max() < 1e-12


def _replay(c, v):
    """v after one kernel call per terminal gate of c, macros expanded, in time order."""
    out = v.copy()
    for g in terminal_gates(c.gates):
        if len(g.qubits) == 1:
            kernels.apply_one_qubit(out, c.n_qubits, g.qubits[0], GATE_1Q[g.kind])
        else:
            kernels.apply_controlled_one_qubit(out, c.n_qubits, *g.qubits, GATE_1Q[g.kind[1:]])
    return out


@st.composite
def macro_circuits(draw):
    """Gates of every kind, macros among them, on 6 to 9 qubits."""
    n = draw(st.integers(min_value=6, max_value=9))
    c = Circuit(n)
    for kind in draw(st.lists(st.sampled_from(sorted(_ARITY)), max_size=40)):
        c.add(kind, *draw(st.permutations(range(n)))[: _ARITY[kind]])
    return c, draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(macro_circuits())
def test_fusion_out_of_order_matches_gate_by_gate_replay(case):
    # a block takes later gates past ones it leaves out only where they share no qubit
    c, seed = case
    assert all(len(qubits) <= simulator._BLOCK_QUBITS for qubits, _ in simulator._blocks(c.gates, range(c.n_qubits)))
    v = random_state(c.n_qubits, seed)
    assert np.abs(apply_circuit(c, v) - _replay(c, v)).max() < 1e-12


def _plan_blocks(monkeypatch, c):
    """c's blocks as (qubits, gates), with no matrix built."""
    monkeypatch.setattr(simulator, "_block_unitary", lambda qubits, gates: list(gates))
    return list(simulator._blocks(c.gates, range(c.n_qubits)))


def test_fusion_places_each_gate_in_the_first_block_that_fits(monkeypatch):
    g = Gate
    c = Circuit(7)
    c.extend([
        g("CX", (0, 1)), g("CX", (2, 3)),
        g("CX", (4, 5)),  # six qubits with block 0: opens block 1
        g("T", (0,)),  # back to block 0, past the CX on 4 and 5
        g("CX", (3, 4)),  # block 0 has room, but block 1 holds qubit 4
        g("H", (6,)),  # on no block yet: block 0 has room
        g("CZ", (1, 2)),
        g("CX", (6, 5)),  # from block 1, the last to hold 5
        g("TOFFOLI", (0, 4, 6)),  # a macro whole, into block 1
        g("X", (2,)),  # back to block 0, past the TOFFOLI on 0
        g("CZ", (0, 3)),  # block 1 now holds 0 and 3
        g("CX", (1, 5)),  # block 1 would reach six qubits: opens block 2
        g("CX", (2, 6)),  # from block 1, the last to hold 6, which is full: into block 2
    ])
    gates = c.gates
    assert _plan_blocks(monkeypatch, c) == [
        ([0, 1, 2, 3, 6], [gates[i] for i in (0, 1, 3, 5, 6, 9)]),
        ([4, 5, 3, 6, 0], [gates[i] for i in (2, 4, 7, 8, 10)]),
        ([1, 5, 2, 6], [gates[11], gates[12]]),
    ]
    monkeypatch.undo()
    v = random_state(7, 3)
    assert np.abs(apply_circuit(c, v) - _replay(c, v)).max() < 1e-12


@pytest.mark.parametrize("n,variant,count", [(8, "star", 57), (8, "plain", 53), (13, "star", 122),
                                             (13, "plain", 129), (128, "star", 1942)])
def test_lowered_select_fuses_into_a_pinned_block_count(monkeypatch, n, variant, count):
    # n = 8 star is the benchmark's 17-qubit dense apply (902 gates), which
    # time-order fusion closed into 97 blocks
    c = lower_macros(synth_select_k2(n, variant))
    assert len(_plan_blocks(monkeypatch, c)) == count


def test_apply_circuit_leaves_its_input_alone(rng):
    c = _random_circuit(7, 40, rng)
    v = random_state(7, rng)
    kept = v.copy()
    out = apply_circuit(c, v)
    assert np.array_equal(v, kept)
    assert not np.shares_memory(out, v)


def test_apply_circuit_memory_stays_within_two_buffers(rng):
    # the input copy and one spare; a third state-size buffer means a leak
    n = 14
    c = _random_circuit(n, 200, rng)
    v = random_state(n, rng)
    apply_circuit(c, v)  # lazy set-up (BLAS, imports) outside the trace
    tracemalloc.start()
    try:
        apply_circuit(c, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * v.nbytes


def test_unitary_of_works_in_column_chunks(rng):
    # 10 qubits take 16 chunks of identity columns; beside the matrix a
    # call holds only chunk-size buffers
    n = 10
    c = _random_circuit(n, 120, rng)
    unitary_of(c)  # lazy set-up (BLAS, imports) outside the trace
    tracemalloc.start()
    try:
        u = unitary_of(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes
    v = random_state(n, rng)
    assert np.abs(u @ v - apply_circuit(c, v)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(1 << n)).max() < 1e-12


def test_capacity_limits():
    with pytest.raises(ValueError):
        apply_circuit(Circuit(MAX_DENSE_QUBITS + 1), np.zeros(2))
    with pytest.raises(ValueError):
        unitary_of(Circuit(MAX_UNITARY_QUBITS + 1))
    with pytest.raises(ValueError):
        apply_circuit(Circuit(2), np.zeros(3))


# --- classical selection tracking ----------------------------------------------


def test_classical_control_matches_full_simulation(rng):
    c = synth_select_k2(4, "star")
    lay = SelectionLayout(4, 2, "k2")
    dim = 1 << 4
    for word in [lay.pack(p=0, q=1, P1=0, P2=0), lay.pack(p=1, q=3, P1=2, P2=1), lay.pack(p=2, q=3, P1=3, P2=1)]:
        psi = random_state(4, rng)
        phase, out = apply_classical_control(c, word, psi)
        full = np.zeros(1 << c.n_qubits, dtype=complex)
        full[word * dim : (word + 1) * dim] = psi
        ref = apply_circuit(c, full)
        assert np.abs(phase * out - ref[word * dim : (word + 1) * dim]).max() < 1e-12
        # nothing may leak outside the selection block
        ref[word * dim : (word + 1) * dim] = 0
        assert np.abs(ref).max() < 1e-12


CONTROLLED_CASES = [(2, n, v, c) for n in (3, 4, 5, 6) for v in ("plain", "star") for c in (1, 2)] + [
    (4, n, v, 1) for n in (3, 4) for v in ("plain", "star")]


@pytest.mark.parametrize("k,n,variant,controls", CONTROLLED_CASES)
def test_controlled_select_plays_on_the_basis_walk(k, n, variant, controls, rng):
    # every control word off but all-ones leaves the system alone; all-ones applies P_w
    circuit = controlled_select(n, k, variant, controls)
    layout = SelectionLayout(n, k, "k2" if k == 2 else "general")
    words = list(layout.valid_states())
    psi = random_state(n, rng)
    for on in range(1 << controls):
        _, outs = apply_classical_control(circuit, [on << layout.width | w for w in words], psi)
        for w, out in zip(words, outs.T):
            want = pauli_apply(decode_index(w, layout), psi) if on == (1 << controls) - 1 else psi
            assert np.abs(out - want).max() < 1e-12


@pytest.mark.parametrize(
    "circuit,layout",
    [
        (synth_select_k2(4, "star"), SelectionLayout(4, 2, "k2")),
        (synth_select_k2(4, "plain"), SelectionLayout(4, 2, "k2")),
        # k = 4 at n = 2: 19 qubits; n = 4 would need 25, past the dense cap
        (synth_select_general(2, 4, "star"), SelectionLayout(2, 4, "general")),
    ],
    ids=["k2-n4-star", "k2-n4-plain", "k4-n2-star"],
)
def test_batched_walk_matches_full_simulation(circuit, layout, rng):
    # one walk for every word against one dense run over the whole register
    words = sorted(layout.valid_states())
    n_sys = layout.n
    dim = 1 << n_sys
    psi = random_state(n_sys, rng)
    weights = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    phases, outs = apply_classical_control(circuit, words, psi)
    assert outs.shape == (dim, len(words))
    full = np.zeros(1 << circuit.n_qubits, dtype=complex)
    for word, a in zip(words, weights):
        full[word * dim : (word + 1) * dim] = a * psi
    ref = apply_circuit(circuit, full)
    for i, (word, a) in enumerate(zip(words, weights)):
        block = ref[word * dim : (word + 1) * dim]
        assert np.abs(a * phases[i] * outs[:, i] - block).max() < 1e-12
        block[:] = 0
    assert np.abs(ref).max() < 1e-12


def test_classical_control_requires_system_label():
    c = Circuit(2)
    with pytest.raises(ValueError, match="system"):
        apply_classical_control(c, 0, np.zeros(2, dtype=complex))


def test_classical_control_rejects_a_wrong_size_system_state():
    c = Circuit(2, [], {"system": (1,)})
    with pytest.raises(ValueError, match="system state must have 2 amplitudes"):
        apply_classical_control(c, 0, np.zeros(4, dtype=complex))


def test_classical_control_rejects_superposing_gates():
    c = Circuit(2, [], {"system": (1,)})
    c.add("H", 0)
    with pytest.raises(ValueError, match=r"cannot play H\(0,\) on basis states"):
        apply_classical_control(c, 0, zero_state(1))


def test_classical_control_names_the_gate_it_cannot_play(rng):
    # tables are read on local qubits; the error names the gate's own qubits and
    # its index in c.gates, alone or inside a frame that makes it superpose
    c = Circuit(5, [], {"system": (1, 2, 3, 4)})
    c.add("X", 1)
    c.add("CX", 0, 2)
    c.add("H", 3)
    with pytest.raises(ValueError, match=r"cannot play H\(3,\) on basis states \(gate 2 of the circuit\)"):
        apply_classical_control(c, 0, random_state(4, rng))
    c = Circuit(5, [], {"system": (1, 2, 3, 4)})
    c.add("T", 2)
    with basis_change(c, [4], "X"):
        c.add("CZ", 0, 4)  # a CX from 0 to 4
        c.add("T", 4)
    with pytest.raises(ValueError, match=r"cannot play T\(4,\) on basis states \(gate 3 of the circuit\)"):
        apply_classical_control(c, 0, random_state(4, rng))


def test_star_span_names_a_body_it_cannot_play(rng):
    # the star body test is read on the body renamed to local qubits; the error
    # names the body's own qubits and where it stands in c.gates
    net = swap_up_star(3)
    for body, match in [([("H", 2)], r"H\(2,\) on basis states \(gate {0} of"),
                        ([("CZ", 0, 4), ("H", 3)], r"body\(0, 4, 3\) on basis states \(gates {0} to {1} of")]:
        c = Circuit(net.n_qubits, [], {"system": tuple(range(2, 5))})
        with conjugated(c, net, range(5)):
            for kind, *qubits in body:
                c.add(kind, *qubits)
        at = c.spans[0][1]
        with pytest.raises(ValueError, match="cannot play " + match.format(at, at + 1)):
            apply_classical_control(c, [0, 1], random_state(3, rng))


def test_classical_control_rejects_system_control_onto_selection():
    c = Circuit(2, [], {"system": (1,)})
    c.add("CX", 1, 0)
    with pytest.raises(ValueError, match="selection"):
        apply_classical_control(c, 0, zero_state(1))


def test_classical_control_detects_unrestored_selection():
    c = Circuit(2, [], {"system": (1,)})
    c.add("X", 0)
    with pytest.raises(ValueError, match="restored"):
        apply_classical_control(c, 0, zero_state(1))
    # in a batch, the error names the first word that is not restored
    c = Circuit(3, [], {"system": (2,)})
    c.add("CX", 0, 1)
    with pytest.raises(ValueError, match="restored for word 10"):
        apply_classical_control(c, [0b00, 0b01, 0b10, 0b11], zero_state(1))


def test_classical_control_rejects_out_of_range_words():
    c = Circuit(3, [], {"system": (2,)})
    for words in (4, [0, 4], [-1]):
        with pytest.raises(ValueError, match="needs 2 bits"):
            apply_classical_control(c, words, zero_state(1))


def test_classical_control_tracks_phases():
    # Sdg on a set selection bit contributes -i; CZ between set bits -1; the
    # state carries every phase
    c = Circuit(3, [], {"system": (2,)})
    c.add("Sdg", 0)
    c.add("CZ", 0, 1)
    phase, out = apply_classical_control(c, 0b11, zero_state(1))
    assert phase == 1 and np.abs(out - (-1j) * (-1) * zero_state(1)).max() < 1e-12
    phase, out = apply_classical_control(c, 0b01, zero_state(1))
    assert phase == 1 and np.abs(out - zero_state(1)).max() < 1e-12


def test_classical_control_selection_to_system_gates():
    c = Circuit(2, [], {"system": (1,)})
    c.add("CY", 0, 1)
    phase, out = apply_classical_control(c, 1, zero_state(1))
    assert abs(phase - 1) < 1e-12
    assert np.abs(phase * out - np.array([0, 1j])).max() < 1e-12
    phase, out = apply_classical_control(c, 0, zero_state(1))
    assert np.abs(out - zero_state(1)).max() < 1e-12


def _restored(*gates):
    """Selection qubits 0 and 1, system qubits 2 and 3: a Y and a
    selection-controlled CX and CZ on the system, then ``gates``."""
    c = Circuit(4, [], {"system": (2, 3)})
    c.add("Y", 2)
    c.add("CX", 1, 3)
    c.add("CZ", 0, 2)
    for kind, *qubits in gates:
        c.add(kind, *qubits)
    return c


@pytest.mark.parametrize("circuit", [
    _restored(("X", 0), ("X", 0)),
    _restored(("Y", 1), ("X", 1)),
    _restored(("Z", 0)),
    _restored(("S", 1)),
    _restored(("Sdg", 0)),
    _restored(("T", 1)),
    _restored(("Tdg", 0)),
    _restored(("CX", 0, 1), ("CX", 0, 1)),
    _restored(("CY", 1, 0), ("CX", 1, 0)),
    _restored(("CZ", 0, 1)),
    _restored(("Y", 0), ("T", 0), ("X", 0), ("CY", 0, 1), ("Sdg", 1), ("CX", 0, 1)),
], ids=["X", "Y", "Z", "S", "Sdg", "T", "Tdg", "CX", "CY", "CZ", "mixed"])
def test_classical_walk_tracks_every_diagonal_and_antidiagonal_gate(circuit, rng):
    # each word's phase and system state against one dense run of the full register
    psi = random_state(2, rng)
    for word in range(4):
        phase, out = apply_classical_control(circuit, word, psi)
        full = np.zeros(16, dtype=complex)
        full[4 * word : 4 * word + 4] = psi
        ref = apply_circuit(circuit, full)
        assert np.abs(phase * out - ref[4 * word : 4 * word + 4]).max() < 1e-12
        ref[4 * word : 4 * word + 4] = 0
        assert np.abs(ref).max() < 1e-12


# --- the walk on un-lowered macros -------------------------------------------

# selection qubits 0, 1 and 2, system qubits 3, 4 and 5: every macro kind on
# system qubits alone, on selection qubits alone, and across the registers
# with its selection qubits as controls.  ``lowered`` says whether the walk
# can also play the macro's terminal expansion, gate by gate: the expansions
# that hold H or A gates do not send basis states to basis states.
_MACRO_CASES = [
    # (kind, qubits, lowered)
    ("SWAP", (3, 5), True),
    ("CS", (4, 3), True),
    ("CSdg", (3, 5), True),
    ("CCZ", (3, 4, 5), True),
    ("TOFFOLI", (5, 3, 4), False),
    ("CSWAP", (4, 5, 3), False),
    ("CSWAP_STAR", (3, 4, 5), False),
    ("CS", (0, 2), True),
    ("CSdg", (1, 0), True),
    ("CCZ", (0, 1, 2), True),
    ("CS", (1, 4), True),
    ("CSdg", (0, 5), True),
    ("CS", (4, 1), True),
    ("CSdg", (5, 0), True),
    ("CSWAP", (0, 3, 5), False),
    ("CSWAP_STAR", (2, 4, 3), False),
    ("CCZ", (1, 3, 4), True),
    ("CCZ", (0, 2, 5), True),
    ("CCZ", (3, 1, 4), True),
    ("TOFFOLI", (2, 3, 4), False),
    ("TOFFOLI", (0, 1, 5), False),
    ("TOFFOLI", (4, 1, 3), False),
]


def _macro_circuit(kind, qubits):
    """The macro between system gates and flips of selection qubit 0, so
    that it sees a bit pattern other than the word's."""
    c = Circuit(6, [], {"system": (3, 4, 5)})
    c.add("Y", 3)
    c.add("T", 5)
    c.add("X", 0)
    c.add(kind, *qubits)
    c.add("X", 0)
    c.add("X", 4)
    return c


@pytest.mark.parametrize("payload", ["Z", "X"])
def test_star_span_plays_as_its_cswaps_only_around_a_diagonal_body(payload, rng):
    # the star network is D·Π; D cancels around a diagonal body only
    net = swap_up_star(3)
    c = Circuit(net.n_qubits, [], {"system": tuple(range(2, 5))})
    with conjugated(c, net, range(5)):
        c.add(payload, 2)
    words, psi = [0, 1, 2, 3], random_state(3, rng)
    if payload == "X":
        with pytest.raises(ValueError, match="not diagonal"):
            apply_classical_control(c, words, psi)
        return
    phases, outs = apply_classical_control(c, words, psi)
    for word in words:
        full = np.zeros(32, dtype=complex)
        full[8 * word : 8 * word + 8] = psi
        assert np.abs(phases[word] * outs[:, word] - apply_circuit(c, full)[8 * word : 8 * word + 8]).max() < 1e-12
    start, _, _, stop, _ = c.spans[0]
    for at in (start, stop - 1):  # an opening and a closing gate
        changed = Circuit(c.n_qubits, list(c.gates), c.register_labels)
        changed.spans = c.spans
        changed.gates[at] = Gate("X", (0,))  # no longer what the builder wrote
        with pytest.raises(ValueError, match="differs from what its builder writes"):
            apply_classical_control(changed, words, psi)


@pytest.mark.parametrize("letter", ["X", "Y"])
@pytest.mark.parametrize("where", ["opening", "closing"])
def test_basis_change_span_must_be_the_frame_it_records(letter, where, rng):
    c = Circuit(3, [], {"system": (1, 2)})
    with basis_change(c, [1, 2], letter):
        c.add("CZ", 0, 1)
    psi = random_state(2, rng)
    apply_classical_control(c, [0, 1], psi)  # plays as written
    start, _, _, stop, _ = c.spans[0]
    at = start if where == "opening" else stop - 1
    c.gates[at] = Gate("S" if c.gates[at].kind == "H" else "H", c.gates[at].qubits)
    with pytest.raises(ValueError, match="differs from what its builder writes"):
        apply_classical_control(c, [0, 1], psi)


def test_macro_cases_cover_every_macro_kind():
    assert {kind for kind, _, _ in _MACRO_CASES} == MACRO_KINDS


@pytest.mark.parametrize(
    "kind,qubits,lowered", _MACRO_CASES, ids=[f"{k}{q}" for k, q, _ in _MACRO_CASES]
)
def test_walk_plays_unlowered_macros_like_their_expansion(kind, qubits, lowered, rng):
    c = _macro_circuit(kind, qubits)
    words = list(range(8))
    psi = random_state(3, rng)
    phases, outs = apply_classical_control(c, words, psi)
    got = phases * outs
    if lowered:
        low_phases, low_outs = apply_classical_control(lower_macros(c), words, psi)
        assert np.abs(got - low_phases * low_outs).max() < 1e-12
    else:
        with pytest.raises(ValueError, match=r"cannot play (H|A)\(\d,\) on basis states"):
            apply_classical_control(lower_macros(c), words, psi)
    for word in words:
        full = np.zeros(64, dtype=complex)
        full[8 * word : 8 * word + 8] = psi
        ref = apply_circuit(c, full)
        assert np.abs(got[:, word] - ref[8 * word : 8 * word + 8]).max() < 1e-12
        ref[8 * word : 8 * word + 8] = 0
        assert np.abs(ref).max() < 1e-12


@pytest.mark.parametrize(
    "kind,qubits",
    [("TOFFOLI", (3, 4, 0)), ("SWAP", (1, 4)), ("CSWAP", (3, 0, 5)), ("CSWAP_STAR", (2, 1, 4))],
)
def test_walk_rejects_a_macro_that_mixes_selection_patterns(kind, qubits):
    # each moves amplitude between values of a selection bit, which some
    # system state then leaves changed
    c = _macro_circuit(kind, qubits)
    with pytest.raises(ValueError, match="selection register was not restored for word"):
        apply_classical_control(c, list(range(8)), zero_state(3))


def test_moves_keep_only_what_acts():
    # a gate's table is read exactly from its matrix: a controlled macro is the
    # identity where its controls are not all set, although the expansion's
    # matrix there holds A·A† products that are the identity only up to rounding
    def table(kind, arity):
        image, phase, moved = simulator._local_table((Gate(kind, tuple(range(arity))),))
        return image.tolist(), None if phase is None else phase.tolist(), moved

    # CSWAP_STAR is CSWAP with -1 on |100>
    assert table("CSWAP_STAR", 3) == ([0, 1, 2, 3, 4, 6, 5, 7], [0, 0, 0, 0, 4, 0, 0, 0], (1, 2))
    assert table("CSWAP", 3) == ([0, 1, 2, 3, 4, 6, 5, 7], None, (1, 2))
    assert table("TOFFOLI", 3) == ([0, 1, 2, 3, 4, 5, 7, 6], None, (2,))
    assert table("CCZ", 3) == (list(range(8)), [0] * 7 + [4], ())
    assert table("CX", 2) == ([0, 1, 3, 2], None, (1,))
    assert table("S", 1) == ([0, 1], [0, 2], ())
    assert table("Tdg", 1) == ([0, 1], [0, 7], ())
    for kind in ("H", "A"):
        with pytest.raises(ValueError, match="not monomial"):
            table(kind, 1)


class _Builds(list):
    """The gate lists each block matrix was built for; clearing it empties the
    simulator's per-process table caches too, so that each count starts cold."""

    def clear(self) -> None:
        super().clear()
        simulator._shape.cache_clear()
        simulator._local_table.cache_clear()


def _count_builds(monkeypatch) -> list:
    built = _Builds()
    built.clear()
    real = simulator._block_unitary

    def counting(qubits, gates):
        built.append(tuple(gates))
        return real(qubits, gates)

    monkeypatch.setattr(simulator, "_block_unitary", counting)
    return built


def test_walk_builds_each_repeated_block_once(monkeypatch):
    # each local shape (kind, arity, and which local qubits each frame around the gate
    # holds, with its letter) has its table read once per call, however often and on
    # whichever qubits it repeats, and however many chunks of words verify_select plays
    c = Circuit(5, [], {"system": (1, 2, 3, 4)})
    for _ in range(4):
        c.add("X", 1)
        c.add("X", 4)
        c.add("T", 2)
        c.add("CX", 1, 3)
        c.add("CX", 4, 2)
        c.add("CZ", 0, 2)
        c.add("CZ", 3, 0)
        with basis_change(c, [3], "X"):
            c.add("CZ", 1, 3)  # a CX from 1 to 3
            c.add("CZ", 2, 4)  # outside the frame
        with basis_change(c, [4], "X"):
            c.add("CZ", 2, 4)
    built = _count_builds(monkeypatch)
    words = [0, 1]
    out = apply_classical_control(c, words, random_state(4, 5))
    g = Gate
    assert sorted(built) == sorted([(g("X", (0,)),), (g("T", (0,)),), (g("CX", (0, 1)),), (g("CZ", (0, 1)),),
                                    (g("H", (1,)), g("CZ", (0, 1)), g("H", (1,)))])
    for i, word in enumerate(words):  # against the dense route
        full = np.zeros(32, dtype=complex)
        full[16 * word : 16 * word + 16] = random_state(4, 5)
        assert np.abs(apply_circuit(c, full)[16 * word : 16 * word + 16] - out[1][:, i]).max() < 1e-12
    built.clear()
    verify_select(5, 2, "star")
    once = len(built)
    built.clear()
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 2 * 32 * 14)  # two words a chunk: 40 chunks
    assert verify_select(5, 2, "star")["pass"]
    assert len(built) == once == len(set(built))


def test_walk_at_large_n_builds_a_handful_of_tables(monkeypatch):
    # keyed on absolute qubits, the star SELECT at n = 1024 read 8,187 tables
    lay = SelectionLayout(1024, 2, "k2")
    words = [lay.pack(p=3, q=700, P1=1, P2=0), lay.pack(p=17, q=1000, P1=0, P2=1)]
    built = _count_builds(monkeypatch)
    assert verify_select(1024, 2, "star", words=words)["pass"]
    assert len(built) <= 16


def test_tables_are_built_once_per_process(monkeypatch):
    # every table is kept for the process under its local shape: a second call,
    # and a call at another n of the same variant, build none
    built = _count_builds(monkeypatch)
    for variant in ("star", "plain"):
        assert verify_select(5, 2, variant)["pass"]
        first = len(built)
        assert first and verify_select(5, 2, variant)["pass"] and verify_select(7, 2, variant)["pass"]
        assert len(built) == first


@pytest.mark.parametrize("n,variant,stride", [(5, "star", None), (4, "plain", None), (17, "star", 40)])
def test_verify_select_chunks_give_the_same_report(monkeypatch, n, variant, stride):
    # one extra selection-controlled Z fails half the words; the worst word and its
    # error do not depend on how many words play at a time
    real = simulator.controlled_select

    def broken(n, k, variant):
        c = real(n, k, variant)
        c.add("CZ", 1, c.register_labels["system"][-1])
        return c

    monkeypatch.setattr(simulator, "controlled_select", broken)
    lay = SelectionLayout(n, 2, "k2")
    words = None if stride is None else sorted(lay.valid_states())[::stride]  # n = 17: not exhaustive
    whole = verify_select(n, 2, variant, trials=3, seed=8, words=words)
    assert not whole["pass"]
    runs = []
    real_run = simulator._run

    def counting(c, plan, chunk, states):
        runs.append(len(chunk))
        return real_run(c, plan, chunk, states)

    monkeypatch.setattr(simulator, "_run", counting)
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 1)  # one word a chunk
    assert verify_select(n, 2, variant, trials=3, seed=8, words=words) == whole
    assert runs == [1] * whole["states_checked"]
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 3 * whole["basis_states"] * (lay.width + n))
    assert verify_select(n, 2, variant, trials=3, seed=8, words=words) == whole


# --- verify_select ---------------------------------------------------------------


def test_verify_select_smoke():
    rep = verify_select(2, 2, "star", trials=3, seed=5)
    assert rep["pass"] and rep["states_checked"] == 8
    assert rep["max_error"] < 1e-9


def test_verify_select_words_subset():
    lay = SelectionLayout(4, 2, "k2")
    words = [lay.pack(p=0, q=2, P1=1, P2=1), lay.pack(p=1, q=3, P1=0, P2=0)]
    rep = verify_select(4, 2, "plain", trials=2, seed=9, words=words)
    assert rep["states_checked"] == 2 and rep["pass"]


def test_verify_select_report_fields():
    rep = verify_select(2, 2, "plain", trials=1, seed=3)
    assert set(rep) == {
        "n", "k", "variant", "states_checked", "trials", "basis_states", "exhaustive",
        "max_error", "worst_word", "worst_string", "pass",
    }


def test_verify_select_names_the_failing_word(monkeypatch):
    # one extra selection-controlled Z on a system qubit breaks exactly the
    # words whose control bit is set
    lay = SelectionLayout(3, 2, "k2")
    real = simulator.controlled_select
    ctrl = lay.width - 1  # the last selection qubit, set in half the words

    def broken(n, k, variant):
        c = real(n, k, variant)
        c.add("CZ", ctrl, c.register_labels["system"][0])
        return c

    monkeypatch.setattr(simulator, "controlled_select", broken)
    rep = verify_select(3, 2, "star", trials=2, seed=4)
    assert not rep["pass"] and rep["max_error"] > 0.1
    assert len(rep["worst_word"]) == lay.width and rep["worst_word"][ctrl] == "1"
    assert rep["worst_string"] == str(decode_index(int(rep["worst_word"], 2), lay))
    unset = [w for w in lay.valid_states() if not w & 1]
    assert verify_select(3, 2, "star", trials=2, seed=4, words=unset)["pass"]


def test_verify_select_fails_when_the_selection_is_not_restored(monkeypatch):
    # a trailing CX from a system qubit onto a selection qubit leaves the
    # system action right but moves the selection bit wherever x sets it
    real = simulator.controlled_select

    def broken(n, k, variant):
        c = real(n, k, variant)
        c.add("CX", c.register_labels["system"][0], 0)
        return c

    monkeypatch.setattr(simulator, "controlled_select", broken)
    rep = verify_select(3, 2, "plain")
    assert not rep["pass"] and rep["max_error"] == 1.0


def _selection_controlled_cswap(c, system):
    return [i for i, g in enumerate(c.gates) if g.kind == "CSWAP" and g.qubits[0] not in system]


def _ccz(c, system):
    return [i for i, g in enumerate(c.gates) if g.kind == "CCZ"]


def _a_inside_a_system_run(c, system):
    # an A between two gates on system qubits alone: the walk fuses all three
    on_system = [set(g.qubits) <= system for g in c.gates]
    return [
        i for i, g in enumerate(c.gates)
        if g.kind == "A" and on_system[i - 1] and on_system[i + 1]
    ]


@pytest.mark.parametrize(
    "n,k,variant,candidates",
    [
        (4, 2, "plain", _selection_controlled_cswap),
        (3, 4, "star", _ccz),
        (5, 2, "star", _a_inside_a_system_run),
    ],
    ids=["k2-plain-cswap", "k4-star-ccz", "k2-star-fused-A"],
)
def test_verify_select_fails_without_one_gate(n, k, variant, candidates, monkeypatch):
    # negative controls over every valid word: the middle candidate gate goes
    real = simulator.controlled_select

    def broken(n, k, variant):
        c = real(n, k, variant)
        found = candidates(c, set(c.register_labels["system"]))
        assert found
        del c.gates[found[len(found) // 2]]
        return c

    monkeypatch.setattr(simulator, "controlled_select", broken)
    lay = SelectionLayout(n, k, "k2" if k == 2 else "general")
    rep = verify_select(n, k, variant, trials=2, seed=6)
    assert not rep["pass"] and rep["max_error"] > 0.1
    word = int(rep["worst_word"], 2)
    assert len(rep["worst_word"]) == lay.width and word in set(lay.valid_states())
    assert rep["worst_string"] == str(decode_index(word, lay))
    alone = verify_select(n, k, variant, trials=2, seed=6, words=[word])
    assert not alone["pass"] and alone["worst_word"] == rep["worst_word"]


@pytest.mark.parametrize("n,k,variant", [(5, 2, "star"), (5, 2, "plain"), (3, 4, "star"), (3, 4, "plain")])
def test_verify_select_fails_without_any_one_gate(n, k, variant, monkeypatch):
    # negative controls: the first, middle and last gate of every kind goes in
    # turn, and each deletion must fail some word
    real = simulator.controlled_select
    at = {}
    for i, g in enumerate(real(n, k, variant).gates):
        at.setdefault(g.kind, []).append(i)
    missed = []
    for kind, where in sorted(at.items()):
        for i in sorted({where[0], where[len(where) // 2], where[-1]}):
            monkeypatch.setattr(simulator, "controlled_select", lambda *a, i=i: _without(real(*a), i))
            if verify_select(n, k, variant)["pass"]:
                missed.append(i)
    # a deletion may pass only where the dense route shows it leaves every valid
    # word's action alone: at k2 n = 5 the phase block's second Sdg acts only
    # where the top bit of p is set, and no valid word (p <= 3) sets it
    lay = SelectionLayout(n, k, "k2" if k == 2 else "general")
    for i in missed:
        c = real(n, k, variant)
        assert c.n_qubits <= 16, (c.gates[i], i)
        state = np.zeros(1 << c.n_qubits, dtype=complex)
        for word in lay.valid_states():
            state[word << n : (word + 1) << n] = random_state(n, word)
        assert np.abs(apply_circuit(c, state) - apply_circuit(_without(c, i), state)).max() < 1e-9


def _without(c, i):
    del c.gates[i]
    return c


def test_verify_select_decodes_every_word_before_synthesis(monkeypatch):
    def never(*args):
        raise AssertionError("synthesized before the words were decoded")

    monkeypatch.setattr(simulator, "controlled_select", never)
    good = SelectionLayout(3, 2, "k2").pack(p=0, q=2, P1=1, P2=1)
    # word 0 addresses p = q = 0; 2**7 does not fit the 7-bit word
    for word in (0, 1 << 7, -1):
        with pytest.raises(select_synth.DecodeError, match=f"selection word {word} "):
            verify_select(3, 2, "star", words=[good, word])


def test_verify_select_keeps_no_decoded_string(monkeypatch):
    # the words' letters and phases are kept as columns, not as one PauliString per word
    alive, calls = weakref.WeakSet(), []
    decode, synth = simulator.decode_index, simulator.controlled_select

    def recording(bits, layout):
        calls.append(bits)
        alive.add(string := decode(bits, layout))
        return string

    def checking(*args):
        assert len(alive) <= 1, f"{len(alive)} decoded strings alive at synthesis"
        return synth(*args)

    monkeypatch.setattr(simulator, "decode_index", recording)
    monkeypatch.setattr(simulator, "controlled_select", checking)
    report = verify_select(4, 4, "star")
    assert report["pass"] and report["states_checked"] == len(calls) == 1122


def test_verify_select_samples_basis_states_past_the_exhaustive_limit():
    lay = SelectionLayout(17, 2, "k2")
    words = [lay.pack(p=0, q=16, P1=3, P2=1), lay.pack(p=5, q=6, P1=0, P2=0)]
    rep = verify_select(17, 2, "star", trials=3, seed=2, words=words)
    assert rep["pass"] and rep["max_error"] == 0.0
    assert not rep["exhaustive"] and rep["basis_states"] == 5  # all-zeros, all-ones and 3 drawn
    rep = verify_select(4, 2, "plain", trials=3)
    assert rep["exhaustive"] and rep["basis_states"] == 16


def _wide_words():
    # k = 12 at n = 5: a 73-bit selection word, wider than an int64 holds
    lay = SelectionLayout(5, 12, "general")
    signed_pair_and_number = lay.pack(sgn=1, addr0=1, addr1=3, i0=1, i1=1, P0=1, addr2=4, n2=1)
    pair_in_slots_4_5 = lay.pack(addr4=0, addr5=2, i4=1, i5=1, P5=1)
    return lay, [signed_pair_and_number, pair_in_slots_4_5]


@pytest.mark.parametrize("variant", ["star", "plain"])
def test_verify_select_plays_words_wider_than_63_bits(variant, monkeypatch):
    lay, words = _wide_words()
    assert lay.width == 73 and words[0] >= 1 << 72
    rep = verify_select(5, 12, variant, trials=2, words=words)
    assert rep["pass"] and rep["max_error"] == 0.0 and len(rep["worst_word"]) == 73
    # negative control: a Z on a system qubit under the sign bit (qubit 0, the word's
    # top bit) fails the signed word alone
    real = simulator.controlled_select

    def broken(n, k, variant):
        c = real(n, k, variant)
        c.add("CZ", 0, c.register_labels["system"][-1])
        return c

    monkeypatch.setattr(simulator, "controlled_select", broken)
    rep = verify_select(5, 12, variant, trials=2, words=words)
    assert not rep["pass"] and rep["max_error"] == 2.0
    assert rep["worst_word"] == f"{words[0]:073b}"
    assert rep["worst_string"] == str(decode_index(words[0], lay))


def test_classical_control_plays_a_word_wider_than_63_bits(rng):
    lay, words = _wide_words()
    c = controlled_select(5, 12, "star")
    psi = random_state(5, rng)
    phase, out = apply_classical_control(c, words[0], psi)
    assert phase == 1
    assert np.abs(out - pauli_apply(decode_index(words[0], lay), psi)).max() < 1e-12
    with pytest.raises(ValueError, match="needs 73 bits"):
        apply_classical_control(c, 1 << 73, psi)


def test_verify_select_fails_when_the_expected_string_is_wrong(monkeypatch):
    # the oracle looks each word up through simulator.decode_index: negate one
    # word's string there and the check must fail on that word
    lay = SelectionLayout(3, 2, "k2")
    word = lay.pack(p=0, q=2, P1=1, P2=1)
    real = simulator.decode_index

    def wrong(bits, layout):
        right = real(bits, layout)
        return PauliString(right.letters, right.phase + 2) if bits == word else right

    monkeypatch.setattr(simulator, "decode_index", wrong)
    rep = verify_select(3, 2, "star", trials=2, seed=4)
    assert not rep["pass"] and rep["max_error"] > 0.1
    assert rep["worst_word"] == f"{word:0{lay.width}b}"
    assert rep["worst_string"] == str(wrong(word, lay))


def test_verify_select_rejects_no_words(monkeypatch):
    def never(*args):
        raise AssertionError("synthesized before the words check")

    monkeypatch.setattr(simulator, "controlled_select", never)
    for words in ([], iter(()), np.array([], dtype=int)):
        with pytest.raises(ValueError, match="words"):
            verify_select(3, 2, "star", words=words)


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_select_rejects_too_few_trials(trials, monkeypatch):
    def never(*args):
        raise AssertionError("synthesized before the trials check")

    monkeypatch.setattr(simulator, "controlled_select", never)
    with pytest.raises(ValueError, match="trials"):
        verify_select(3, 2, "star", trials=trials)


def test_verify_select_rejects_a_negative_seed(monkeypatch):
    def never(*args):
        raise AssertionError("synthesized before the seed check")

    monkeypatch.setattr(simulator, "controlled_select", never)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        verify_select(3, 2, "star", trials=2, seed=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: synth_select_general(3, 4, "foo"),
        lambda: controlled_select(3, 2, "foo"),
        lambda: controlled_select(3, 4, "foo", 1),
        lambda: verify_select(3, 2, "foo", trials=1),
        lambda: verify_select(3, 4, "foo", trials=1, words=[0]),
    ],
    ids=["general", "controlled-k2", "controlled-k4", "verify-k2", "verify-k4"],
)
def test_unknown_variant_raises_before_synthesis(call, monkeypatch):
    # every synthesizer starts from _select_host; it must never be reached
    def never(*args):
        raise AssertionError("synthesized before the variant check")

    monkeypatch.setattr(select_synth, "_select_host", never)
    with pytest.raises(ValueError, match="'foo'"):
        call()
