"""Dense statevector simulation and SELECT verification.

Qubit 0 is the most significant bit of the state index, matching the
Pauli-string convention.  One statevector engine, :mod:`fermiselect.kernels`,
runs every gate; on top of it sit two independent routes:

* ``apply_circuit`` / ``unitary_of`` simulate every qubit directly.
  They fuse the terminal gates greedily into blocks on at most
  ``_BLOCK_QUBITS`` qubits, build each block's matrix by running the
  one-qubit kernels on a small identity, and apply each block with one
  matmul through ``kernels.apply_blocks``.  That holds two buffers of
  the size it is given, the copy of the input and one spare, so
  ``apply_circuit`` peaks at about twice the state's bytes.
  ``unitary_of`` runs the blocks on chunks of identity columns, at most
  ``_CHUNK_AMPLITUDES`` amplitudes each, and so holds little beside the
  matrix it returns;
* ``apply_classical_control`` holds the selection qubits as classical
  bits and plays only the system-side gates, for a batch of selection
  words in one walk of the circuit.

Both are compared against ``pauli_apply`` (in :mod:`fermiselect.pauli`),
the oracle, which shares no code with either.  ``verify_select`` walks
the synthesized circuit once per chunk of selection words and compares
each word's system action with its decoded Pauli string on random states.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .circuit_ir import Circuit, Gate, terminal_gates
from .pauli import pauli_apply
from .select_synth import SelectionLayout, controlled_select, decode_index

__all__ = [
    "MAX_DENSE_QUBITS",
    "MAX_UNITARY_QUBITS",
    "GATE_1Q",
    "zero_state",
    "basis_state",
    "random_state",
    "apply_circuit",
    "unitary_of",
    "apply_classical_control",
    "verify_select",
]

MAX_DENSE_QUBITS = 24
MAX_UNITARY_QUBITS = 12

# verify_select walks at most this many amplitudes at once (words × trials × 2**n_sys),
# or one word that holds more (k = 2, n = 12, 20 trials: 81,920); unitary_of applies its
# blocks to at most this many identity amplitudes at once.  This bounds their memory.
_CHUNK_AMPLITUDES = 1 << 16

# verify_select passes when its worst amplitude error is at most this
_TOL = 1e-9

# the dense route fuses gates into blocks on at most this many qubits: one
# matmul then costs 2**5 multiply-adds per amplitude, against a pass over
# the state per gate (a 17-qubit SELECT at n = 8 lowers to 902 gates in
# 97 blocks)
_BLOCK_QUBITS = 5

_SQ2 = 1.0 / np.sqrt(2.0)
_C8 = np.cos(np.pi / 8)
_S8 = np.sin(np.pi / 8)

GATE_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=np.complex128),
    "A": np.array([[_C8, _S8], [-_S8, _C8]], dtype=np.complex128),
    "Adg": np.array([[_C8, -_S8], [_S8, _C8]], dtype=np.complex128),
}


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


def random_state(n_qubits: int, rng=None) -> np.ndarray:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return amps / np.linalg.norm(amps)


def _block_unitary(qubits: list[int], gates: list[Gate]) -> np.ndarray:
    """The matrix of ``gates`` on ``qubits``, qubits[0] most significant."""
    m = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    u = np.eye(1 << m, dtype=np.complex128)
    for g in gates:
        if len(g.qubits) == 1:
            kernels.apply_one_qubit(u, m, local[g.qubits[0]], GATE_1Q[g.kind])
        else:
            ctrl, tgt = g.qubits
            kernels.apply_controlled_one_qubit(u, m, local[ctrl], local[tgt], GATE_1Q[g.kind[1:]])
    return u


def _blocks(c: Circuit) -> Iterator[tuple[list[int], np.ndarray]]:
    """c's terminal gates, in time order, fused greedily into blocks.

    A block grows while its qubits number at most ``_BLOCK_QUBITS``; on
    a smaller register that bound never binds, and one block takes every
    gate.
    """
    qubits: list[int] = []
    gates: list[Gate] = []
    for g in terminal_gates(c.gates):
        new = [q for q in g.qubits if q not in qubits]
        if len(qubits) + len(new) > _BLOCK_QUBITS:
            yield qubits, _block_unitary(qubits, gates)
            qubits, gates, new = [], [], list(g.qubits)
        qubits += new
        gates.append(g)
    if gates:
        yield qubits, _block_unitary(qubits, gates)


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a full statevector (macros expand on the fly)."""
    n = c.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    amps = np.array(state, dtype=np.complex128)
    if amps.shape != (1 << n,):
        raise ValueError(f"state must have {1 << n} amplitudes")
    return kernels.apply_blocks(amps, n, _blocks(c))


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (small circuits only).

    The blocks run on chunks of identity columns, at most
    ``_CHUNK_AMPLITUDES`` amplitudes each, so the call holds two
    chunk-size buffers beside the matrix it returns.
    """
    n = c.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"{n} qubits exceeds the unitary cap of {MAX_UNITARY_QUBITS}")
    dim = 1 << n
    blocks = list(_blocks(c))
    u = np.empty((dim, dim), dtype=np.complex128)
    step = max(1, _CHUNK_AMPLITUDES // dim)
    for start in range(0, dim, step):
        width = min(step, dim - start)
        cols = np.zeros((dim, width), dtype=np.complex128)
        cols[start + np.arange(width), np.arange(width)] = 1
        u[:, start : start + width] = kernels.apply_blocks(cols, n, blocks)
    return u


# ---------------------------------------------------------------------------
# Classical tracking of selection qubits
# ---------------------------------------------------------------------------


def _selection_qubits(c: Circuit) -> tuple[tuple[int, ...], list[int]]:
    system = c.register_labels.get("system")
    if system is None:
        raise ValueError("circuit has no 'system' register label")
    sys_set = set(system)
    sel = [q for q in range(c.n_qubits) if q not in sys_set]
    return system, sel


def _track(
    kind: str, bits: dict[int, np.ndarray], q: int, phase: np.ndarray, on: Optional[np.ndarray] = None
) -> None:
    """Play a one-qubit gate on selection qubit ``q``, held as classical bits.

    Acts on the words in ``on`` (all when None).  A diagonal ``GATE_1Q``
    matrix multiplies each word's phase by the entry its bit picks; an
    anti-diagonal one does the same and flips the bit.
    """
    m = GATE_1Q[kind]
    if (m[0, 1] or m[1, 0]) and (m[0, 0] or m[1, 1]):
        raise ValueError(f"cannot track {kind} on a selection qubit")
    flip = m[0, 0] == 0
    # the entry picked by a bit that is 0, then by a bit that is 1
    for bit, value in enumerate((m[1, 0], m[0, 1]) if flip else (m[0, 0], m[1, 1])):
        if value != 1:
            words = bits[q] if bit else ~bits[q]
            phase[words if on is None else words & on] *= value
    if flip:
        bits[q] = ~bits[q] if on is None else bits[q] ^ on


def _walk(
    c: Circuit, gates: list[Gate], words: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Play terminal ``gates`` of ``c`` for a batch of selection words.

    The selection qubits are held classical: one boolean array per
    qubit over ``words``.  ``states`` has shape ``(2**n_sys, len(words),
    ...)`` and is updated in place; a system gate controlled by a
    selection qubit acts only on the words where that bit is set.
    Selection qubits may only see bit flips, diagonal phases and
    controls; anything else raises, as does a word whose selection
    register is not restored.  Returns the phase of each word.
    """
    system, sel = _selection_qubits(c)
    width = len(sel)
    if words.size and not (words.min() >= 0 and words.max() < (1 << width)):
        raise ValueError(f"selection word needs {width} bits")
    n_sys = len(system)
    pos = {q: i for i, q in enumerate(system)}
    start = {q: (words >> (width - 1 - r)) & 1 == 1 for r, q in enumerate(sel)}
    bits = dict(start)
    phase = np.ones(len(words), dtype=np.complex128)
    for g in gates:
        kind = g.kind
        if len(g.qubits) == 1:
            (q,) = g.qubits
            if q in pos:
                kernels.apply_one_qubit(states, n_sys, pos[q], GATE_1Q[kind])
            else:
                _track(kind, bits, q, phase)
            continue
        ctrl, tgt = g.qubits
        if ctrl in pos and tgt in pos:
            kernels.apply_controlled_one_qubit(
                states, n_sys, pos[ctrl], pos[tgt], GATE_1Q[kind[1:]]
            )
        elif ctrl in pos:
            if kind != "CZ":
                raise ValueError(
                    f"cannot track a system-controlled {kind} onto a selection qubit"
                )
            kernels.apply_one_qubit(states, n_sys, pos[ctrl], GATE_1Q["Z"], bits[tgt])
        elif tgt in pos:
            kernels.apply_one_qubit(states, n_sys, pos[tgt], GATE_1Q[kind[1:]], bits[ctrl])
        else:
            _track(kind[1:], bits, tgt, phase, bits[ctrl])
    for q in sel:
        moved = np.flatnonzero(bits[q] != start[q])
        if moved.size:
            word = int(words[moved[0]])
            raise ValueError(f"selection register was not restored for word {word:0{width}b}")
    return phase


def apply_classical_control(
    c: Circuit, selection_bits: int | Sequence[int], system_state: np.ndarray
) -> tuple[complex, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Act on the system register with the selection register classical.

    ``selection_bits`` packs the selection qubits most significant
    first.  Returns ``(phase, state)``; raises if the circuit would ever
    put a selection qubit into superposition or fails to restore it.
    Given a sequence of words instead, every word acts on its own copy
    of ``system_state``: the phases get one entry per word and the
    states a word axis after the system index.
    """
    system, _ = _selection_qubits(c)
    n_sys = len(system)
    state = np.asarray(system_state, dtype=np.complex128)
    if state.shape != (1 << n_sys,):
        raise ValueError(f"system state must have {1 << n_sys} amplitudes")
    words = np.atleast_1d(np.asarray(selection_bits, dtype=np.int64))
    states = np.repeat(state[:, None], len(words), axis=1)
    phase = _walk(c, list(terminal_gates(c.gates)), words, states)
    if np.ndim(selection_bits) == 0:
        return complex(phase[0]), states[:, 0]
    return phase, states


def verify_select(
    n: int,
    k: int,
    variant: str = "star",
    trials: int = 20,
    seed: int = 1,
    words: Optional[Iterable[int]] = None,
) -> dict:
    """Check a synthesized SELECT against the Pauli oracle, state by state.

    For every valid selection word (or the given ``words``, which must
    not be empty: a check of no word proves nothing), plays the
    circuit with classical selection bits on a batch of random system
    states and compares with ``pauli_apply`` of the decoded string.
    Words are walked together, in chunks of at most ``_CHUNK_AMPLITUDES``
    amplitudes, or of one word when a word alone holds more.

    Returns a report dict with the worst amplitude error, the word that
    reached it (``worst_word``, its selection bits) and its decoded
    string (``worst_string``), and a boolean ``pass`` (worst error at
    most ``_TOL``).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    layout = SelectionLayout(n, k, "k2" if k == 2 else "general")
    all_words = np.fromiter(layout.valid_states() if words is None else words, dtype=np.int64)
    if not all_words.size:
        raise ValueError("words is empty: there is nothing to verify")
    circuit = controlled_select(n, k, variant)
    rng = np.random.default_rng(seed)
    dim = 1 << len(circuit.register_labels["system"])
    base = rng.standard_normal((dim, trials)) + 1j * rng.standard_normal((dim, trials))
    base /= np.linalg.norm(base, axis=0, keepdims=True)
    gates = list(terminal_gates(circuit.gates))
    chunk = max(1, _CHUNK_AMPLITUDES // (dim * trials))

    max_error = 0.0
    worst_word = worst_string = None
    for lo in range(0, len(all_words), chunk):
        batch_words = all_words[lo : lo + chunk]
        states = np.repeat(base[:, None, :], len(batch_words), axis=1)
        states *= _walk(circuit, gates, batch_words, states)[:, None]
        for i, word in enumerate(batch_words.tolist()):
            target = decode_index(word, layout)
            err = float(np.abs(states[:, i] - pauli_apply(target, base)).max())
            if worst_word is None or err > max_error:
                max_error = err
                worst_word = f"{word:0{layout.width}b}"
                worst_string = str(target)
    return {
        "n": n,
        "k": k,
        "variant": variant,
        "states_checked": len(all_words),
        "trials": trials,
        "max_error": max_error,
        "worst_word": worst_word,
        "worst_string": worst_string,
        "pass": bool(max_error <= _TOL),
    }
