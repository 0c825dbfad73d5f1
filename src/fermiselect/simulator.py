"""Dense statevector simulation and SELECT verification.

Qubit 0 is the most significant bit of the state index, matching the
Pauli-string convention.  One statevector engine, :mod:`fermiselect.kernels`,
runs every gate.  Gates are fused greedily into blocks on at most
``_BLOCK_QUBITS`` qubits (a macro whole); a block's matrix comes from the
one-qubit kernels run on a small identity, and ``kernels.apply_blocks``
applies it with one matmul, in two buffers of the size it is given.  On
top of it sit two independent routes:

* ``apply_circuit`` / ``unitary_of`` simulate every qubit directly;
  ``unitary_of`` runs the blocks on chunks of identity columns, at most
  ``_CHUNK_AMPLITUDES`` amplitudes each;
* ``apply_classical_control`` holds the selection qubits as classical
  bits and walks the un-lowered circuit once for a batch of selection
  words: runs of system gates as blocks on every word, any other gate
  from its own matrix on the words whose bits it matches.

Both are compared against ``pauli_apply`` (in :mod:`fermiselect.pauli`),
the oracle, which shares no code with either.  ``verify_select`` walks
the synthesized circuit once per chunk of selection words and compares
each word's system action with its decoded Pauli string on random states.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby
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
# blocks to at most this many identity amplitudes at once.  This bounds their memory: a
# chunk and the spare buffer kernels.apply_blocks takes beside it.
_CHUNK_AMPLITUDES = 1 << 16

# verify_select passes when its worst amplitude error is at most this
_TOL = 1e-9

# _moves reads a block as zero, or as the identity, when no entry is further off than
# this: 10,000 macros so read move a word by at most 4e-10 (a block has 4 rows at most)
_EXACT = 1e-14

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


def _block_unitary(qubits: Sequence[int], gates: Iterable[Gate]) -> np.ndarray:
    """The matrix of ``gates``, macros expanded, on ``qubits`` (the first most significant)."""
    m = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    u = np.eye(1 << m, dtype=np.complex128)
    for g in terminal_gates(gates):
        if len(g.qubits) == 1:
            kernels.apply_one_qubit(u, m, local[g.qubits[0]], GATE_1Q[g.kind])
        else:
            ctrl, tgt = g.qubits
            kernels.apply_controlled_one_qubit(u, m, local[ctrl], local[tgt], GATE_1Q[g.kind[1:]])
    return u


def _blocks(gates: Iterable[Gate], axis, build=_block_unitary) -> Iterator[tuple[list[int], np.ndarray]]:
    """``gates`` in time order, fused greedily into blocks.

    A block grows while its qubits number at most ``_BLOCK_QUBITS``; on
    a smaller register that bound never binds, and one block takes every
    gate.  Each block comes out on the axes ``axis[q]`` of its qubits,
    with the matrix ``build(qubits, gates)`` gives for its two tuples.
    """
    qubits: list[int] = []
    run: list[Gate] = []
    for g in gates:
        new = [q for q in g.qubits if q not in qubits]
        if len(qubits) + len(new) > _BLOCK_QUBITS:
            yield [axis[q] for q in qubits], build(tuple(qubits), tuple(run))
            qubits, run, new = [], [], list(g.qubits)
        qubits += new
        run.append(g)
    if run:
        yield [axis[q] for q in qubits], build(tuple(qubits), tuple(run))


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a full statevector (macros expand on the fly)."""
    n = c.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    amps = np.array(state, dtype=np.complex128)
    if amps.shape != (1 << n,):
        raise ValueError(f"state must have {1 << n} amplitudes")
    return kernels.apply_blocks(amps, n, _blocks(c.gates, range(n)))


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
    blocks = list(_blocks(c.gates, range(n)))
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


def _moves(g: Gate, pos: dict[int, int]) -> tuple[list[int], list]:
    """What g does to each pattern of its selection bits, read off the
    matrix of its terminal expansion (selection qubits most significant).

    Each pattern must go to one pattern.  Returns g's system axes and,
    for each pattern g does not leave alone, its ``(qubit, bit)`` pairs,
    the selection qubits it flips and its system block (1×1: a phase).
    Entries within ``_EXACT`` of zero or of the identity count as such.
    """
    sel = [q for q in g.qubits if q not in pos]
    sys_q = [q for q in g.qubits if q in pos]
    a, s = 1 << len(sel), 1 << len(sys_q)
    u = _block_unitary(sel + sys_q, [g]).reshape(a, s, a, s)
    reach = np.abs(u).max(axis=(1, 3)) > _EXACT  # reach[r, p]: pattern p goes to r
    if (reach.sum(axis=0) != 1).any():
        raise ValueError(f"cannot track {g.kind}{g.qubits}: it mixes values of a selection qubit")
    bits = [[p >> (len(sel) - 1 - i) & 1 for i in range(len(sel))] for p in range(a)]
    moves = []
    for p, r in enumerate(reach.argmax(axis=0)):
        if r != p or np.abs(u[r, :, p] - np.eye(s)).max() > _EXACT:
            flip = [q for q, x, y in zip(sel, bits[p], bits[r]) if x != y]
            moves.append((list(zip(sel, bits[p])), flip, u[r, :, p]))
    return [pos[q] for q in sys_q], moves


def _walk(c: Circuit, words: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Play c's un-lowered gates for a batch of selection words.

    The selection qubits are held classical: one boolean array per
    qubit over ``words``.  Each word plays on its own copy of ``base``
    (``(2**n_sys, ...)``), on a word axis after the system index.  Runs
    of gates on system qubits alone are fused into blocks (``_blocks``,
    each distinct one built once) that act on every word; any other
    gate, terminal or macro, acts through ``_moves`` on the words whose
    bits match each pattern.  Raises unless the selection qubits see
    only flips, phases and controls and are restored for every word.
    Returns each word's phase and state.
    """
    system, sel = _selection_qubits(c)
    width = len(sel)
    if words.size and not (words.min() >= 0 and words.max() < (1 << width)):
        raise ValueError(f"selection word needs {width} bits")
    n_sys = len(system)
    pos = {q: i for i, q in enumerate(system)}
    states = np.repeat(np.expand_dims(base, 1), len(words), axis=1)
    start = {q: (words >> (width - 1 - r)) & 1 == 1 for r, q in enumerate(sel)}
    bits = dict(start)
    phase = np.ones(len(words), dtype=np.complex128)
    build, moves = cache(_block_unitary), cache(lambda g: _moves(g, pos))
    for on_system, run in groupby(c.gates, lambda g: all(q in pos for q in g.qubits)):
        if on_system:
            states = kernels.apply_blocks(states, n_sys, _blocks(run, pos, build))
            continue
        for g in run:
            axes, parts = moves(g)
            ons = [np.logical_and.reduce([bits[q] == b for q, b in pattern]) for pattern, _, _ in parts]
            for (_, flip, u), on in zip(parts, ons):
                bits.update({q: bits[q] ^ on for q in flip})
                if not axes:
                    phase[on] *= u[0, 0]
                elif len(axes) == 1:
                    kernels.apply_one_qubit(states, n_sys, axes[0], u, on)
                elif on.any():
                    sub = states.compress(on, axis=1)  # C order, unlike states[:, on]
                    states[:, on] = kernels.apply_blocks(sub, n_sys, [(axes, u)])
    moved = np.flatnonzero(np.any([bits[q] != start[q] for q in sel], axis=0))
    if moved.size:
        raise ValueError(f"selection register was not restored for word {int(words[moved[0]]):0{width}b}")
    return phase, states


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
    n_sys = len(_selection_qubits(c)[0])
    state = np.asarray(system_state, dtype=np.complex128)
    if state.shape != (1 << n_sys,):
        raise ValueError(f"system state must have {1 << n_sys} amplitudes")
    words = np.atleast_1d(np.asarray(selection_bits, dtype=np.int64))
    phase, states = _walk(c, words, state)
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
    amplitudes, or of one word when a word alone holds more.  The walk
    plays the circuit's macros un-lowered and fuses its runs of system
    gates into blocks (``_walk``).

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
    chunk = max(1, _CHUNK_AMPLITUDES // (dim * trials))

    max_error = 0.0
    worst_word = worst_string = None
    for lo in range(0, len(all_words), chunk):
        batch_words = all_words[lo : lo + chunk]
        phase, states = _walk(circuit, batch_words, base)
        states *= phase[:, None]
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
