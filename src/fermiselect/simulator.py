"""Dense statevector simulation and SELECT verification.

Qubit 0 is the most significant bit of the state index, matching the
Pauli-string convention.  Two independent routes run a circuit:

* ``apply_circuit`` / ``unitary_of`` run the statevector engine,
  ``kernels.apply_blocks``, on every qubit: gates fused by first fit into
  blocks on at most ``_BLOCK_QUBITS`` qubits (a macro whole), each gate
  joining the first block that fits from the last one holding any of its
  qubits, each block's matrix built by the one-qubit kernels on a small
  identity and applied with one matmul.
* ``apply_classical_control`` and ``verify_select`` play the un-lowered
  circuit on basis states with the selection register classical: a bit
  row per qubit over (word, basis state) pairs and an integer phase in
  eighths of a turn.  Each local gate shape's permutation and phase table
  is compiled once per process into its polynomials, each moved bit's
  change over GF(2) and the phase mod 8, and plays as row ops: a CX is
  one XOR, a controlled swap XORs c & (a ^ b) into both rows, a phase
  adds its weight times a monomial to the turns.  A span of a
  swap network, plain or star, plays as the network's controlled swaps:
  the plain network is those swaps exactly, and the star one is those
  swaps times a ±1 diagonal that cancels around the diagonal body it
  must wrap.  ``verify_select`` checks each word against the Pauli
  oracle's action, a basis state times an eighth root of unity too, so
  the check is exact.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .circuit_ir import Circuit, Gate, _frame_gates, _inverted, _remapped, conjugated, terminal_gates
from .gadgets import _swap_levels, address_bits, swap_up, swap_up_star
from .pauli import PauliString, _split
from .select_synth import DecodeError, controlled_select, decode_index, select_layout

__all__ = [
    "MAX_DENSE_QUBITS",
    "MAX_UNITARY_QUBITS",
    "GATE_1Q",
    "random_state",
    "apply_circuit",
    "unitary_of",
    "apply_classical_control",
    "verify_select",
]

MAX_DENSE_QUBITS = 24
MAX_UNITARY_QUBITS = 12

# unitary_of applies its blocks to at most this many identity amplitudes at once; verify_select
# checks all system basis states while they are this many or fewer.
_CHUNK_AMPLITUDES = 1 << 16

# verify_select plays whole words, at most this many bytes of bit columns (pairs times
# qubits) at a time: 2**16 pairs of the 1,047-qubit SELECT at n = 1024 would hold 69 MB
_CHUNK_BYTES = 1 << 21

# the dense route fuses gates into blocks on at most this many qubits: one
# matmul then costs 2**5 multiply-adds per amplitude, against a pass over
# the state per gate (a 17-qubit SELECT at n = 8 lowers to 902 gates in
# 57 blocks)
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


def _blocks(gates: Iterable[Gate], axis) -> Iterator[tuple[list[int], np.ndarray]]:
    """``gates`` fused into blocks by first fit along their qubit dependencies.

    Each gate, a macro whole, joins the first block that stays on at most
    ``_BLOCK_QUBITS`` qubits with it, searching from the last block that
    holds any of its qubits (from the first block if none does); where no
    block fits, it opens a new last block.  So a gate overtakes only blocks
    that share no qubit with it, and the product is unchanged; gates that
    share a qubit keep their order.  On a register of at most
    ``_BLOCK_QUBITS`` qubits one block takes every gate.  Each block comes
    out in order on the axes ``axis[q]`` of its qubits, in the order they
    first appear, with its ``_block_unitary`` matrix.
    """
    blocks: list[tuple[dict, list]] = []  # each block's qubits (a dict keeps their order) and gates
    last: dict[int, int] = {}  # the last block holding each qubit
    for g in gates:
        qubits = dict.fromkeys(g.qubits)
        b = max((last[q] for q in qubits if q in last), default=0)
        while b < len(blocks) and len(blocks[b][0].keys() | qubits) > _BLOCK_QUBITS:
            b += 1
        if b == len(blocks):
            blocks.append(({}, []))
        blocks[b][0].update(qubits)
        blocks[b][1].append(g)
        last.update(dict.fromkeys(qubits, b))
    for qubits, run in blocks:
        yield [axis[q] for q in qubits], _block_unitary(list(qubits), run)


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
# The basis-state walk: selection register classical, phases in eighths
# ---------------------------------------------------------------------------

# ω^d for d eighths of a turn; |1 - ω^d| is the error of a phase d eighths off
_OMEGA = np.exp(1j * np.pi / 4 * np.arange(8))
_PHASE_ERROR = np.abs(1 - _OMEGA)


# The tables of ``_plan`` and the gates it compares networks with, filled on first use and
# kept for the process: each is keyed by a local shape or a size, not by a circuit.

@cache
def _local_table(gates: tuple[Gate, ...]) -> tuple:
    """(image, phase, moved bits) of ``gates`` on local qubits 0..m-1: from their
    ``_block_unitary`` matrix, whose column i must hold ω^``phase[i]`` at ``image[i]`` up to
    float rounding (1e-9), else ValueError."""
    m = 1 + max((q for g in gates for q in g.qubits), default=-1)
    u = _block_unitary(range(m), gates)
    cols = np.arange(1 << m)
    image = np.abs(u).argmax(axis=0)
    phase = np.rint(np.angle(u[image, cols]) * 4 / np.pi).astype(np.int64) % 8
    if np.abs(u[image, cols] - _OMEGA[phase]).max() > 1e-9:
        raise ValueError("cannot play these gates on basis states: their matrix is not monomial")
    moved = tuple(i for i in range(m) if ((image ^ cols) >> (m - 1 - i) & 1).any())
    return image.astype(np.uint8), phase.astype(np.uint8), moved


@cache
def _program(kind: str, arity: int, framing: tuple) -> Callable:
    """play(rows, turns, qubits) for a ``kind`` gate on qubits 0..arity-1 inside ``framing``
    (per frame around it, outermost first, the local qubits it holds and its letter): its
    ``_local_table``, kept as ``play.table``, as polynomials read off by the Möbius transform,
    each moved bit's change (output XOR input) over GF(2) and the phase mod 8."""
    frames = [_frame_gates(local, letter) for local, letter in framing]
    opening = [h for gates, _ in frames for h in gates]
    closing = [h for _, gates in reversed(frames) for h in gates]
    image, phase, moved = table = _local_table((*opening, Gate(kind, tuple(range(arity))), *closing))
    ins, cols = _every_basis_state(arity)[list(moved)], np.arange(1 << arity)
    coeffs = np.vstack([ins[:, image] ^ ins, phase]).astype(np.int64)
    for bit in 1 << np.arange(arity):  # Möbius transform: entry s then weighs the product of the inputs in s
        coeffs[:, cols & bit > 0] -= coeffs[:, cols[cols & bit > 0] ^ bit]
    x = {1 << (arity - 1 - i): f"x{i}" for i in range(arity)}  # each input's bit in a monomial, and its row

    def xor(monomials: list) -> str:  # a factor common to the monomials taken out
        if len(monomials) > 1 and (common := np.bitwise_and.reduce(monomials)):
            return f"{xor([common])} & ({xor([s ^ common for s in monomials])})"
        return " ^ ".join(" & ".join(v for bit, v in x.items() if s & bit) or "1" for s in monomials)

    changes: dict[str, list] = {}  # each distinct change and the rows it moves
    for i, row in zip(moved, coeffs[:-1] % 2):
        changes.setdefault(xor(list(np.flatnonzero(row))), []).append(i)
    written = [f"x{i}" for i in moved]  # every change is taken before any row is written, a bare one copied
    body = [f"{', '.join(x.values())}, = map(r.__getitem__, q)"]
    body += [f"t += {w} * ({xor([s])})" for s, w in enumerate(coeffs[-1] % 8) if w]
    body += [f"d{k} = {change}" + ".copy()" * (change in written) for k, change in enumerate(changes)]
    body += [f"x{i} ^= d{k}" for k, rows in enumerate(changes.values()) for i in rows]
    exec("def play(r, t, q):\n    " + "\n    ".join(body), namespace := {})
    namespace["play"].table = table
    return namespace["play"]


@lru_cache(maxsize=4)  # the networks of both variants at two sizes
def _network(builder, n: int) -> list[Gate]:
    """The gates of ``builder(n)``, ``swap_up`` or ``swap_up_star``."""
    return builder(n).gates


def _unplayable(gates: Sequence[Gate], lo: int, hi: int) -> ValueError:
    """The error for ``gates``, standing for c.gates[lo:hi], whose product is not monomial."""
    qubits = tuple(dict.fromkeys(q for g in gates for q in g.qubits))
    where = f"gate {lo}" if hi == lo + 1 else f"gates {lo} to {hi - 1}"
    return ValueError(f"cannot play {gates[0].kind if len(gates) == 1 else 'body'}{qubits} on basis states "
                      f"({where} of the circuit): its matrix is not monomial")


def _plan(c: Circuit) -> Optional[list[tuple]]:
    """c's gates in time order, each as its own qubits and its ``_program``.

    Each program is read for a local shape: the gate's kind and arity and, for each frame
    around it, which of its qubits the frame holds and its letter.  So a gate repeated on
    other qubits, or under other frames of the same shape, reads no new matrix, and a
    shape read once is kept for the process (``_program``).  A ``conjugated`` span
    (``Circuit.spans``) around ``swap_up(n)`` or ``swap_up_star(n)``, compared gate for
    gate under the span's map, plays as the network's n - 1 controlled swaps Π
    (``gadgets._swap_levels``).  The plain network is Π exactly.  The star network is
    D·Π, D diagonal ±1, which cancels around the span's body only when the body's
    product is diagonal, so its body must be; that test is kept per body renamed to
    local qubits 0..m-1 in order of first appearance (``_local_table``).  A
    ``basis_change`` span plays as its body, each gate conjugated by the frame and by
    every frame around it.  None unless each such span opens and closes with exactly what
    its builder writes, read in place; each network is rewritten once per call for each
    map its spans use.  A gate, or a star body, whose matrix is not monomial raises
    ValueError naming its qubits and where it stands in c.gates.
    """

    def framed(g: Gate, frames: tuple, lo: int, hi: int) -> tuple:
        framing = tuple((local, letter) for held, letter in frames
                        if (local := tuple(i for i, q in enumerate(g.qubits) if q in held)))
        try:
            return g.qubits, _program(g.kind, len(g.qubits), framing)
        except ValueError:
            raise _unplayable([g], lo, hi) from None

    def rewrite(net: Circuit, to: Optional[tuple]) -> Optional[tuple]:
        """What a span of a swap network under map ``to`` opens and closes with, its swaps
        and whether the network is the star one."""
        n = len(net.register_labels.get("data", ()))
        if n < 2:
            return None
        star = bool(net.gates) and net.gates[0].kind != "CSWAP"  # the plain network opens with one
        if net.gates != _network(swap_up_star if star else swap_up, n):
            return None  # not a swap network: its gates play as themselves
        written = _remapped(c, net, to)  # as ``conjugated`` wrote it
        to, top = range(net.n_qubits) if to is None else to, address_bits(n) - 1
        swaps = [Gate("CSWAP", (to[top - j], to[top + 1 + a], to[top + 1 + b]))
                 for j, _, pairs in _swap_levels(n) for a, b in pairs]
        return written, _inverted(written), swaps, star

    rewritten: dict[tuple, Optional[tuple]] = {}  # per network and map: one rewrite for all its spans
    stand_ins: dict[int, tuple] = {}
    for start, body, end, stop, (builder, *args) in c.spans:
        opening, swaps = c.gates[start:body], None
        if builder is conjugated:
            net, to = args
            key = (id(net), None if to is None else tuple(to))  # the spans hold the net: its id stays its own
            if key not in rewritten:
                rewritten[key] = rewrite(net, key[1])
            if rewritten[key] is None:
                continue
            written, closing, swaps, star = rewritten[key]
            if star:
                inner = c.gates[body:end]
                local: dict[int, int] = {}  # the body's qubits in order of first appearance
                renamed = tuple(Gate(g.kind, tuple([local.setdefault(q, len(local)) for q in g.qubits]))
                                for g in inner)
                try:
                    moved = _local_table(renamed)[2]
                except ValueError:
                    raise _unplayable(inner, body, end) from None
                if moved:
                    return None
        else:
            written, closing = map(list, _frame_gates(*args))
        if opening != written or c.gates[end:stop] != closing:
            return None
        stand_ins[start] = (body, end, stop, swaps, args)

    plan: list[tuple] = []

    def play(i: int, stop: int, frames: tuple) -> None:
        while i < stop:
            if i not in stand_ins:
                plan.append(framed(c.gates[i], frames, i, i + 1))
                i += 1
                continue
            start, (body, end, i, swaps, args) = i, stand_ins[i]
            if swaps is None:
                qubits, letter = args
                play(body, end, (*frames, (frozenset(qubits), letter)))
            else:
                plan.extend(framed(g, frames, start, body) for g in swaps)
                play(body, end, frames)
                plan.extend(framed(g, frames, end, i) for g in reversed(swaps))

    play(0, len(c.gates), ())
    return plan


def _run(c: Circuit, plan: list[tuple], words: Sequence[int], states: np.ndarray):
    """Play ``plan`` on every (word, ``states`` bit column) pair, words outermost: returns the
    system bit columns, phases in eighths and whether the selection bits came back changed.
    ``words`` are Python ints, unpacked from their big-endian bytes, so any width plays.
    Each entry's ``_program`` plays its table as row ops in place on its qubits' bit rows
    and the turns: a CX is one XOR, a CSWAP XORs c & (a ^ b) into both swapped rows."""
    system, sel = _selection_qubits(c)
    size = (len(sel) + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(size, "big") for w in words), dtype=np.uint8)
    word_bits = np.unpackbits(raw.reshape(len(words), size), axis=1)[:, 8 * size - len(sel):]
    bits = np.empty((c.n_qubits, len(words) * states.shape[1]), dtype=np.uint8)
    bits[sel] = word_bits.T.repeat(states.shape[1], axis=1)
    bits[list(system)] = np.tile(states, len(words))
    start = bits[sel]
    turns = np.zeros(bits.shape[1], dtype=np.uint8)  # wraps at 256, a multiple of 8
    rows = list(bits)
    for qubits, play in plan:
        play(rows, turns, qubits)
    return bits[list(system)], turns & 7, (bits[sel] != start).any(axis=0)


def _selection_qubits(c: Circuit) -> tuple[tuple[int, ...], list[int]]:
    system = c.register_labels.get("system")
    if system is None:
        raise ValueError("circuit has no 'system' register label")
    return system, sorted(set(range(c.n_qubits)) - set(system))


def _every_basis_state(n: int) -> np.ndarray:
    return (np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None] & 1).astype(np.uint8)


def apply_classical_control(
    c: Circuit, selection_bits: int | Sequence[int], system_state: np.ndarray
) -> tuple[complex, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Act on the system register with the selection register classical.

    ``selection_bits`` packs the selection qubits most significant first.
    Returns ``(phase, state)``; the state carries every phase, so ``phase``
    is 1.  Raises if a gate outside the recorded spans is not monomial, a
    span differs from what its builder writes, or the selection register is
    not restored.  Given a sequence of words, each acts on its own copy of
    ``system_state``: one phase per word, and a word axis after the system index.
    """
    system, sel = _selection_qubits(c)
    dim = 1 << len(system)
    state = np.asarray(system_state, dtype=np.complex128)
    if state.shape != (dim,):
        raise ValueError(f"system state must have {dim} amplitudes")
    single = np.ndim(selection_bits) == 0
    words = [int(w) for w in ([selection_bits] if single else selection_bits)]
    if any(w < 0 or w >> len(sel) for w in words):
        raise ValueError(f"selection word needs {len(sel)} bits")
    plan = _plan(c)
    if plan is None:
        raise ValueError("a recorded span differs from what its builder writes, or its star network wraps "
                         "a body that is not diagonal")
    out, turns, moved = _run(c, plan, words, _every_basis_state(len(system)))
    moved = moved.reshape(len(words), dim).any(axis=1)
    if moved.any():
        raise ValueError(f"selection register was not restored for word {words[moved.argmax()]:0{len(sel)}b}")
    states = np.zeros((len(words), dim), dtype=np.complex128)
    image = (1 << np.arange(len(system) - 1, -1, -1)) @ out
    states[np.arange(len(words)).repeat(dim), image] = _OMEGA[turns] * np.tile(state, len(words))
    if single:
        return complex(1), states[0]
    return np.ones(len(words), dtype=np.complex128), np.ascontiguousarray(states.T)


def verify_select(
    n: int,
    k: int,
    variant: str = "star",
    trials: int = 20,
    seed: int = 1,
    words: Optional[Iterable[int]] = None,
) -> dict:
    """Check a synthesized SELECT against the Pauli oracle, basis state by basis state.

    Every valid word, or the given ``words`` (not empty: a check of no word proves
    nothing), is decoded first: a word the layout rejects raises DecodeError naming
    it, before any synthesis.  Only each string's letters (one row of a words × n
    byte matrix) and phase are kept.  Each word plays on all 2**n system basis states
    while they number at most ``_CHUNK_AMPLITUDES`` (``exhaustive``), else on
    all-zeros, all-ones and ``trials`` seeded random ones, against
    P|x> = i^(phase+#Y)·(-1)^(x·yz)|x XOR flip>, read from ``pauli._split`` of the
    letters: flip = x, yz = z, #Y = x & z summed per row.  Words play whole, as many
    at a time as fit in ``_CHUNK_BYTES`` of bit columns, one qubit a row (one word
    when a single word is larger).  A pair's error is |1 - ω^d| on the oracle's basis
    state with the selection restored and its phase d eighths off, else 1, and 2 for
    every word when a span differs from what its builder writes.  The report names the
    worst error, its word (``worst_word``, the selection bits) and string, and passes
    at error 0.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    layout = select_layout(n, k)
    all_words = [int(w) for w in (layout.valid_states() if words is None else words)]
    if not all_words:
        raise ValueError("words is empty: there is nothing to verify")
    letters, phases = bytearray(), []
    for word in all_words:
        try:
            target = decode_index(word, layout)
        except DecodeError as exc:
            raise DecodeError(f"selection word {word} ({word:0{layout.width}b}): {exc}") from None
        letters += target.letters.encode()
        phases.append(target.phase)
    circuit = controlled_select(n, k, variant)

    exhaustive = 1 << n <= _CHUNK_AMPLITUDES
    ends = np.repeat(np.uint8([[0, 1]]), n, axis=0)  # all-zeros and all-ones
    drawn = np.random.default_rng(seed).integers(0, 2, (n, trials), dtype=np.uint8)
    states = _every_basis_state(n) if exhaustive else np.hstack([ends, drawn])
    x, z, _ = _split(np.frombuffer(letters, dtype=np.uint8).reshape(len(all_words), n))
    flips, yzs = (m.T.view(np.uint8)[:, :, None] for m in (x, z))
    base = 2 * (np.array(phases) + (x & z).sum(axis=1))[:, None]

    plan = _plan(circuit)
    errors = np.full(len(all_words), 2.0)
    count = states.shape[1]
    chunk = max(1, _CHUNK_BYTES // (count * circuit.n_qubits))
    for lo in range(0, len(all_words) if plan is not None else 0, chunk):
        at = slice(lo, lo + chunk)
        out, turns, moved = _run(circuit, plan, all_words[at], states)
        want = (states[:, None] ^ flips[:, at]).reshape(n, -1)
        want_turns = base[at] + 4 * np.bitwise_xor.reduce(states[:, None] & yzs[:, at], axis=0)
        error = _PHASE_ERROR[(turns - want_turns.ravel()) & 7]
        error[moved | (out != want).any(axis=0)] = 1.0
        errors[at] = error.reshape(-1, count).max(axis=1)

    worst = int(errors.argmax())
    worst_string = PauliString(letters[worst * n : (worst + 1) * n].decode(), phases[worst])
    return {"n": n, "k": k, "variant": variant, "states_checked": len(all_words), "trials": trials,
            "basis_states": count, "exhaustive": exhaustive, "max_error": float(errors[worst]),
            "worst_word": f"{all_words[worst]:0{layout.width}b}", "worst_string": str(worst_string),
            "pass": bool(errors[worst] == 0)}
