"""Shared dense references built independently of the package internals."""

import numpy as np
import pytest

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)

SINGLE = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_pauli(letters: str, phase: int = 0) -> np.ndarray:
    """i**phase times the Kronecker product of single-qubit Paulis."""
    return (1j ** phase) * kron_chain([SINGLE[ch] for ch in letters])


def permutation_matrix(n_qubits: int, fn) -> np.ndarray:
    """Unitary permuting basis states by bit-list function fn(bits)->bits."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n_qubits - 1 - i)) & 1 for i in range(n_qubits)]
        new = fn(list(bits))
        row = sum(b << (n_qubits - 1 - i) for i, b in enumerate(new))
        out[row, col] = 1
    return out


def scan_pairs_and_numbers(letters):
    """Letter-by-letter split: consecutive X/Y endpoints pair up; an I
    strictly inside a pair and a Z outside every pair are numbers."""
    endpoints = [i for i, ch in enumerate(letters) if ch in "XY"]
    pairs = list(zip(endpoints[::2], endpoints[1::2]))
    covered = {w for u, v in pairs for w in range(u + 1, v)}
    numbers = [w for w in covered if letters[w] == "I"]
    numbers += [w for w, ch in enumerate(letters) if ch == "Z" and w not in covered]
    return pairs, sorted(numbers)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def zero_state(n_qubits: int) -> np.ndarray:
    return basis_state(n_qubits, 0)


def chain_depth(c, kinds) -> int:
    """Longest dependency chain of circuit c counting only gates of the given kinds.

    The staged-execution analogue of T-depth for arbitrary gate classes:
    gates outside ``kinds`` order the chain but add no weight.
    """
    depth = [0] * c.n_qubits
    for g in c.gates:
        d = max(depth[q] for q in g.qubits) + (g.kind in kinds)
        for q in g.qubits:
            depth[q] = d
    return max(depth, default=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
