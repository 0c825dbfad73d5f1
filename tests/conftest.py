"""Shared dense references built independently of the package internals."""

import cmath

import numpy as np
import pytest

from fermiselect import simulator
from fermiselect.pauli import FermionTerm, Lower, Number, Raise, _validate_term

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


# --- the per-term Jordan-Wigner expansion, one dict per term --------------------
#
# Strings are int keys ``x | z << n``: bit p of x marks an X/Y on qubit p,
# bit p of z a Z/Y.  This is the transform's earlier route, kept as the
# reference the columnar expansion in ``pauli`` must equal exactly.

_I_POWERS = tuple(1j ** k for k in range(4))
_Y_COEFF = {Raise: -0.5j, Lower: 0.5j}
_PAIR_UNITS = {(f, g): (0.5 * 0.5 * -1j, 0.5 * yg * -1j, yf * 0.5 * 1j, yf * yg * 1j)
               for f, yf in _Y_COEFF.items() for g, yg in _Y_COEFF.items()}


def mask_mul(acc, image, n):
    """Product acc · image of two sums of strings, like terms merged.

    ``acc`` maps keys to coefficients; ``image`` holds (x, z, c) rows.
    With a string read as i^|x&z| X^x Z^z, the product of (x1, z1) and
    (x2, z2) is (x1^x2, z1^z2) times i to the power
    |x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3| (Aaronson-Gottesman).
    """
    low = (1 << n) - 1
    out = {}
    for key, ca in acc.items():
        xa, za = key & low, key >> n
        ya = (xa & za).bit_count()
        for xb, zb, cb in image:
            x, z = xa ^ xb, za ^ zb
            k = ya + (xb & zb).bit_count() + 2 * (za & xb).bit_count() - (x & z).bit_count()
            key_out = x | z << n
            out[key_out] = out.get(key_out, 0.0) + ca * cb * _I_POWERS[k & 3]
    return out


def term_expansion(term, n):
    """String coefficients of the term, without its ``+hc`` part, as a dict
    in first-occurrence order.

    Number factors, a ladder not followed by a ladder, and a pair whose
    span an earlier factor touched go through ``mask_mul`` one factor at a
    time; a pair on untouched qubits ORs its four closed-form strings in.
    """
    _validate_term(term, n)
    acc = {0: complex(term.coefficient)}
    support = 0  # every qubit a string of acc may touch
    factors, i = term.factors, 0
    while i < len(factors):
        f, g = factors[i], factors[i + 1] if i + 1 < len(factors) else None
        bit = 1 << f.orbital
        if isinstance(f, Number):
            acc = mask_mul(acc, ((0, 0, 0.5), (0, bit, -0.5)), n)
            support |= bit
        elif g is None or isinstance(g, Number) or support & ((2 << g.orbital) - bit):
            image = ((bit, bit - 1, 0.5), (bit, (bit << 1) - 1, _Y_COEFF[type(f)]))
            acc = mask_mul(acc, image, n)
            support |= (bit << 1) - 1
        else:  # a pair on qubits no string of acc touches: OR the keys
            top = 1 << g.orbital
            key, zp, zq = bit | top | ((top - 1) ^ (bit - 1)) << n, bit << n, top << n
            pair = tuple(zip((key, key ^ zq, key ^ zp, key ^ zp ^ zq), _PAIR_UNITS[type(f), type(g)]))
            acc = {ka | kb: ca * u for ka, ca in acc.items() for kb, u in pair}
            support |= (top << 1) - bit
            i += 1
        i += 1
    return acc


# --- the per-line Hamiltonian reader, one FermionTerm per line ------------------
#
# The CLI's earlier reader, kept as the reference the columnar reader
# ``cli.parse_hamiltonian`` must equal exactly: the same terms, and the same
# error at the same line.

_FACTOR_KINDS = {"adag": Raise, "a": Lower, "n": Number}


def reference_parse(text):
    """Terms from Hamiltonian text, one line at a time; raises ValueError
    with line numbers."""
    terms, made = [], {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected '<re> <im> : <factors>'")
        head, tail = line.split(":", 1)
        parts = head.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: coefficient needs two floats, got {head!r}")
        try:
            coefficient = complex(float(parts[0]), float(parts[1]))
            if not cmath.isfinite(coefficient):
                raise ValueError(f"{head.strip()!r} is not finite")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad coefficient: {exc}") from None
        tokens = tail.split()
        include_hc = False
        if tokens and tokens[-1] == "+hc":
            include_hc = True
            tokens = tokens[:-1]
        if not tokens or len(tokens) % 2:
            raise ValueError(f"line {lineno}: factors come as '<kind> <orbital>' pairs")
        factors = []
        for token in zip(tokens[::2], tokens[1::2]):
            factor = made.get(token)
            if factor is None:
                kind, orb = token
                if kind not in _FACTOR_KINDS:
                    raise ValueError(f"line {lineno}: unknown factor kind {kind!r}")
                try:
                    factor = made[token] = _FACTOR_KINDS[kind](int(orb))
                except ValueError:
                    raise ValueError(f"line {lineno}: bad orbital index {orb!r}") from None
            factors.append(factor)
        terms.append(FermionTerm(coefficient, tuple(factors), include_hc))
    return terms


# --- the gather player of the basis walk, one table lookup per plan entry ---------
#
# The walk's earlier player, kept as the reference the compiled programs of
# ``simulator._program`` must equal bit for bit: each plan entry reads its
# permutation and phase table at the index its qubits' bits spell.


def reference_run(c, words, states):
    """What ``simulator._run`` returns for c on every (word, ``states`` column) pair,
    each gate gathered from the table its program was compiled from."""
    system, sel = simulator._selection_qubits(c)
    count = states.shape[1]
    bits = np.empty((c.n_qubits, len(words) * count), dtype=np.uint8)
    for i, word in enumerate(words):
        bits[sel, i * count : (i + 1) * count] = [[word >> (len(sel) - 1 - j) & 1] for j in range(len(sel))]
        bits[list(system), i * count : (i + 1) * count] = states
    start = bits[sel]
    turns = np.zeros(bits.shape[1], dtype=np.uint8)
    for qubits, play in simulator._plan(c):
        image, phase, moved = play.table
        index = bits[qubits[0]]
        for q in qubits[1:]:
            index = index << 1 | bits[q]
        turns += phase.take(index)
        out = image.take(index) if moved else None
        for i in moved:
            bits[qubits[i]] = out >> (len(qubits) - 1 - i) & 1
    return bits[list(system)], turns & 7, (bits[sel] != start).any(axis=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
