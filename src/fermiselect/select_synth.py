"""SELECT circuit assembly and the selection-register encoding.

Two register layouts address the Pauli strings produced by the transform:

* k2 mode, for strings with exactly two X/Y endpoints: addresses p < q,
  P1 choosing the signed letter at p (+X, -X, +Y, -Y) and P2 the letter
  at q.
* general mode, for up to k/2 endpoint pairs plus number (Z) factors:
  a sign bit and, per slot, an address, a letter flag, an interaction
  flag and a number flag.  Inactive slots are all-zero; slot pairs
  (0,1), (2,3), ... carry strictly ordered endpoint pairs and any free
  slot may carry a number index (distinct from all endpoints).

``SelectionLayout.registers()`` places every field in the word; the
circuits, ``fields``/``pack``, the encoder and the decoder all read it.
The encoder packs every row of a table at once: ``pauli._split`` of the
letter matrix gives each row's endpoints and number factors, and the
words are written as a (rows, width) bit matrix, field by field from
``registers()``.  A bare string is encoded as a one-row table.

The synthesized circuits apply, for every valid selection basis state,
exactly the decoded Pauli string to the system register — phases
included.  Invalid selection states are not part of the contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .circuit_ir import SDG_TWO_CONTROLS, Circuit, add_global_controls, conjugated
from .gadgets import (
    _check_variant,
    _inject_into,
    _letter_inject_into,
    ladder_tree,
    letter_select,
    swap_up,
    swap_up_star,
)
from .pauli import PauliLCU, PauliString, _Columns, _Rows, _shorten

__all__ = [
    "EncodingError",
    "DecodeError",
    "SelectionLayout",
    "encode_term",
    "encode_lcu",
    "decode_index",
    "synth_select_k2",
    "synth_select_general",
    "controlled_select",
]


class EncodingError(ValueError):
    """The Pauli pattern does not fit the selection layout."""


class DecodeError(ValueError):
    """The selection word is not a valid state of the layout."""


@dataclass(frozen=True)
class SelectionLayout:
    """Geometry of the selection register for n system qubits."""

    n: int
    k: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("k2", "general"):
            raise ValueError(f"mode must be 'k2' or 'general', got {self.mode!r}")
        if self.mode == "k2":
            if self.k != 2:
                raise ValueError("k2 mode requires k = 2")
            if self.n < 2:
                raise ValueError("k2 mode requires n >= 2")
        else:
            if self.k < 2 or self.k % 2:
                raise ValueError(f"k must be even and >= 2, got {self.k}")
            if self.n < 1:
                raise ValueError("need at least one system qubit")

    @cached_property
    def width(self) -> int:
        """Bits in the selection word: the registers tile it."""
        return sum(map(len, self.registers().values()))

    def registers(self) -> dict[str, tuple[int, ...]]:
        """Selection qubits of each field, in word order.

        The one statement of the word format.  Qubit i carries word bit
        ``width-1-i`` (qubit 0 is the top bit), each field's value is
        read most significant bit first, and the SELECT circuits, the
        encoder and the decoder all place fields from this table.
        """
        L = (self.n - 1).bit_length()  # address bits
        if self.mode == "k2":
            return {
                "p": tuple(range(L)),
                "q": tuple(range(L, 2 * L)),
                "P1": (2 * L, 2 * L + 1),
                "P2": (2 * L + 2,),
            }
        regs: dict[str, tuple[int, ...]] = {"sgn": (0,)}
        for j in range(self.k):
            regs[f"addr{j}"] = tuple(range(1 + j * L, 1 + (j + 1) * L))
        base = 1 + self.k * L
        for r, flag in enumerate("Pin"):  # letter, interaction and number flags
            for j in range(self.k):
                regs[f"{flag}{j}"] = (base + r * self.k + j,)
        return regs

    @cached_property
    def _table(self) -> dict[str, tuple[int, int]]:
        """(shift, bits) of each field in the word; a zero-width field reads 0."""
        return {name: (self.width - 1 - qs[-1] if qs else 0, len(qs))
                for name, qs in self.registers().items()}

    def fields(self, word: int) -> dict[str, int]:
        """The value of every field of ``word``, by register name."""
        return {name: word >> shift & (1 << bits) - 1 for name, (shift, bits) in self._table.items()}

    def pack(self, **values: int) -> int:
        """The word holding ``values`` by field name, other fields zero."""
        word = 0
        for name, value in values.items():
            if name not in self._table:
                raise ValueError(f"the {self.mode} layout has no field {name!r}")
            shift, bits = self._table[name]
            if not 0 <= value < 1 << bits:
                raise ValueError(f"field {name}: value {value} does not fit {bits} bits")
            word |= value << shift
        return word

    def valid_states(self) -> Iterator[int]:
        """Every selection word the SELECT contract covers, in order."""
        if self.mode == "k2":
            for p, q in itertools.combinations(range(self.n), 2):
                for p1 in range(4):
                    for p2 in range(2):
                        yield self.pack(p=p, q=q, P1=p1, P2=p2)
            return
        half = self.k // 2
        sign = self.pack(sgn=1)
        for active in itertools.chain.from_iterable(
            itertools.combinations(range(half), r) for r in range(half + 1)
        ):
            ends = [j for t in active for j in (2 * t, 2 * t + 1)]  # endpoint slots
            if len(ends) > self.n:
                continue
            free = [j for j in range(self.k) if j // 2 not in active]
            letters = [self.pack(**{f"P{j}": pword >> s & 1 for s, j in enumerate(ends)})
                       for pword in range(1 << len(ends))]
            for chosen in itertools.combinations(range(self.n), len(ends)):
                pairs = {**{f"addr{j}": u for j, u in zip(ends, chosen)}, **{f"i{j}": 1 for j in ends}}
                others = [w for w in range(self.n) if w not in chosen]
                for r in range(min(len(free), len(others)) + 1):
                    for numslots in itertools.combinations(free, r):
                        for values in itertools.permutations(others, r):
                            base = self.pack(**pairs, **{f"addr{j}": w for j, w in zip(numslots, values)},
                                             **{f"n{j}": 1 for j in numslots})
                            for letter in letters:
                                yield base | letter
                                yield base | letter | sign


def decode_index(bits: int, layout: SelectionLayout) -> PauliString:
    """Pauli string a valid selection word selects; DecodeError otherwise.

    The letters are written in place: a pair puts its letters on u < v and
    Z strictly between them, and a number factor flips its qubit I <-> Z.
    The phase is the sign bit alone (k2 mode: P1's low bit).  No product of
    the factors adds one: active pairs are disjoint and strictly ordered,
    so no two pairs share a qubit, and a number avoids every endpoint, so
    it meets only an I or a chain's Z.
    """
    if not 0 <= bits < (1 << layout.width):
        raise DecodeError(f"word {bits} does not fit {layout.width} bits")
    n, f = layout.n, layout.fields(bits)
    letters = bytearray(b"I" * n)
    if layout.mode == "k2":
        p, q, p1 = f["p"], f["q"], f["P1"]
        if not p < q < n:
            raise DecodeError(f"addresses must satisfy p < q < n, got {p}, {q}")
        # P1 is the letter at p (X 0, Y 1) over the sign bit; P2 the letter at q
        letters[p], letters[p + 1 : q], letters[q] = b"XY"[p1 >> 1], b"Z" * (q - p - 1), b"XY"[f["P2"]]
        return PauliString(letters.decode(), 2 * (p1 & 1))

    addr, pfl, ifl, nfl = ([f[f"{name}{j}"] for j in range(layout.k)] for name in ("addr", "P", "i", "n"))
    prev_end = -1
    for t in range(layout.k // 2):
        a, b = 2 * t, 2 * t + 1
        if ifl[a] != ifl[b]:
            raise DecodeError(f"interaction flags of slots {a},{b} disagree")
        if not ifl[a]:
            continue
        if nfl[a] or nfl[b]:
            raise DecodeError("a slot cannot be both endpoint and number")
        u, v = addr[a], addr[b]
        if not u < v < n:
            raise DecodeError(f"pair addresses must be ordered, got {u}, {v}")
        if u <= prev_end:
            raise DecodeError("active pairs must be strictly ordered across slots")
        prev_end = v
        letters[u], letters[u + 1 : v], letters[v] = b"XY"[pfl[a]], b"Z" * (v - u - 1), b"XY"[pfl[b]]
    seen_numbers: set[int] = set()
    for j in range(layout.k):
        if ifl[j]:
            continue
        if not nfl[j]:
            if addr[j] or pfl[j]:
                raise DecodeError(f"inactive slot {j} must be all zero")
            continue
        if pfl[j]:
            raise DecodeError(f"number slot {j} must have a zero letter flag")
        w = addr[j]
        if w >= n:
            raise DecodeError(f"number address {w} out of range")
        if letters[w] in b"XY" or w in seen_numbers:  # only endpoints hold X or Y
            raise DecodeError(f"number address {w} collides")
        seen_numbers.add(w)
        letters[w] ^= ord("I") ^ ord("Z")  # I <-> Z
    return PauliString(letters.decode(), 2 * f["sgn"])


def _word_bits(table: _Columns, layout: SelectionLayout) -> np.ndarray:
    """Selection words of the table's rows as a (rows, width) 0/1 matrix.

    Column i is selection qubit i, the word's top bit first; fields are
    placed by ``layout.registers()``.  In a general word the endpoints
    fill slots 0.. in qubit order and the numbers the next ones."""
    x, z, numbers = table.split
    ends, n_numbers = x.sum(axis=1), numbers.sum(axis=1)
    if (ends % 2).any():
        raise EncodingError("odd number of X/Y letters cannot form pairs")
    k, regs = layout.k, {name: np.array(qs, dtype=np.intp) for name, qs in layout.registers().items()}
    bits = np.zeros((len(ends), layout.width), dtype=np.uint8)

    def put(rows: np.ndarray, field: np.ndarray, slot, values: np.ndarray) -> None:
        # each row's value into the columns field[slot], most significant bit first
        for b in range(field.shape[1]):
            bits[rows, field[slot, b]] = values >> field.shape[1] - 1 - b & 1

    rows, at = np.nonzero(x)
    if layout.mode == "k2":
        if ((ends != 2) | (n_numbers > 0)).any():
            raise EncodingError("the two-endpoint layout holds exactly one interaction "
                                "pair and no number factors")
        rows, u, v = rows[::2], at[::2], at[1::2]
        for name, value in (("p", u), ("q", v), ("P1", 2 * z[rows, u] + table.negative), ("P2", z[rows, v])):
            put(rows, regs[name][None], 0, value.astype(np.intp))
        return bits
    over = ends + n_numbers > k
    if over.any():
        i = over.argmax()
        raise EncodingError(f"pattern {_shorten(table.letters[i].tobytes().decode())} needs {ends[i]} "
                            f"endpoint and {n_numbers[i]} number slots, but k={k}")
    addr = np.array([regs[f"addr{j}"] for j in range(k)]).reshape(k, -1)  # (slot, bit) -> column
    letter, pair, number = (np.array([regs[f"{flag}{j}"][0] for j in range(k)]) for flag in "Pin")
    bits[:, regs["sgn"][0]] = table.negative
    slot = np.arange(len(rows)) - (np.cumsum(ends) - ends)[rows]
    put(rows, addr, slot, at)
    bits[rows, pair[slot]] = 1
    bits[rows, letter[slot]] = z[rows, at]
    rows, at = np.nonzero(numbers)
    slot = np.arange(len(rows)) - (np.cumsum(n_numbers) - n_numbers)[rows] + ends[rows]
    put(rows, addr, slot, at)
    bits[rows, number[slot]] = 1
    return bits


class _Words(_Rows):
    """``encode_lcu``'s (word, alpha, string) rows, built when read from
    ``bits``, the words as a (rows, width) 0/1 matrix."""

    def __init__(self, bits: np.ndarray, entries: Sequence[tuple[float, PauliString]]) -> None:
        super().__init__(len(bits), lambda i: (int((bits[i] | 48).tobytes(), 2), *entries[i]))
        self.bits = bits


def encode_term(pattern: PauliString, layout: SelectionLayout) -> int:
    """Selection word whose decode is ``pattern``; EncodingError if none.

    The pattern must carry a real sign (phase exponent 0 or 2), X/Y
    letters in pairs, Z only between or outside pairs, and fit the
    layout's slot budget.
    """
    if pattern.n_qubits != layout.n:
        raise EncodingError(f"pattern has {pattern.n_qubits} qubits, layout expects {layout.n}")
    if pattern.phase not in (0, 2):
        raise EncodingError("imaginary prefactor cannot be encoded")
    return encode_lcu(PauliLCU(layout.n, ((1.0, pattern),)), layout)[0][0]


def encode_lcu(lcu: PauliLCU, layout: SelectionLayout) -> Sequence[tuple[int, float, PauliString]]:
    """(selection word, alpha, string) rows for a transform's LCU table.

    The rows are a read-only view of the packed words (``bits``): each
    row is built when it is read."""
    if lcu.n_qubits != layout.n:
        raise EncodingError(f"LCU has {lcu.n_qubits} qubits, layout expects {layout.n}")
    return _Words(_word_bits(lcu._columns, layout), lcu.entries)


# ---------------------------------------------------------------------------
# Circuit assembly
# ---------------------------------------------------------------------------


def _phase_block(c: Circuit, qubit: int, group: int) -> None:
    """Four Cliffords realizing a global -i, marked as one extension unit."""
    for kind in ("X", "Sdg", "X", "Sdg"):
        c.add(kind, qubit, control_extension_point=True, extension_group=group)


def _select_host(layout: SelectionLayout) -> tuple[Circuit, dict[str, tuple[int, ...]], list[int]]:
    """Empty SELECT circuit, its selection registers and its system qubits."""
    regs = layout.registers()
    system = list(range(layout.width, layout.width + layout.n))
    labels = {**regs, "system": tuple(system)}
    return Circuit(layout.width + layout.n, [], labels), regs, system


def synth_select_k2(n: int, variant: str = "star") -> Circuit:
    """SELECT for two-endpoint strings: |p>|q>|P1>|P2> ⊗ system.

    Applies (P1)_p Z...Z (P2)_q with the sign carried by P1, for every
    p < q.  Width is 2*ceil(log2 n) + 3 + n.  Written in place around one
    swap network by the bodies of the injector gadgets.
    """
    star = _check_variant(variant)
    c, regs, system = _select_host(SelectionLayout(n, 2, "k2"))
    p, q = list(regs["p"]) + system, list(regs["q"]) + system
    net = swap_up_star(n) if star else swap_up(n)
    with conjugated(c, ladder_tree(n), system):
        _inject_into(c, net, p, "Z", system[0])
        _inject_into(c, net, q, "Z", system[0])
    _phase_block(c, 0, group=0)
    _letter_inject_into(c, net, p, regs["P1"], system, star)
    _letter_inject_into(c, net, q, regs["P2"], system, star)
    return c


def synth_select_general(n: int, k: int, variant: str = "star") -> Circuit:
    """SELECT for up to k/2 interaction pairs plus number factors.

    Layout per the general selection encoding; width is
    1 + k*ceil(log2 n) + 3k + n.  Interaction pairs occupy slot pairs
    (0,1), (2,3), ...; the first slot of each active pair contributes a
    -i that cancels the pair's ladder-endpoint i.
    """
    star = _check_variant(variant)
    if n < 2:
        raise ValueError("need at least two system qubits")
    c, regs, system = _select_host(SelectionLayout(n, k, "general"))
    pflags = [regs[f"P{j}"][0] for j in range(k)]
    iflags = [regs[f"i{j}"][0] for j in range(k)]
    nflags = [regs[f"n{j}"][0] for j in range(k)]
    c.add("Z", regs["sgn"][0], control_extension_point=True)
    for t in range(k // 2):
        c.add("Sdg", iflags[2 * t], control_extension_point=True)

    net = swap_up_star(n) if star else swap_up(n)
    net_maps = [list(regs[f"addr{j}"]) + system for j in range(k)]

    def flagged_z(flags: list[int]) -> None:
        # swap-conjugated CZ(flag j, front system qubit) for every slot j
        for j in range(k):
            _inject_into(c, net, net_maps[j], "CZ", flags[j], system[0])

    with conjugated(c, ladder_tree(n), system):
        flagged_z(iflags)
    for t in range(k // 2):
        a, b = 2 * t, 2 * t + 1
        letter_select(c, net, net_maps[a], (iflags[a], pflags[a]), system, "Y", star)
        # the letter-sign phase of the first endpoint: -1 when its letter
        # flag is set, only for an active pair
        c.add("CZ", iflags[a], pflags[a], control_extension_point=True)
        letter_select(c, net, net_maps[b], (iflags[b], pflags[b]), system, "X", star)
    flagged_z(nflags)
    return c


def controlled_select(
    n: int, k: int, variant: str = "star", num_controls: int = 0
) -> Circuit:
    """A SELECT circuit with optional global controls prepended.

    Two controls need k = 2: the general layout's flag phases are S†
    extension points, which two controls cannot reach exactly, so that
    case raises before anything is synthesized.
    """
    if k != 2 and num_controls == 2:
        raise ValueError(SDG_TWO_CONTROLS)
    c = synth_select_k2(n, variant) if k == 2 else synth_select_general(n, k, variant)
    return add_global_controls(c, num_controls) if num_controls else c
