"""SELECT circuit assembly and the selection-register encoding.

A selection word names one Pauli string of the transform's table by a sign
bit and k slots, each an address with a letter flag (X 0, Y 1), a pair
flag and a number flag.  Slot pairs (0,1), (2,3), ... hold strictly
ordered endpoint pairs; any other slot holds a number (Z) index apart from
every endpoint, or is all zero.  ``SelectionLayout.registers()`` places
every field in the word, and the layout reads it into one per-slot table
that the SELECT circuits, the encoder, the decoder and the enumerator all
use.  The k2 layout is the case of one pair that is always active: p and
q are its two slots, it has no pair or number flags, and the sign is P1's
low bit.  The encoder packs every row of a table at once, from
``pauli._split`` of its letter matrix, as a (rows, width) bit matrix; a
bare string is a one-row table.

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
    "select_layout",
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
        ``width-1-i`` (qubit 0 is the top bit), each field's value is read
        most significant bit first, ``fields``/``pack`` read it by name and
        every other reader through the slot table built from it.
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

    @cached_property
    def _slots(self) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
        """The sign's shift and, per slot, (address shift, address mask, letter, pair
        flag, number flag shifts), from ``_table``; a k2 slot's missing flags are the
        bits above the word, ``width`` (read as 1) and ``width + 1`` (read as 0)."""
        t, above = self._table, self.width
        if self.mode == "k2":
            sign, (p2, _) = t["P1"][0], t["P2"]
            fields = [(t["p"], sign + 1, above, above + 1), (t["q"], p2, above, above + 1)]
        else:
            sign = t["sgn"][0]
            fields = [(t[f"addr{j}"], t[f"P{j}"][0], t[f"i{j}"][0], t[f"n{j}"][0]) for j in range(self.k)]
        return sign, tuple((shift, (1 << bits) - 1, *flags) for (shift, bits), *flags in fields)

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
        sign, slots = self._slots
        addr, _, letter, pair, number = zip(*slots)
        half, paired = self.k // 2, pair[0] < self.width  # a k2 word is always one pair
        for active in itertools.chain.from_iterable(
            itertools.combinations(range(half), r) for r in range(0 if paired else half, half + 1)
        ):
            ends = [j for t in active for j in (2 * t, 2 * t + 1)]  # endpoint slots
            free = [j for j in range(self.k) if j // 2 not in active]
            # the sign and letter bits, fastest first: a general word flips its sign, then
            # the letters in slot order; a k2 word counts up in them
            flips = sorted([sign, *(letter[j] for j in ends)], reverse=paired)
            options = [sum((c >> i & 1) << s for i, s in enumerate(flips)) for c in range(1 << len(flips))]
            flags = sum(1 << pair[j] for j in ends) & (1 << self.width) - 1
            for chosen in itertools.combinations(range(self.n), len(ends)):
                pairs = flags | sum(u << addr[j] for j, u in zip(ends, chosen))
                others = [w for w in range(self.n) if w not in chosen]
                for r in range(min(len(free), len(others)) + 1):
                    for numslots in itertools.combinations(free, r):
                        marked = pairs | sum(1 << number[j] for j in numslots)
                        for values in itertools.permutations(others, r):
                            base = marked | sum(w << addr[j] for j, w in zip(numslots, values))
                            for option in options:
                                yield base | option


def select_layout(n: int, k: int) -> SelectionLayout:
    """The layout of the SELECT for n orbitals and k slots: k2 at k = 2, else general."""
    return SelectionLayout(n, k, "k2" if k == 2 else "general")


def decode_index(bits: int, layout: SelectionLayout) -> PauliString:
    """Pauli string a valid selection word selects; DecodeError otherwise.

    Each slot is read into one tuple through the layout's slot table (a k2
    slot always reads as an endpoint).  A pair puts its letters on u < v
    and Z strictly between them, and a number flips its qubit I <-> Z; the
    phase is the sign bit alone.  No product of the factors adds one: the
    active pairs are disjoint and strictly ordered, and a number avoids
    every endpoint, so it meets only an I or a chain's Z.
    """
    if not 0 <= bits < (1 << layout.width):
        raise DecodeError(f"word {bits} does not fit {layout.width} bits")
    n, (sign, slots) = layout.n, layout._slots
    word = bits | 1 << layout.width  # a missing pair flag reads 1, a missing number flag 0
    read = [(word >> s & m, word >> p & 1, word >> i & 1, word >> z & 1) for s, m, p, i, z in slots]
    letters = bytearray(b"I" * n)
    prev_end = -1
    for a in range(0, len(read), 2):
        (u, pu, iu, nu), (v, pv, iv, nv) = read[a], read[a + 1]
        if iu != iv:
            raise DecodeError(f"interaction flags of slots {a},{a + 1} disagree")
        if not iu:
            continue
        if nu or nv:
            raise DecodeError("a slot cannot be both endpoint and number")
        if not u < v < n:
            raise DecodeError(f"pair addresses must be ordered, got {u}, {v}")
        if u <= prev_end:
            raise DecodeError("active pairs must be strictly ordered across slots")
        prev_end = v
        letters[u], letters[u + 1 : v], letters[v] = b"XY"[pu], b"Z" * (v - u - 1), b"XY"[pv]
    seen_numbers: set[int] = set()
    for j, (w, letter, pair, number) in enumerate(read):
        if pair:
            continue
        if not number:
            if w or letter:
                raise DecodeError(f"inactive slot {j} must be all zero")
            continue
        if letter:
            raise DecodeError(f"number slot {j} must have a zero letter flag")
        if w >= n:
            raise DecodeError(f"number address {w} out of range")
        if letters[w] in b"XY" or w in seen_numbers:  # only endpoints hold X or Y
            raise DecodeError(f"number address {w} collides")
        seen_numbers.add(w)
        letters[w] ^= ord("I") ^ ord("Z")  # I <-> Z
    return PauliString(letters.decode(), 2 * (word >> sign & 1))


def _word_bits(table: _Columns, layout: SelectionLayout) -> np.ndarray:
    """Selection words of the table's rows as a (rows, width) 0/1 matrix.

    Column i is selection qubit i, the word's top bit first.  Through the
    slot table, the endpoints fill slots 0.. in qubit order and the numbers
    the next ones; without pair flags (k2) the endpoints must fill every
    slot, and without number flags there may be no numbers."""
    x, z, numbers = table.split
    ends, n_numbers = x.sum(axis=1), numbers.sum(axis=1)
    if (ends % 2).any():
        raise EncodingError("odd number of X/Y letters cannot form pairs")
    k, top, (sign, slots) = layout.k, layout.width - 1, layout._slots
    addr, mask, letter, pair, number = (np.array(f) for f in zip(*slots))
    paired = bool(pair[0] <= top)  # without pair flags (k2) every slot is an endpoint
    bad = (ends + n_numbers > k) | (ends != k) & (not paired) | (n_numbers > 0) & (number[0] > top)
    if bad.any():
        i = bad.argmax()
        name = _shorten(table.letters[i].tobytes().decode())
        raise EncodingError(f"pattern {name} needs {ends[i]} endpoint and {n_numbers[i]} number slots, "
                            f"but k={k}{'' if paired else ', all endpoints'}")
    bits = np.zeros((len(ends), layout.width), dtype=np.uint8)

    def put(rows: np.ndarray, shifts: np.ndarray, values: np.ndarray, mask: int = 1) -> None:
        # bit b of each row's value, for each bit of the field's mask, into the column of word bit shifts + b
        for b in range(int(mask).bit_length()):
            bits[rows, top - shifts - b] = values >> b & 1

    bits[:, top - sign] = table.negative
    rows, at = np.nonzero(x)
    slot = np.arange(len(rows)) - (np.cumsum(ends) - ends)[rows]
    put(rows, addr[slot], at, mask[0])
    put(rows, letter[slot], z[rows, at])
    if paired:
        put(rows, pair[slot], 1)
    rows, at = np.nonzero(numbers)
    slot = np.arange(len(rows)) - (np.cumsum(n_numbers) - n_numbers)[rows] + ends[rows]
    put(rows, addr[slot], at, mask[0])
    put(rows, number[slot], 1)
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
    layout = SelectionLayout(n, k, "general")
    c, _, system = _select_host(layout)
    (sign, slots), top = layout._slots, layout.width - 1  # qubit top - s carries word bit s
    pflags, iflags, nflags = ([top - slot[f] for slot in slots] for f in (2, 3, 4))
    c.add("Z", top - sign, control_extension_point=True)
    for t in range(k // 2):
        c.add("Sdg", iflags[2 * t], control_extension_point=True)

    net = swap_up_star(n) if star else swap_up(n)
    net_maps = [list(range(top + 1 - s - m.bit_length(), top + 1 - s)) + system for s, m, *_ in slots]

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
    k2 = select_layout(n, k).mode == "k2"
    if not k2 and num_controls == 2:
        raise ValueError(SDG_TWO_CONTROLS)
    c = synth_select_k2(n, variant) if k2 else synth_select_general(n, k, variant)
    return add_global_controls(c, num_controls) if num_controls else c
