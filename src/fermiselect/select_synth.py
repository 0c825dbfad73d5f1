"""SELECT circuit assembly and the selection-register encoding.

Two register layouts address the Pauli strings produced by the transform:

* k2 mode, for strings with exactly two X/Y endpoints: |p>|q>|P1>|P2>
  with p < q, two bits of P1 choosing the signed letter at p (+X, -X,
  +Y, -Y) and one bit of P2 the letter at q.
* general mode, for up to k/2 endpoint pairs plus number (Z) factors:
  a sign bit, then per slot an address, a letter flag, an interaction
  flag and a number flag.  Inactive slots are all-zero; slot pairs
  (0,1), (2,3), ... carry strictly ordered endpoint pairs and any free
  slot may carry a number index (distinct from all endpoints).

Addresses are most-significant-bit first, and so is the packed selection
word: qubit 0 of the selection register is the top bit of the word.  The
word is packed from the string's (x, z, numbers) masks: the transform's
rows carry them (``PauliLCU.masks``), a bare string is split here once.

The synthesized circuits apply, for every valid selection basis state,
exactly the decoded Pauli string to the system register — phases
included.  Invalid selection states are not part of the contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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
from .pauli import PauliLCU, PauliString, _number_mask, _shorten, pauli_mul

__all__ = [
    "EncodingError",
    "DecodeError",
    "SelectionLayout",
    "slots_needed",
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

    @property
    def address_width(self) -> int:
        return (self.n - 1).bit_length()

    @property
    def width(self) -> int:
        L = self.address_width
        if self.mode == "k2":
            return 2 * L + 3
        return 1 + self.k * L + 3 * self.k

    # -- field packing (word bit for selection qubit i has weight
    # 2**(width-1-i), fields are MSB first) --------------------------------

    def _get(self, word: int, start: int, length: int) -> int:
        if length == 0:
            return 0
        return (word >> (self.width - start - length)) & ((1 << length) - 1)

    def _put(self, word: int, start: int, length: int, value: int) -> int:
        if length == 0:
            if value:
                raise ValueError("value does not fit a zero-width field")
            return word
        if not 0 <= value < (1 << length):
            raise ValueError(f"value {value} does not fit {length} bits")
        return word | (value << (self.width - start - length))

    def fields_k2(self, word: int) -> tuple[int, int, int, int]:
        L = self.address_width
        return (
            self._get(word, 0, L),
            self._get(word, L, L),
            self._get(word, 2 * L, 2),
            self._get(word, 2 * L + 2, 1),
        )

    def pack_k2(self, p: int, q: int, p1: int, p2: int) -> int:
        L = self.address_width
        word = self._put(0, 0, L, p)
        word = self._put(word, L, L, q)
        word = self._put(word, 2 * L, 2, p1)
        word = self._put(word, 2 * L + 2, 1, p2)
        return word

    # general-mode slot fields
    def slot_fields(self, word: int) -> tuple[int, list[int], list[int], list[int], list[int]]:
        L = self.address_width
        sgn = self._get(word, 0, 1)
        addr = [self._get(word, 1 + j * L, L) for j in range(self.k)]
        base = 1 + self.k * L
        p = [self._get(word, base + j, 1) for j in range(self.k)]
        i = [self._get(word, base + self.k + j, 1) for j in range(self.k)]
        num = [self._get(word, base + 2 * self.k + j, 1) for j in range(self.k)]
        return sgn, addr, p, i, num

    def pack_general(
        self,
        sgn: int,
        addr: list[int],
        p: list[int],
        i: list[int],
        num: list[int],
    ) -> int:
        L = self.address_width
        word = self._put(0, 0, 1, sgn)
        base = 1 + self.k * L
        for j in range(self.k):
            word = self._put(word, 1 + j * L, L, addr[j])
            word = self._put(word, base + j, 1, p[j])
            word = self._put(word, base + self.k + j, 1, i[j])
            word = self._put(word, base + 2 * self.k + j, 1, num[j])
        return word

    # -- qubit index ranges used by the synthesizers ------------------------

    def registers(self) -> dict[str, tuple[int, ...]]:
        L = self.address_width
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

    def valid_states(self) -> Iterator[int]:
        """Every selection word the SELECT contract covers, in order."""
        if self.mode == "k2":
            for p, q in itertools.combinations(range(self.n), 2):
                for p1 in range(4):
                    for p2 in range(2):
                        yield self.pack_k2(p, q, p1, p2)
            return
        half = self.k // 2
        slots = range(self.k)
        for active in itertools.chain.from_iterable(
            itertools.combinations(range(half), r) for r in range(half + 1)
        ):
            n_pairs = len(active)
            if 2 * n_pairs > self.n:
                continue
            for chosen in itertools.combinations(range(self.n), 2 * n_pairs):
                endpoints = set(chosen)
                pair_of = {
                    t: (chosen[2 * s], chosen[2 * s + 1]) for s, t in enumerate(active)
                }
                free = [j for j in slots if j // 2 not in active]
                others = [w for w in range(self.n) if w not in endpoints]
                for r in range(min(len(free), len(others)) + 1):
                    for numslots in itertools.combinations(free, r):
                        for values in itertools.permutations(others, r):
                            for pword in range(1 << (2 * n_pairs)):
                                for sgn in range(2):
                                    addr = [0] * self.k
                                    p = [0] * self.k
                                    i = [0] * self.k
                                    num = [0] * self.k
                                    for s, t in enumerate(active):
                                        u, v = pair_of[t]
                                        addr[2 * t], addr[2 * t + 1] = u, v
                                        i[2 * t] = i[2 * t + 1] = 1
                                        p[2 * t] = (pword >> (2 * s)) & 1
                                        p[2 * t + 1] = (pword >> (2 * s + 1)) & 1
                                    for slot, w in zip(numslots, values):
                                        addr[slot] = w
                                        num[slot] = 1
                                    yield self.pack_general(sgn, addr, p, i, num)


def _pair_string(n: int, u: int, v: int, letter_u: str, letter_v: str) -> PauliString:
    letters = (
        "I" * u + letter_u + "Z" * (v - u - 1) + letter_v + "I" * (n - v - 1)
    )
    return PauliString(letters, 0)


def decode_index(bits: int, layout: SelectionLayout) -> PauliString:
    """Pauli string a valid selection word selects; DecodeError otherwise."""
    if not 0 <= bits < (1 << layout.width):
        raise DecodeError(f"word {bits} does not fit {layout.width} bits")
    n = layout.n
    if layout.mode == "k2":
        p, q, p1, p2 = layout.fields_k2(bits)
        if not p < q < n:
            raise DecodeError(f"addresses must satisfy p < q < n, got {p}, {q}")
        letter_p = "X" if p1 < 2 else "Y"
        letter_q = "X" if p2 == 0 else "Y"
        phase = 2 if p1 % 2 else 0
        return PauliString(_pair_string(n, p, q, letter_p, letter_q).letters, phase)

    sgn, addr, pfl, ifl, nfl = layout.slot_fields(bits)
    result = PauliString("I" * n, 2 * sgn)
    prev_end = -1
    endpoints: set[int] = set()
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
        endpoints.update((u, v))
        result = pauli_mul(
            result,
            _pair_string(n, u, v, "Y" if pfl[a] else "X", "Y" if pfl[b] else "X"),
        )
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
        if w in endpoints or w in seen_numbers:
            raise DecodeError(f"number address {w} collides")
        seen_numbers.add(w)
        z = "I" * w + "Z" + "I" * (n - w - 1)
        result = pauli_mul(result, PauliString(z, 0))
    return result


# letters -> "0"/"1" digits of the X/Y (x) and Z/Y (z) bitmasks
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


def _pairs_and_numbers(letters: str) -> tuple[int, int, int]:
    """(x, z, numbers) bitmasks of a bare Pauli pattern, bit j for qubit j.

    x marks the X/Y letters (the pair endpoints) and z the Z/Y letters."""
    rev = letters[::-1]
    x = int(rev.translate(_X_DIGITS) or "0", 2)
    z = int(rev.translate(_Z_DIGITS) or "0", 2)
    if x.bit_count() % 2:
        raise EncodingError("odd number of X/Y letters cannot form pairs")
    return x, z, _number_mask(x, z)


def _pack(entries, masks, layout: SelectionLayout) -> list[tuple[int, float, PauliString]]:
    """(word, alpha, string) rows from each string's (x, z, numbers) masks.

    A k2 word is p, q, P1, P2.  A general word is, MSB first, the sign bit,
    k addresses of L bits, then k letter, k interaction and k number flags:
    slot j's address sits at bit (k-1-j)*L + 3k and its flags at bits 3k-1-j,
    2k-1-j and k-1-j.  Endpoints fill slots 0.. in order, numbers the next."""
    k, L, top, k2 = layout.k, layout.address_width, layout.width - 1, layout.mode == "k2"
    rows = []
    for (alpha, ps), (x, z, numbers) in zip(entries, masks):
        n_ends, n_numbers, sign, j = x.bit_count(), numbers.bit_count(), ps.phase >> 1, 0
        if k2:
            if n_ends != 2 or n_numbers:
                raise EncodingError("the two-endpoint layout holds exactly one interaction "
                                    "pair and no number factors")
            u, v = (x & -x).bit_length() - 1, x.bit_length() - 1
            word = u << (L + 3) | v << 3 | ((z >> u) & 1) << 2 | sign << 1 | ((z >> v) & 1)
        elif n_ends + n_numbers > k:
            raise EncodingError(f"pattern {_shorten(ps.letters)} needs {n_ends} endpoint and "
                                f"{n_numbers} number slots, but k={k}")
        else:
            word = sign << top
            while x:
                bit = x & -x
                word |= (bit.bit_length() - 1) << ((k - 1 - j) * L + 3 * k) | 1 << (2 * k - 1 - j)
                word |= 1 << (3 * k - 1 - j) if z & bit else 0
                x, j = x ^ bit, j + 1
            while numbers:
                bit = numbers & -numbers
                word |= (bit.bit_length() - 1) << ((k - 1 - j) * L + 3 * k) | 1 << (k - 1 - j)
                numbers, j = numbers ^ bit, j + 1
        rows.append((word, alpha, ps))
    return rows


def slots_needed(pattern: PauliString) -> int:
    """General-layout slots the pattern occupies (two per pair, one per Z)."""
    x, _, numbers = _pairs_and_numbers(pattern.letters)
    return x.bit_count() + numbers.bit_count()


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
    return _pack(((0.0, pattern),), (_pairs_and_numbers(pattern.letters),), layout)[0][0]


def encode_lcu(lcu: PauliLCU, layout: SelectionLayout) -> list[tuple[int, float, PauliString]]:
    """(selection word, alpha, string) rows for a transform's LCU table."""
    if lcu.n_qubits != layout.n:
        raise EncodingError(f"LCU has {lcu.n_qubits} qubits, layout expects {layout.n}")
    n, low = layout.n, (1 << layout.n) - 1
    masks = ((m & low, m >> n & low, m >> 2 * n) for m in lcu.masks) if lcu.masks else (
        _pairs_and_numbers(ps.letters) for _, ps in lcu.entries)
    return _pack(lcu.entries, masks, layout)


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
    c.add("Z", 0, control_extension_point=True)
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
