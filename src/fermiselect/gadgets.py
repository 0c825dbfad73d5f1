"""Circuit gadgets: parity ladders, CNOT fanout, swap networks, injectors.

Register conventions: address registers are most-significant-bit first
(qubit 0 of the register is the highest address bit).  Gadgets that
combine an address with data lay qubits out as [address | flags | data]
and label those registers.

The swap network ("swap-up") conditionally permutes data qubit x to
position 0 for address value x.  The plain variant uses exact controlled
swaps arranged in a toggle pattern: paired swap units borrow each other's
qubits as controls so the address bit only ever drives a log-depth CNOT
fanout, giving 2(n-1) controlled swaps per network for n >= 3.  The star
variant instead uses a cheaper controlled swap that is wrong by a -1
phase on one basis state; conjugation cancels the phases, so every
injector built from it is still exact.

Every injector is one move, a payload conjugated by a network
(``circuit_ir.conjugated``), written in place by a body that the
catalogued injector and the SELECT circuits share; ``letter_select``
writes the flagged X/Y payload and ``circuit_ir.basis_change`` its frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .circuit_ir import Circuit, Gate, basis_change, conjugated, expand_macro

__all__ = [
    "Component",
    "GADGETS",
    "address_bits",
    "ladder_cascade",
    "ladder_tree",
    "fanout_cnot",
    "multi_target_controlled_swap",
    "swap_up",
    "swap_up_star",
    "cswap_phase_incorrect",
    "letter_select",
    "select_q",
    "select_p",
    "inject",
    "inject_star_z",
    "inject_select_q",
    "inject_select_p",
]

def address_bits(n: int) -> int:
    """Width of an address register for n data qubits (>= 1 for n = 2)."""
    if n < 2:
        raise ValueError(f"need at least two data qubits, got {n}")
    return (n - 1).bit_length()


def _check_variant(variant: str) -> bool:
    if variant not in ("plain", "star"):
        raise ValueError(f"variant must be 'plain' or 'star', got {variant!r}")
    return variant == "star"


# ---------------------------------------------------------------------------
# Parity ladders
# ---------------------------------------------------------------------------


def ladder_cascade(n: int) -> Circuit:
    """Linear-depth suffix-parity ladder: z_j -> z_j ^ z_{j+1} ^ ... ^ z_{n-1}."""
    c = Circuit(n)
    for j in range(n - 2, -1, -1):
        c.add("CX", j + 1, j)
    return c


def ladder_tree(n: int) -> Circuit:
    """Log-depth suffix-parity ladder, same GF(2) action as the cascade.

    Built as an up-sweep / down-sweep prefix tree over the next power of
    two, with gates touching out-of-range qubits dropped.  CX-depth is at
    most 2*ceil(log2 n).
    """
    c = Circuit(n)
    if n < 2:
        return c
    levels = address_bits(n)
    full = 1 << levels
    for d in range(1, levels + 1):
        half = 1 << (d - 1)
        for i in range(0, full, 1 << d):
            if i + half < n:
                c.add("CX", i + half, i)
    for d in range(levels - 1, 0, -1):
        half = 1 << (d - 1)
        for i in range(half, full, 1 << d):
            if i + half < n:
                c.add("CX", i + half, i)
    return c


# ---------------------------------------------------------------------------
# CNOT fanout without ancillas
# ---------------------------------------------------------------------------


def _fanout_gates(control: int, targets: Sequence[int]) -> list[Gate]:
    m = len(targets)
    if m == 0:
        return []
    if m == 1:
        return [Gate("CX", (control, targets[0]))]
    # Pair up the first m-1 targets; leaders take the control's value in a
    # recursive middle stage and spread it to their partners on the way
    # out.  Targets may hold arbitrary values throughout (dirty fanout).
    pairs = [(targets[i], targets[i + 1]) for i in range(0, m - 2, 2)]
    inner = [a for a, _ in pairs]
    if (m - 1) % 2:
        inner.append(targets[m - 2])
    spread = [Gate("CX", (a, b)) for a, b in pairs]
    first = spread + [Gate("CX", (control, targets[m - 1]))]
    return first + _fanout_gates(control, inner) + spread


def fanout_cnot(control: int, targets: Sequence[int]) -> Circuit:
    """CNOT from one control onto every target, CX-depth <= 2*ceil(log2(m+1)).

    Exactly equivalent to applying CX(control, t) for each target in any
    order; no ancillas, and intermediate target values may be dirty.
    """
    targets = list(targets)
    if control in targets:
        raise ValueError("control cannot be a fanout target")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate fanout target")
    return Circuit(max([control, *targets]) + 1, _fanout_gates(control, targets))


# ---------------------------------------------------------------------------
# Controlled swap networks
# ---------------------------------------------------------------------------


def _toggle_gates(
    control: int,
    pairs: Sequence[tuple[int, int]],
    borrow: Optional[int],
) -> list[Gate]:
    """Controlled SWAP on every pair, using at most four CSWAP layers.

    Swap units are processed two at a time: each unit's leading qubit
    serves as a dirty control for its partner, and the real control only
    drives CNOT fanouts onto those leading qubits.  An odd unit out is
    swapped through the external borrow when one is supplied (two CSWAPs)
    and directly off the control otherwise (one CSWAP).
    """
    m = len(pairs)
    gates: list[Gate] = []
    if m == 0:
        return gates
    duos = [(pairs[2 * s], pairs[2 * s + 1]) for s in range(m // 2)]
    single = pairs[-1] if m % 2 else None

    first = [Gate("CSWAP", (ua[0], *ub)) for ua, ub in duos]
    fan_to = [ua[0] for ua, _ in duos]
    if single is not None:
        if borrow is not None:
            first.append(Gate("CSWAP", (borrow, *single)))
            fan_to.append(borrow)
        else:
            gates.append(Gate("CSWAP", (control, *single)))
    fan = _fanout_gates(control, fan_to)
    gates += first + fan + first + fan

    if duos:
        second = [Gate("CSWAP", (ub[0], *ua)) for ua, ub in duos]
        fan = _fanout_gates(control, [ub[0] for _, ub in duos])
        gates += second + fan + second + fan
    return gates


def multi_target_controlled_swap(m: int) -> Circuit:
    """One control qubit conditionally swapping m disjoint qubit pairs.

    The control is qubit 0 and pair i is on qubits (2i+1, 2i+2), with no
    borrow: 2m CSWAPs for even m and 2m-1 for odd m.
    """
    if m < 1:
        raise ValueError("need at least one pair")
    return Circuit(2 * m + 1, _toggle_gates(0, [(2 * i + 1, 2 * i + 2) for i in range(m)], None))


def _swap_levels(n: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(level bit j, pair count m, data index pairs) from the top level down."""
    bits = address_bits(n)
    levels = []
    for j in range(bits - 1, -1, -1):
        m = min(1 << j, n - (1 << j))
        levels.append((j, m, [(i, i + (1 << j)) for i in range(m)]))
    return levels


def _swap_up_labels(n: int) -> dict[str, tuple[int, ...]]:
    bits = address_bits(n)
    return {
        "address": tuple(range(bits)),
        "data": tuple(range(bits, bits + n)),
    }


def swap_up(n: int) -> Circuit:
    """Bring data qubit x to position 0, controlled on address value x.

    Qubits [0, bits) hold the address (MSB first), the rest the data.
    Level j (bit weight 2^j) conditionally swaps (i, i+2^j); odd levels
    borrow an idle address bit so the total is exactly 2(n-1) controlled
    swaps for every n >= 3.  n = 2 has no idle qubit and emits the single
    controlled swap.
    """
    bits = address_bits(n)
    c = Circuit(bits + n, [], _swap_up_labels(n))
    for j, m, data_pairs in _swap_levels(n):
        control = bits - 1 - j
        pairs = [(bits + a, bits + b) for a, b in data_pairs]
        borrow = None
        if m % 2 and bits >= 2:
            borrow = bits - 1 - ((j + 1) % bits)
        c.extend(_toggle_gates(control, pairs, borrow))
    return c


def swap_up_star(n: int) -> Circuit:
    """Swap network from phase-incorrect controlled swaps, n-1 of them.

    Each level fuses the per-pair halves of the cheap controlled swap and
    routes the shared control through one CNOT fanout, so level depth is
    O(log n) while the unitary stays the gate-for-gate product of
    phase-incorrect controlled swaps.  Only safe under conjugation.
    """
    bits = address_bits(n)
    c = Circuit(bits + n, [], _swap_up_labels(n))
    for j, _m, data_pairs in _swap_levels(n):
        control = bits - 1 - j
        # each expansion's middle gate is its CX(control, b); the level
        # replaces those with one fanout
        halves = [
            expand_macro(Gate("CSWAP_STAR", (control, bits + a, bits + b)))
            for a, b in data_pairs
        ]
        for h in halves:
            c.extend(h[:4])
        c.extend(_fanout_gates(control, [bits + b for _, b in data_pairs]))
        for h in halves:
            c.extend(h[5:])
    return c


def cswap_phase_incorrect() -> Circuit:
    """Controlled swap up to a -1 phase on |100>: 4 T, no ancillas.

    Qubit 0 controls a swap of qubits 1 and 2; the unitary equals CSWAP
    except that |100> picks up a minus sign.  This is the CSWAP_STAR
    macro's expansion.
    """
    return Circuit(3, expand_macro(Gate("CSWAP_STAR", (0, 1, 2))))


# ---------------------------------------------------------------------------
# Payload selectors and injectors
# ---------------------------------------------------------------------------


def _inject_into(c: Circuit, net: Circuit, net_map: Sequence[int], u: str, *qubits: int) -> None:
    """Payload gate ``u`` on ``qubits``, conjugated by ``net``, written into c."""
    with conjugated(c, net, net_map):
        c.add(u, *qubits, control_extension_point=True)


def letter_select(
    c: Circuit,
    net: Circuit,
    net_map: Sequence[int],
    flags: Sequence[int],
    data: Sequence[int],
    first: str,
    star: bool,
) -> None:
    """Flagged X/Y on the addressed data qubit ``data[0]``, appended to c.

    Letter ``first`` fires when the last flag is 0 and the other letter
    when it is 1, both under any earlier flag.  Plain: one ``net``
    conjugation around CX/CY (one flag) or TOFFOLI, S-conjugated for Y
    (two flags).  Star: per letter, a ``net``-conjugated CZ or CCZ in
    that letter's frame of every data qubit.  The payload gates are
    control extension points.
    """
    sel, d0 = flags[-1], data[0]
    letters = (first, "Y" if first == "X" else "X")
    if not star:
        with conjugated(c, net, net_map):
            for letter, open_on in zip(letters, (True, False)):
                if open_on:
                    c.add("X", sel)
                if len(flags) == 1:
                    c.add("C" + letter, sel, d0, control_extension_point=True)
                else:
                    if letter == "Y":
                        c.add("Sdg", d0)
                    c.add("TOFFOLI", *flags, d0, control_extension_point=True)
                    if letter == "Y":
                        c.add("S", d0)
                if open_on:
                    c.add("X", sel)
        return
    for letter, open_on in zip(letters, (True, False)):
        with basis_change(c, data, letter):
            if open_on:
                c.add("X", sel)
            _inject_into(c, net, net_map, "C" * len(flags) + "Z", *flags, d0)
            if open_on:
                c.add("X", sel)


def _letter_inject_into(
    c: Circuit,
    net: Circuit,
    net_map: Sequence[int],
    flags: Sequence[int],
    data: Sequence[int],
    star: bool,
) -> None:
    """Flagged X/Y on the addressed qubit of ``data``, written into c.

    Signed (two flags a, b): both marked with Z, and a picks Y (0) or X
    (1).  Unsigned (one flag): it picks X (0) or Y (1).
    """
    signed = len(flags) == 2
    if signed:
        for f in flags:
            c.add("Z", f, control_extension_point=True)
    letter_select(c, net, net_map, flags[:1], data, "Y" if signed else "X", star)


def select_q() -> Circuit:
    """Two flag qubits (0, 1) pick sign and letter applied to qubit 2.

    Flag word ab maps to +Y, -Y, -X, +X for 00, 01, 10, 11: exactly the
    image of the signed Paulis +X, -X, +Y, -Y under X -> Y -> -X.  All
    four non-conjugation gates are control extension points.
    """
    c = Circuit(3)
    _letter_inject_into(c, Circuit(0), (), (0, 1), (2,), star=False)
    return c


def select_p() -> Circuit:
    """One flag qubit (0) picks X (flag 0) or Y (flag 1) on qubit 1."""
    c = Circuit(2)
    _letter_inject_into(c, Circuit(0), (), (0,), (1,), star=False)
    return c


def _injector(u: str, net: Circuit, n: int) -> Circuit:
    """Payload ``u`` on the front data qubit, conjugated by ``net``."""
    c = Circuit(net.n_qubits, [], dict(net.register_labels))
    _inject_into(c, net, range(net.n_qubits), u, address_bits(n))
    return c


def inject(u: str, n: int) -> Circuit:
    """Apply the one-qubit gate ``u`` to the addressed data qubit.

    Swap-network conjugation of ``u`` on data position 0: |x>|d> ->
    |x> U_x |d>.  The payload gate is the circuit's control extension
    point; ``Circuit.add`` rejects a ``u`` that is not a one-qubit gate.
    """
    return _injector(u, swap_up(n), n)


def inject_star_z(n: int) -> Circuit:
    """Addressed Z via the phase-incorrect network; exact by conjugation."""
    return _injector("Z", swap_up_star(n), n)


def _letter_injector(n: int, variant: str, signed: bool) -> Circuit:
    """[address | flags | data] circuit around ``_letter_inject_into``."""
    star = _check_variant(variant)
    bits = address_bits(n)
    flags = tuple(range(bits, bits + (2 if signed else 1)))
    data = tuple(range(bits + len(flags), bits + len(flags) + n))
    labels = {"address": tuple(range(bits)), "flags": flags, "data": data}
    c = Circuit(bits + len(flags) + n, [], labels)
    net = swap_up_star(n) if star else swap_up(n)
    _letter_inject_into(c, net, list(range(bits)) + list(data), flags, data, star)
    return c


def inject_select_q(n: int, variant: str = "star") -> Circuit:
    """Signed X/Y on the addressed qubit, selected by two flag qubits.

    Layout: [address | flags a,b | data].  Flag word ab applies the image
    under X -> Y -> -X of the signed Pauli (+X, -X, +Y, -Y for ab = 00,
    01, 10, 11) at the addressed position.
    """
    return _letter_injector(n, variant, signed=True)


def inject_select_p(n: int, variant: str = "star") -> Circuit:
    """Unsigned X (flag 0) or Y (flag 1) on the addressed qubit.

    Layout: [address | flag | data].
    """
    return _letter_injector(n, variant, signed=False)


@dataclass(frozen=True)
class Component:
    """One catalogued component: its builder and the counts its costs follow from.

    The circuit holds ``networks`` swap networks of ``variant`` ("plain"
    or "star") over ``address`` address registers, ``flags`` flag
    qubits and the n data qubits, with ``extension_points`` control
    extension units.  ``resources`` turns these counts into the expected
    T-count, T-depth ceiling and width.
    """

    build: Callable[[int], Circuit]
    variant: str
    networks: int
    address: int
    flags: int
    extension_points: int


# registers [address | flags | data]; the flags register only when flags > 0
GADGETS: dict[str, Component] = {
    # name: Component(build, variant, networks, address, flags, extension_points)
    "SwapUp": Component(swap_up, "plain", 1, 1, 0, 0),
    "SwapUpStar": Component(swap_up_star, "star", 1, 1, 0, 0),
    "InjectZ": Component(lambda n: inject("Z", n), "plain", 2, 1, 0, 1),
    "InjectZStar": Component(inject_star_z, "star", 2, 1, 0, 1),
    "InjSelQ": Component(lambda n: inject_select_q(n, "plain"), "plain", 2, 1, 2, 4),
    "InjSelQStar": Component(lambda n: inject_select_q(n, "star"), "star", 4, 1, 2, 4),
    "InjSelP": Component(lambda n: inject_select_p(n, "plain"), "plain", 2, 1, 1, 2),
    "InjSelPStar": Component(lambda n: inject_select_p(n, "star"), "star", 4, 1, 1, 2),
}
