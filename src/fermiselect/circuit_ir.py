"""Gate-level circuit IR: kinds, macros, lowering, scheduling, emission.

Gates are stored flat with qubit tuples (controls first).  The terminal
alphabet is {X, Y, Z, H, S, Sdg, T, Tdg, A, Adg, CX, CY, CZ}; everything
else is a macro that ``lower_macros`` expands into terminals.  A is the
pi/8 Y-rotation [[cos, sin], [-sin, cos]](pi/8); it costs one T.

Gates are plain records, checked once where they enter a circuit:
``Circuit(...)``, ``add`` and ``extend`` run ``Circuit._check``, the one
definition of a valid gate.  Gates derived from gates already in a
circuit (remapped, inverted, lowered or shifted under global controls)
are written to ``gates`` unchecked; a remap checks its qubit map instead.

Circuits are built in place: ``Circuit.append`` adds another circuit's
gates through a qubit map, ``conjugated`` wraps a block of gates as
net · block · net† with the net remapped once, and ``basis_change`` runs
a block in the X or Y frame of some qubits; both note the block in
``Circuit.spans``.  ``compose`` is a copy followed by ``append``.  Each
host keeps the gates these two wrappers wrote (``Circuit._reuse``), so a
SELECT that wraps many payloads in the same network on the same qubits,
or in the same frame, writes that block's gates once and repeats them.

Repeated gates are shared objects: remapping, inverting and shifting
under global controls make one gate per distinct gate within a call.
A ``Gate`` is a tuple subclass, which CPython's garbage collector never
untracks, so each full collection walks every gate object alive; sharing
them keeps that walk to the distinct gates.

The back-end passes (``terminal_gates`` and so ``lower_macros``,
``schedule`` and ``emit_text``) do their per-gate work once per
distinct gate, or once per gate kind, within a call and reuse it for
the repeats.  ``emit_text`` fills one text template per gate kind (its
terminal gates on qubits 0..m-1) and ``schedule`` builds one depth
profile per macro kind, so both read a macro as its lowering and take
the un-lowered circuit; neither builds a lowered one.

``schedule`` measures T-depth and Clifford depth as longest dependency
chains counting only gates of the respective class, so Cliffords never
pad T-depth.

``control_extension_point`` marks the gates of a SELECT circuit that gain
global controls; gates sharing an ``extension_group`` id transform as one
unit (used for the four-gate -i phase block, which collapses to a single
Sdg/CSdg on the controls).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from math import inf
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Gate",
    "Circuit",
    "ResourceReport",
    "TERMINAL_KINDS",
    "MACRO_KINDS",
    "NON_CLIFFORD_KINDS",
    "compose",
    "conjugated",
    "basis_change",
    "inverse",
    "expand_macro",
    "terminal_gates",
    "lower_macros",
    "schedule",
    "count_extension_points",
    "add_global_controls",
    "emit_text",
]

_ARITY = {
    "X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "Sdg": 1, "T": 1, "Tdg": 1,
    "A": 1, "Adg": 1,
    "CX": 2, "CY": 2, "CZ": 2, "SWAP": 2, "CS": 2, "CSdg": 2,
    "CSWAP": 3, "CSWAP_STAR": 3, "TOFFOLI": 3, "CCZ": 3,
}

TERMINAL_KINDS = frozenset(
    {"X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg", "A", "Adg", "CX", "CY", "CZ"}
)
MACRO_KINDS = frozenset(_ARITY) - TERMINAL_KINDS
NON_CLIFFORD_KINDS = frozenset({"T", "Tdg", "A", "Adg"})

_INVERSE = {
    "S": "Sdg", "Sdg": "S", "T": "Tdg", "Tdg": "T",
    "A": "Adg", "Adg": "A", "CS": "CSdg", "CSdg": "CS",
}
_FRAME = {"X": ("H",), "Y": ("Sdg", "H")}  # in time order, what takes one qubit into each frame


class Gate(NamedTuple):
    """A single gate application; ``qubits`` lists controls first.

    A plain record: ``Circuit._check`` validates it where it enters a
    circuit, not here.
    """

    kind: str
    qubits: tuple[int, ...]
    control_extension_point: bool = False
    extension_group: Optional[int] = None


@dataclass
class Circuit:
    """A flat gate list on ``n_qubits`` with optional named registers."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    register_labels: dict[str, tuple[int, ...]] = field(default_factory=dict)
    # (start, body, end, stop, how) per block wrapped in place: gates [start, body) open it,
    # [end, stop) close it, and ``how`` is the wrapper and its arguments after the circuit
    spans: list[tuple] = field(default_factory=list, init=False, compare=False, repr=False)
    # the gates ``conjugated`` and ``basis_change`` wrote, kept for their next call with the
    # same net and map, or the same qubits and letter: (net, its gates then, opening, closing)
    # under (id(net), map), and (opening, closing) under (qubits, letter)
    _reuse: dict[tuple, tuple] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for g in self.gates:
            self._check(g)
        for name, qs in self.register_labels.items():
            qs = self.register_labels[name] = tuple(qs)
            if qs and (min(qs) < 0 or max(qs) >= self.n_qubits or len(set(qs)) != len(qs)):
                raise ValueError(f"register {name!r} {qs} needs distinct qubits < {self.n_qubits}")

    def _check(self, g: Gate) -> None:
        """Raise ValueError unless g is a valid gate on this circuit."""
        kind, qubits = g.kind, g.qubits
        if kind not in _ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        if not isinstance(qubits, tuple):
            raise ValueError(f"{kind} qubits must be a tuple, got {qubits!r}")
        if len(qubits) != _ARITY[kind]:
            raise ValueError(f"{kind} takes {_ARITY[kind]} qubits, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {kind}{qubits}")
        if min(qubits) < 0 or max(qubits) >= self.n_qubits:
            raise ValueError(f"gate {kind}{qubits} out of range for {self.n_qubits} qubits")

    def add(self, kind: str, *qubits: int, **kw) -> None:
        g = Gate(kind, qubits, **kw)
        self._check(g)
        self.gates.append(g)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append every gate, or none of them when one fails the check."""
        gates = list(gates)
        for g in gates:
            self._check(g)
        self.gates.extend(gates)

    def append(self, b: Circuit, qubit_map: Optional[Sequence[int]] = None) -> None:
        """Add b's gates in place, b's qubit i landing on qubit_map[i].

        With no map the circuits must have equal width.  b's register
        labels are dropped (the host circuit owns the naming).
        """
        self.gates.extend(_remapped(self, b, qubit_map))


def _remapped(host: Circuit, b: Circuit, qubit_map: Optional[Sequence[int]]) -> list[Gate]:
    """b's gates with b's qubit i moved to qubit_map[i] of ``host``."""
    if qubit_map is None:
        if b.n_qubits != host.n_qubits:
            raise ValueError("word sizes differ; supply a qubit_map")
        return list(b.gates)
    qubit_map = tuple(qubit_map)
    if len(qubit_map) != b.n_qubits:
        raise ValueError(f"qubit_map length {len(qubit_map)} != {b.n_qubits}")
    if any(not 0 <= q < host.n_qubits for q in qubit_map):
        raise ValueError("qubit_map leaves the host circuit")
    if len(set(qubit_map)) != len(qubit_map):
        raise ValueError(f"qubit_map {qubit_map} sends two qubits to one")
    mapped: dict[Gate, Gate] = {}  # each distinct gate remapped once
    out = []
    for g in b.gates:
        h = mapped.get(g)
        if h is None:
            qubits = tuple([qubit_map[q] for q in g.qubits])
            # tuple.__new__ skips Gate's Python-level constructor; markers kept
            h = mapped[g] = tuple.__new__(Gate, (g.kind, qubits, *g[2:]))
        out.append(h)
    return out


def _inverted(gates: Sequence[Gate]) -> list[Gate]:
    """Reversed gate list with each gate inverted; self-inverse gates are kept."""
    inverted: dict[Gate, Gate] = {}  # each distinct gate inverted once
    out = []
    for g in reversed(gates):
        if g.kind in _INVERSE:
            h = inverted.get(g)
            if h is None:
                h = inverted[g] = tuple.__new__(Gate, (_INVERSE[g.kind], *g[1:]))
            g = h
        out.append(g)
    return out


@dataclass(frozen=True)
class ResourceReport:
    t_count: int
    t_depth: int
    clifford_count: int
    clifford_depth: int
    total_qubits: int


def compose(a: Circuit, b: Circuit, qubit_map: Optional[Sequence[int]] = None) -> Circuit:
    """A copy of a with b appended (see ``Circuit.append``); a is unchanged."""
    out = Circuit(a.n_qubits, [], dict(a.register_labels))
    out.gates = a.gates + _remapped(out, b, qubit_map)
    return out


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate list and invert each gate."""
    out = Circuit(c.n_qubits, [], dict(c.register_labels))
    out.gates = _inverted(c.gates)
    return out


@contextmanager
def conjugated(c: Circuit, net: Circuit, qubit_map: Optional[Sequence[int]] = None):
    """Wrap the gates the block adds to c as net · block · net†.

    The net is remapped once per host and map; its inverse is built from
    those remapped gates.  A later call on c with the same net object and
    an equal map writes the same two gate lists again (kept in
    ``c._reuse``, not read back from ``c.gates``), unless the net's gates
    have changed since.  Yields c, and notes the span in ``c.spans``.
    """
    key = (id(net), None if qubit_map is None else tuple(qubit_map))
    reused = c._reuse.get(key)
    if reused is not None and reused[1] == net.gates:
        gates, closing = reused[2:]
    else:
        gates, closing = _remapped(c, net, qubit_map), None
    start = len(c.gates)
    c.gates.extend(gates)
    yield c
    end = len(c.gates)
    if closing is None:
        closing = _inverted(gates)
        c._reuse[key] = (net, list(net.gates), gates, closing)  # the net is held, so its id stays its own
    c.gates.extend(closing)
    c.spans.append((start, start + len(gates), end, len(c.gates), (conjugated, net, qubit_map)))


def _frame_gates(qubits: Sequence[int], letter: str) -> tuple[Iterator[Gate], Iterator[Gate]]:
    """The gates opening and closing the ``letter`` frame of ``qubits``, qubit by qubit, made as read."""
    kinds = _FRAME[letter]
    return ((Gate(kind, (q,)) for q in qubits for kind in kinds),
            (Gate(_INVERSE.get(kind, kind), (q,)) for q in qubits for kind in reversed(kinds)))


@contextmanager
def basis_change(c: Circuit, qubits: Sequence[int], letter: str):
    """Run the block in the ``letter`` frame of ``qubits`` (``_frame_gates``): Z there
    acts as X or Y.  Notes the span in ``c.spans``.

    The first frame of these qubits and letter on c is checked gate by gate
    (``Circuit.extend``) and kept in ``c._reuse``; a later one writes the
    same gates again."""
    key = (tuple(qubits), letter)
    frame = c._reuse.get(key)
    start = len(c.gates)
    if frame is None:
        opening, closing = _frame_gates(qubits, letter)  # closing made after the block, as before
        c.extend(opening := list(opening))
    else:
        opening, closing = frame
        c.gates.extend(opening)
    body = len(c.gates)
    yield c
    end = len(c.gates)
    if frame is None:
        c._reuse[key] = (opening, closing := list(closing))
    c.gates.extend(closing)
    c.spans.append((start, body, end, len(c.gates), (basis_change, qubits, letter)))


def _ccz_network(a: int, b: int, c: int) -> list[Gate]:
    # Seven-T phase-polynomial network for CCZ, ordered so that greedy
    # ASAP layering lands the T gates in exactly four layers:
    # {a,b,c} / {a^b, a^c} / {b^c} / {a^b^c}.
    g = Gate
    return [
        g("T", (a,)), g("T", (b,)), g("T", (c,)),
        g("CX", (b, c)),
        g("CX", (a, b)),
        g("CX", (b, c)),
        g("Tdg", (b,)), g("Tdg", (c,)),
        g("CX", (b, c)),
        g("Tdg", (c,)),
        g("CX", (a, c)),
        g("T", (c,)),
        g("CX", (b, c)),
        g("CX", (a, b)),
    ]


def expand_macro(g: Gate) -> Optional[list[Gate]]:
    """One expansion step for a macro gate; None if g is terminal."""
    k = g.kind
    q = g.qubits
    G = Gate
    if k in TERMINAL_KINDS:
        return None
    if k == "SWAP":
        a, b = q
        return [G("CX", (a, b)), G("CX", (b, a)), G("CX", (a, b))]
    if k == "CS":
        a, b = q
        return [G("T", (a,)), G("T", (b,)), G("CX", (a, b)), G("Tdg", (b,)), G("CX", (a, b))]
    if k == "CSdg":
        a, b = q
        return [G("Tdg", (a,)), G("Tdg", (b,)), G("CX", (a, b)), G("T", (b,)), G("CX", (a, b))]
    if k == "CCZ":
        return _ccz_network(*q)
    if k == "TOFFOLI":
        a, b, t = q
        return [G("H", (t,)), G("CCZ", (a, b, t)), G("H", (t,))]
    if k == "CSWAP":
        c, a, b = q
        return [G("CX", (b, a)), G("TOFFOLI", (c, a, b)), G("CX", (b, a))]
    if k == "CSWAP_STAR":
        c, a, b = q
        return [
            G("CX", (b, a)), G("A", (b,)), G("CX", (a, b)), G("A", (b,)),
            G("CX", (c, b)),
            G("Adg", (b,)), G("CX", (a, b)), G("Adg", (b,)), G("CX", (b, a)),
        ]
    raise AssertionError(f"no expansion for {k}")


def terminal_gates(gates: Iterable[Gate]) -> Iterator[Gate]:
    """The terminal gates of ``gates`` in time order, macros expanded.

    Each distinct macro gate is expanded once per call; its repeats yield
    the terminal list of the first expansion again.
    """
    expanded: dict[Gate, list[Gate]] = {}
    for g in gates:
        if g.kind in TERMINAL_KINDS:
            yield g
            continue
        if g not in expanded:
            expanded[g] = list(terminal_gates(expand_macro(g)))
        yield from expanded[g]


def lower_macros(c: Circuit, pure_clifford_t: bool = False) -> Circuit:
    """Expand all macros into the terminal alphabet.

    With ``pure_clifford_t`` the A gates are further rewritten as
    S·H·T·H·Sdg (time order), which equals A only up to a global phase
    exp(i*pi/8), and Adg up to exp(-i*pi/8); the phases cancel only when
    the circuit holds as many A as Adg, so any other count raises
    ValueError.  Extension markers are dropped: add controls before
    lowering, not after.
    """
    lowered = Circuit(c.n_qubits, [], dict(c.register_labels))
    out = lowered.gates
    unmatched = 0  # A count minus Adg count
    for g in terminal_gates(c.gates):
        if pure_clifford_t and g.kind in ("A", "Adg"):
            (t,) = g.qubits
            mid = "T" if g.kind == "A" else "Tdg"
            unmatched += 1 if g.kind == "A" else -1
            out.extend(Gate(kk, (t,)) for kk in ("S", "H", mid, "H", "Sdg"))
        elif g.control_extension_point or g.extension_group is not None:
            out.append(Gate(g.kind, g.qubits))
        else:
            out.append(g)
    if unmatched:
        raise ValueError(
            f"pure_clifford_t needs as many A as Adg gates; A minus Adg is "
            f"{unmatched:+d}, which would leave a global phase exp({unmatched:+d}·iπ/8)"
        )
    return lowered


def schedule(c: Circuit) -> ResourceReport:
    """Count resources of c's lowering along dependency chains.

    T-count includes A/Adg (one T each).  Each depth is the longest path
    through the gate dependency graph counting only gates of that class:
    T-depth weights non-Cliffords 1 and Cliffords 0, Clifford depth the
    reverse.  Cliffords therefore never pad T-depth, matching how
    T-layers are batched in practice.

    The report equals ``schedule(lower_macros(c))``, and no lowered
    circuit is built: each macro kind's depth profile (``_Profile``) is
    built once per call, on first sight, so a macro costs a constant
    amount of work, not a walk over its terminal gates.
    """
    t_chain = [0] * c.n_qubits
    c_chain = [0] * c.n_qubits
    t_count, size = _advance(c.gates, t_chain, c_chain)
    return ResourceReport(
        t_count=t_count,
        t_depth=max(t_chain, default=0),
        clifford_count=size - t_count,
        clifford_depth=max(c_chain, default=0),
        total_qubits=c.n_qubits,
    )


class _Profile(NamedTuple):
    """What one macro kind does to the two chains of ``schedule``.

    Both chain updates are max-plus linear, so a macro on qubits
    (q_0 .. q_m-1) sets chain[q_j] to max_i(in_i + D[i][j]), with D[i][j]
    the longest path from its input i to its output j (-inf for none).
    ``t_cols[j]`` and ``c_cols[j]`` hold column j of each chain's D.
    """

    t_count: int
    size: int  # terminal gates
    t_cols: tuple[tuple[float, ...], ...]
    c_cols: tuple[tuple[float, ...], ...]


def _profile(kind: str) -> _Profile:
    """The ``_Profile`` of ``kind``, from the terminal gates of one such gate."""
    m = _ARITY[kind]
    terminals = list(terminal_gates((Gate(kind, tuple(range(m))),)))
    t_rows, c_rows = [], []
    for i in range(m):  # row i: the chains that input i alone reaches
        t_row = [-inf] * m
        t_row[i] = 0
        c_row = t_row.copy()
        t_count, size = _advance(terminals, t_row, c_row)  # no macro left
        t_rows.append(t_row)
        c_rows.append(c_row)
    return _Profile(t_count, size, tuple(zip(*t_rows)), tuple(zip(*c_rows)))


def _advance(gates: Sequence[Gate], t_chain: list, c_chain: list) -> tuple[int, int]:
    """Walk ``gates`` through both chains in place; (T-count, terminal gate count).

    Each macro kind's ``_profile`` is built on first sight.
    """
    t_count = extra = 0
    seen: dict[str, object] = {}  # per kind: non-Clifford or not, or its macro profile
    for g in gates:
        kind, qubits = g.kind, g.qubits
        nc = seen.get(kind)
        if nc is None:
            nc = seen[kind] = _profile(kind) if kind in MACRO_KINDS else kind in NON_CLIFFORD_KINDS
        if nc is not True and nc is not False:
            t_in = list(map(t_chain.__getitem__, qubits))
            c_in = list(map(c_chain.__getitem__, qubits))
            for q, t_col, c_col in zip(qubits, nc.t_cols, nc.c_cols):
                t_chain[q] = max(map(add, t_in, t_col))
                c_chain[q] = max(map(add, c_in, c_col))
            t_count += nc.t_count
            extra += nc.size - 1
            continue
        t_count += nc
        if len(qubits) == 1:
            (q,) = qubits
            if nc:
                t_chain[q] += 1
            else:
                c_chain[q] += 1
            continue
        t_here = max(map(t_chain.__getitem__, qubits)) + nc
        c_here = max(map(c_chain.__getitem__, qubits)) + (not nc)
        for q in qubits:
            t_chain[q] = t_here
            c_chain[q] = c_here
    return t_count, len(gates) + extra


def count_extension_points(c: Circuit) -> int:
    """Number of control-extension units (a marked group counts once)."""
    groups: set[int] = set()
    singles = 0
    for g in c.gates:
        if not g.control_extension_point:
            continue
        if g.extension_group is None:
            singles += 1
        else:
            groups.add(g.extension_group)
    return singles + len(groups)


def _borrow_for(qubits: set[int], n: int) -> int:
    for q in range(n):
        if q not in qubits:
            return q
    raise ValueError("no free qubit available as a borrow")


def _multi_controlled_x(controls: tuple[int, ...], target: int, n: int) -> list[Gate]:
    """Toffoli, or C3X on a dirty borrow: the global controls and one or two payload qubits."""
    G = Gate
    if len(controls) == 2:
        return [G("TOFFOLI", (*controls, target))]
    if len(controls) == 3:
        c1, c2, c3 = controls
        w = _borrow_for({c1, c2, c3, target}, n)
        # two rounds through a borrowed qubit; its value is restored
        block = [G("TOFFOLI", (c1, c2, w)), G("TOFFOLI", (c3, w, target))]
        return block + block
    raise ValueError("more than three controls are not supported")


SDG_TWO_CONTROLS = (
    "a doubly-controlled S† is not exactly expressible in "
    "ancilla-free Clifford+T; use a single control"
)


def _control_into(out: Circuit, g: Gate, controls: tuple[int, ...]) -> None:
    """Write one marked gate (already index-shifted) into out under the controls.

    A CZ or CCZ that no gate holds with its controls becomes a
    multi-controlled X on its target, written in that qubit's X frame
    (``basis_change``, which records the frame as a span)."""
    G, k, q, nc, n = Gate, g.kind, g.qubits, len(controls), out.n_qubits
    if nc == 2 and k in ("Sdg", "CCZ", "TOFFOLI"):
        raise ValueError(SDG_TWO_CONTROLS if k == "Sdg" else
                         "two controls on a doubly-controlled payload are not supported")
    if k == "Z":
        out.gates.append(G("CZ", (controls[0], q[0])) if nc == 1 else G("CCZ", (*controls, q[0])))
    elif k == "Sdg":
        out.gates.append(G("CSdg", (controls[0], q[0])))
    elif k == "CZ" and nc == 1:
        out.gates.append(G("CCZ", (controls[0], *q)))
    elif k in ("CZ", "CCZ"):
        with basis_change(out, q[-1:], "X"):
            out.gates.extend(_multi_controlled_x((*controls, *q[:-1]), q[-1], n))
    elif k in ("CX", "TOFFOLI"):
        out.gates.extend(_multi_controlled_x((*controls, *q[:-1]), q[-1], n))
    elif k == "CY":
        out.gates.append(G("Sdg", (q[1],)))
        out.gates.extend(_multi_controlled_x((*controls, q[0]), q[1], n))
        out.gates.append(G("S", (q[1],)))
    else:
        raise ValueError(f"gate kind {k} cannot take a global control")


def add_global_controls(c: Circuit, num_controls: int) -> Circuit:
    """Prepend control qubits and control every marked extension unit.

    The input must be an unlowered SELECT circuit whose extension points
    are still marked.  One or two controls are supported; the four-gate
    phase block becomes Sdg on the control (one) or CSdg between the
    controls (two).  The spans of c come along on the shifted qubits,
    their gate positions moved to where their gates land.
    """
    if num_controls not in (1, 2):
        raise ValueError("num_controls must be 1 or 2")
    if not any(g.control_extension_point for g in c.gates):
        raise ValueError(
            "no marked extension point to control; the input must be an "
            "unlowered SELECT circuit"
        )
    nc = num_controls
    n = c.n_qubits + nc
    controls = tuple(range(nc))
    labels = {"ctrl": controls}
    for name, qs in c.register_labels.items():
        labels[name] = tuple(q + nc for q in qs)
    out = Circuit(n, [], labels)
    done_groups: set[int] = set()
    at = []  # where each gate of c, and then its end, lands in out
    shift: dict[Gate, Gate] = {}  # each distinct gate shifted once, its markers dropped
    for g in c.gates:
        at.append(len(out.gates))
        shifted = shift.get(g)
        if shifted is None:
            shifted = shift[g] = Gate(g.kind, tuple([q + nc for q in g.qubits]))
        if not g.control_extension_point:
            out.gates.append(shifted)
            continue
        if g.extension_group is not None:
            if g.extension_group in done_groups:
                continue
            done_groups.add(g.extension_group)
            # the phase block contributes a bare -i; controlled, that is
            # an S† on the control line(s)
            if nc == 1:
                out.gates.append(Gate("Sdg", (controls[0],)))
            else:
                out.gates.append(Gate("CSdg", controls))
            continue
        _control_into(out, shifted, controls)
    at.append(len(out.gates))
    for *marks, (builder, *args) in c.spans:  # the wrapped blocks, on the shifted qubits
        if builder is conjugated:
            net, to = args
            args = [net, [q + nc for q in (range(net.n_qubits) if to is None else to)]]
        else:
            qubits, letter = args
            args = [[q + nc for q in qubits], letter]
        out.spans.append((*(at[i] for i in marks), (builder, *args)))
    return out


def emit_text(c: Circuit) -> str:
    """Deterministic text form of c's lowering.

    One terminal gate per line, ``kind q[i],q[j];`` with a ``qubits N;``
    header and a comment line per named register.  A macro is written as
    the lines of its ``terminal_gates``, so the text equals
    ``emit_text(lower_macros(c))``, and no lowered circuit is built: each
    gate kind's lines are made once per call, as a template on qubits
    0..m-1 with each qubit a field, and each distinct gate is rendered
    once, by filling its kind's template.
    """
    lines = [f"qubits {c.n_qubits};"]
    for name, qs in c.register_labels.items():
        if qs and qs == tuple(range(qs[0], qs[0] + len(qs))):
            span = f"q[{qs[0]}..{qs[-1]}]" if len(qs) > 1 else f"q[{qs[0]}]"
        else:
            span = ",".join(f"q[{i}]" for i in qs)
        lines.append(f"# {name}: {span}")
    template: dict[str, str] = {}  # per kind: its lines on qubits 0..m-1, each qubit a field
    chunk: dict[Gate, str] = {}  # each distinct gate's lines; markers change no line
    for g in c.gates:
        text = chunk.get(g)
        if text is None:
            kind = g.kind
            form = template.get(kind)
            if form is None:
                form = template[kind] = "\n".join(
                    f"{h.kind.lower()} {','.join(f'q[{{{i}}}]' for i in h.qubits)};"
                    for h in terminal_gates((Gate(kind, tuple(range(_ARITY[kind]))),)))
            text = chunk[g] = form.format(*g.qubits)
        lines.append(text)
    return "\n".join(lines) + "\n"
