"""Independent checks of fermiselect outputs.

Nothing here imports fermiselect.  The emitted-circuit statistics are
recomputed from the text form, and the Hamiltonian action is computed by
occupation-number sign counting, so the benchmark does not trust the
code it measures.

Conventions match the program's: qubit (and orbital) 0 is the most
significant bit of a basis-state index, and an occupied orbital is a 1.
"""

from __future__ import annotations

NON_CLIFFORD = frozenset({"t", "tdg", "a", "adg"})


def circuit_stats(text: str) -> dict:
    """Width, gate count, T-count and both depths of an emitted circuit.

    A and A† count as one T each.  T-depth is the longest dependency
    chain counting only non-Clifford gates, Clifford depth the longest
    counting only Clifford gates.
    """
    width = None
    t_chain: list[int] = []
    c_chain: list[int] = []
    gates = t_count = max_qubit = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if not rest.endswith(";"):
            raise ValueError(f"unterminated line {line!r}")
        rest = rest[:-1]
        if kind == "qubits":
            if width is not None:
                raise ValueError("second qubits header")
            width = int(rest)
            t_chain = [0] * width
            c_chain = [0] * width
            continue
        if width is None:
            raise ValueError("gate before the qubits header")
        qubits = []
        for tok in rest.split(","):
            if not (tok.startswith("q[") and tok.endswith("]")):
                raise ValueError(f"bad operand {tok!r} in {line!r}")
            qubits.append(int(tok[2:-1]))
        gates += 1
        non_clifford = kind in NON_CLIFFORD
        t_count += non_clifford
        t_here = max(t_chain[q] for q in qubits) + non_clifford
        c_here = max(c_chain[q] for q in qubits) + (not non_clifford)
        for q in qubits:
            t_chain[q] = t_here
            c_chain[q] = c_here
        max_qubit = max(max_qubit, *qubits)
    if width is None:
        raise ValueError("no qubits header")
    return {
        "width": width,
        "max_qubit": max_qubit,
        "gate_count": gates,
        "t_count": t_count,
        "t_depth": max(t_chain, default=0),
        "clifford_depth": max(c_chain, default=0),
    }


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# Fermionic Hamiltonians and their action on basis states
# ---------------------------------------------------------------------------

# a term is (coefficient, ((kind, orbital), ...), include_hc) with kind one
# of "adag", "a", "n"; the operator is coefficient * f1 * f2 * ... * fm
_DAGGER = {"adag": "a", "a": "adag", "n": "n"}


def hamiltonian_text(terms) -> str:
    """The CLI's Hamiltonian file format for a term list."""
    lines = []
    for coeff, factors, hc in terms:
        body = " ".join(f"{kind} {p}" for kind, p in factors)
        lines.append(f"{coeff.real!r} {coeff.imag!r} : {body}{' +hc' if hc else ''}")
    return "\n".join(lines) + "\n"


def _apply_product(factors, n: int, x: int):
    """(sign, state) of factors applied right to left to |x>, or None."""
    sign = 1
    for kind, p in reversed(factors):
        bit = 1 << (n - 1 - p)
        occupied = bool(x & bit)
        if kind == "n":
            if not occupied:
                return None
            continue
        if occupied != (kind == "a"):
            return None
        if (x >> (n - p)).bit_count() & 1:
            sign = -sign
        x ^= bit
    return sign, x


def fermion_action(terms, n: int, x: int) -> dict[int, complex]:
    """H|x> as {basis index: amplitude}, by sign counting."""
    out: dict[int, complex] = {}
    for coeff, factors, hc in terms:
        parts = [(complex(coeff), factors)]
        if hc:
            parts.append(
                (complex(coeff).conjugate(), tuple((_DAGGER[k], p) for k, p in reversed(factors)))
            )
        for c, prod in parts:
            hit = _apply_product(prod, n, x)
            if hit is not None:
                sign, y = hit
                out[y] = out.get(y, 0) + sign * c
    return out


# ---------------------------------------------------------------------------
# The encoded LCU table printed by ``fermiselect transform``
# ---------------------------------------------------------------------------


def parse_lcu_table(text: str) -> tuple[dict, list[tuple[str, float, str]]]:
    """Header fields and (word bits, alpha, signed string) rows."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# ") or not lines[1].startswith("# total_alpha="):
        raise ValueError("missing transform header")
    header = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    header = {key: int(value) for key, value in header.items()}
    header["total_alpha"] = float(lines[1].split("=", 1)[1])
    rows = []
    for line in lines[2:]:
        word, alpha, string = line.split(" ")
        rows.append((word, float(alpha), string))
    return header, rows


def pauli_rows(rows) -> list[tuple[int, int, complex]]:
    """(flip mask, Y/Z mask, alpha * sign * i**#Y) for each table row."""
    out = []
    for _, alpha, string in rows:
        sign, letters = string[0], string[1:]
        if sign not in "+-":
            raise ValueError(f"string {string!r} has no real sign")
        n = len(letters)
        flip = yz = n_y = 0
        for j, letter in enumerate(letters):
            bit = 1 << (n - 1 - j)
            if letter in "XY":
                flip |= bit
            if letter in "YZ":
                yz |= bit
            n_y += letter == "Y"
        coeff = alpha * (1 if sign == "+" else -1) * (1j ** (n_y % 4))
        out.append((flip, yz, coeff))
    return out


def pauli_sum_action(prepared, x: int) -> dict[int, complex]:
    """(sum_j alpha_j P_j)|x>: P|b> = i**#Y (-1)**(b . yz) |b ^ flip>."""
    out: dict[int, complex] = {}
    for flip, yz, coeff in prepared:
        y = x ^ flip
        amp = -coeff if (x & yz).bit_count() & 1 else coeff
        out[y] = out.get(y, 0) + amp
    return out


def max_difference(a: dict[int, complex], b: dict[int, complex]) -> float:
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), default=0.0)
