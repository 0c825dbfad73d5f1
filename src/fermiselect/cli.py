"""Command-line front end.

Subcommands:

* ``transform``  — parse a fermionic Hamiltonian file, Jordan-Wigner
  transform it, and print the selection-encoded LCU table.
* ``synth``      — synthesize a SELECT circuit and print it in text form,
  each macro written as its one- and two-qubit gates (``emit_text`` reads
  a macro as its lowering; no lowered circuit is built).
* ``resources``  — measure catalogued components against their
  closed-form costs and print a CSV.
* ``verify``     — run the exact basis-state oracle check and print a JSON
  report; exit 1 when it fails.

Hamiltonian files hold one term per line, ``<re> <im> : <factor>...``
with factors ``adag p`` / ``a p`` / ``n p``, an optional trailing
``+hc``, and ``#`` comments.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .circuit_ir import emit_text
from .pauli import (
    FermionHamiltonian,
    FermionTerm,
    Lower,
    Number,
    Raise,
    _validate_term,
    jw_transform,
)
from .select_synth import SelectionLayout, controlled_select, encode_lcu, select_layout
from .resources import check_against_formulas
from .simulator import verify_select

_FACTOR_KINDS = {"adag": Raise, "a": Lower, "n": Number}


def parse_hamiltonian(text: str) -> list[FermionTerm]:
    """Terms from Hamiltonian text; raises ValueError with line numbers.

    Factors are frozen, so each distinct ``<kind> <orbital>`` token pair
    is built once per call and shared by every term that names it."""
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


def _even_at_least_two(value: int) -> int:
    return max(2, value + (value % 2))


def _write(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    terms = parse_hamiltonian(text)
    max_orbitals = max((len(t.orbitals()) for t in terms), default=0)
    try:
        lcu = jw_transform(FermionHamiltonian(args.n, _even_at_least_two(max_orbitals), tuple(terms)))
    except ValueError:  # name the line of a term the transform rejects
        for lineno, raw in enumerate(text.splitlines(), 1):
            for term in parse_hamiltonian(raw):
                try:
                    _validate_term(term, args.n)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        raise
    k, n, table = args.k, args.n, lcu._columns
    if k is None:  # count endpoints and numbers on the split the encoder reuses
        x, _, numbers = table.split
        k = _even_at_least_two(int(np.count_nonzero(x | numbers, axis=1).max(initial=0)))
    layout = SelectionLayout(n, k, "general")
    rows = encode_lcu(lcu, layout)
    width = layout.width
    header = f"# n={n} k={k} selection_width={width} terms={len(rows)}\n# total_alpha={lcu.total_alpha!r}\n"
    # one "<word> %r <sign><letters>" line per row, then every alpha's repr in one format
    lines = np.empty((len(rows), width + n + 6), dtype=np.uint8)
    lines[:, :width] = rows.bits | ord("0")
    lines[:, width:width + 4] = np.frombuffer(b" %r ", dtype=np.uint8)
    lines[:, width + 4] = np.where(table.negative, ord("-"), ord("+"))
    lines[:, width + 5:-1] = table.letters
    lines[:, -1] = ord("\n")
    _write(header + lines.tobytes().decode() % tuple(table.alpha.tolist()), args.output)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    circuit = controlled_select(args.n, args.k, args.variant, args.controls)
    _write(emit_text(circuit), args.output)
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    if args.n is not None:
        n_list = [args.n]
    elif args.n_list is not None:
        try:
            n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"--n-list takes comma-separated integers, got {args.n_list!r}") from None
        if not n_list:
            raise ValueError(f"--n-list names no size: {args.n_list!r}")
    else:
        n_list = [4, 8, 16, 32]
    _write(check_against_formulas(n_list), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if select_layout(args.n, args.k).mode == "k2":  # a bad k is named before the caps
        if args.n > 12:
            raise ValueError("verify handles at most n=12 for k=2")
    elif args.n > 5:
        raise ValueError("verify handles at most n=5 for k>2")
    report = verify_select(args.n, args.k, args.variant, args.trials, args.seed)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0 if report["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiselect",
        description="SELECT-circuit synthesis for Jordan-Wigner Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="Hamiltonian file to encoded LCU table")
    p.add_argument("input", help="Hamiltonian file, or - for stdin")
    p.add_argument("--n", type=int, required=True, help="number of orbitals")
    p.add_argument("--k", type=int, default=None, help="slot count (default: inferred)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("synth", help="emit a lowered SELECT circuit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--variant", choices=("plain", "star"), default="star")
    p.add_argument("--controls", type=int, choices=(0, 1, 2), default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("resources", help="measured vs closed-form costs, CSV")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--n", type=int, default=None)
    sizes.add_argument("--n-list", default=None, help="comma-separated sizes")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("verify", help="oracle check of a synthesized SELECT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--variant", choices=("plain", "star"), default="star")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
