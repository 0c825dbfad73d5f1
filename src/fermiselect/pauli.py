"""Pauli-string algebra and the Jordan-Wigner fermion-to-qubit transform.

Conventions used throughout the package:

* Qubit 0 is the leftmost tensor factor and the most significant bit of a
  basis-state index.
* A Pauli string stores its scalar prefactor as an exponent of i, so a
  ``PauliString`` represents the operator ``i**phase * (letters[0] ⊗
  letters[1] ⊗ ...)``.
* Orbital p lives on qubit p, and the transform sends

      a_p   ->  Z_0 .. Z_{p-1} (X_p + i Y_p) / 2
      a†_p  ->  Z_0 .. Z_{p-1} (X_p - i Y_p) / 2
      n_p   ->  (I - Z_p) / 2

Inside the transform a string is held in the symplectic form: a pair of
bitmasks (x, z) of ⌈n/64⌉ uint64 words, bit p set in x when qubit p
carries X or Y and in z when it carries Z or Y.  A product is then an XOR
with its phase taken from popcounts (Aaronson-Gottesman, quant-ph/0406196).
The terms are held as columns grouped by the kinds of their factors (their
signature, ``_Terms``), and all terms of a signature are expanded at once,
one unit at a time in factor order (n_p does not commute with a_p): a
number image, a lone ladder's image, or two consecutive ladders in closed form.

Two consecutive ladder factors f at p and g at q (p < q in every
canonical term) multiply in closed form.  With P = 1 << p, Q = 1 << q and
chain = (Q-1) ^ (P-1), the Z's on qubits p..q-1, the product
Z^{<p} f_p · Z^{<q} g_q is (f_p Z_p) Z_{p+1..q-1} g_q, and X Z = -iY,
Y Z = iX.  So the pair is four strings with x = P | Q and z equal to
chain, chain^Q, chain^P and chain^P^Q, for f's and g's image letters
(X, X), (X, Y), (Y, X) and (Y, Y).  Each coefficient is f's and g's
image coefficients times i^-1 where f gives X and i^+1 where it gives Y.
In the Aaronson-Gottesman phase above, z1 & x2 = 0 here, so those four
units depend on the two factor types alone (``_PAIR_UNITS``).  A ladder
pairs with the next factor only when that is a ladder and no earlier
unit of the term touches qubits p..q; otherwise it is a lone ladder.

A unit that touches no qubit an earlier unit of its term touched has
phase 0 with every string so far: keys combine by OR and coefficients by
one multiplication.  Otherwise (a number on a ladder's orbital or inside
a chain, a lone ladder whose Z string reaches an earlier unit) the phases
come from popcounts and each term's equal strings are merged into the
first, summed in row order.
A term's rows then hold exactly the strings, order and values of the
per-term product of dicts over the same units (the reference in
``tests/conftest.py``).  The merge of all terms runs on columns: the keys
(``_keys``, whose bytes sort as their letters), back in term order, merged
and sorted by one ``np.unique`` and summed by ``np.bincount``, and the kept
keys decoded at once into a (rows, n) letter matrix.  The LCU keeps that matrix
(``PauliLCU._columns``); a row becomes a ``PauliString`` only when
``PauliLCU.entries`` is read, and ``_split`` finds every row's pair
endpoints and number factors at once for the encoder.

``pauli_mul`` and ``pauli_apply`` stay letter-based on purpose: they are
the oracle's code path, and sharing no code with the transform or the
decoder (which writes its letters in place) keeps them an independent
check of both.  ``pauli_apply`` is the reference oracle the rest of the
package is tested against; it reads a string's flip/phase action from its
letters.  ``simulator.verify_select`` reads the same action for every
word at once from ``_split`` of the decoded letters (flip = x, yz = z,
#Y = x & z counted per row), which shares no code with the walk that
plays the circuit.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PauliString",
    "PauliLCU",
    "Raise",
    "Lower",
    "Number",
    "FermionTerm",
    "FermionHamiltonian",
    "pauli_mul",
    "pauli_apply",
    "jw_transform_term",
    "jw_transform",
]

_RESIDUE = 1e-12
_LETTER_SET = frozenset("IXYZ")

# (a, b) -> (a*b letter, power of i picked up).  Products follow the cyclic
# rule X*Y = iZ and friends.
_SINGLE_MUL = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}


@dataclass(frozen=True)
class PauliString:
    """A signed multi-qubit Pauli operator.

    ``letters`` is a word over IXYZ with one letter per qubit; ``phase`` is
    the exponent of i in the scalar prefactor, reduced mod 4.
    """

    letters: str
    phase: int = 0

    def __post_init__(self) -> None:
        if not _LETTER_SET.issuperset(self.letters):
            bad = set(self.letters) - _LETTER_SET
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in {self.letters!r}")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def coefficient(self) -> complex:
        return 1j ** self.phase

    @property
    def weight(self) -> int:
        return sum(1 for ch in self.letters if ch != "I")

    def dagger(self) -> "PauliString":
        return PauliString(self.letters, (-self.phase) % 4)

    def __str__(self) -> str:
        sign = ("+", "+i", "-", "-i")[self.phase]
        return sign + self.letters


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Operator product a·b (matrix product, a applied after b)."""
    if len(a.letters) != len(b.letters):
        raise ValueError("cannot multiply Pauli strings of different lengths")
    phase = a.phase + b.phase
    out = []
    for la, lb in zip(a.letters, b.letters):
        letter, k = _SINGLE_MUL[(la, lb)]
        out.append(letter)
        phase += k
    return PauliString("".join(out), phase % 4)


def _parity(v: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of an integer array."""
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(bool)


def pauli_apply(p: PauliString, amps: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a statevector (reference oracle).

    Every string acts by a bit flip plus a diagonal phase, so the full
    action is one fancy-indexed copy:

        P |b> = i**phase * i**(#Y) * (-1)^(b . yz_mask) |b XOR flip_mask>

    Args:
        p: the Pauli string to apply.
        amps: statevector of length 2**n, qubit 0 most significant, or
            a batch of m such states as the columns of a (2**n, m) array.

    Returns:
        A new statevector (or batch); the input is not modified.
    """
    n = p.n_qubits
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim not in (1, 2) or amps.shape[0] != 1 << n:
        raise ValueError(f"state has shape {amps.shape}, expected ({1 << n},) or ({1 << n}, m)")
    flip, diag = (int("0" + "".join("01"[c in letters] for c in p.letters), 2) for letters in ("XY", "YZ"))
    idx = np.arange(1 << n, dtype=np.int64)
    coeff = (1j ** ((p.phase + p.letters.count("Y")) % 4)) * np.where(_parity(idx & diag), -1.0, 1.0)
    out = np.empty_like(amps)
    out[idx ^ flip] = coeff.reshape((-1,) + (1,) * (amps.ndim - 1)) * amps
    return out


# ---------------------------------------------------------------------------
# Fermionic terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Raise:
    orbital: int


@dataclass(frozen=True)
class Lower:
    orbital: int


@dataclass(frozen=True)
class Number:
    orbital: int


# a PEP 604 union: typing.Union[...] would sit in typing's cache and keep
# every re-imported copy of this module alive
Factor = Raise | Lower | Number


@dataclass(frozen=True)
class FermionTerm:
    """A coefficient times a product of ladder/number operators.

    ``include_hc`` means the term stands for itself plus its Hermitian
    conjugate.  Ladder factors must appear as canonically ordered pairs:
    within each pair the first orbital index is strictly smaller, and with
    two pairs the first pair's indices all precede the second's.
    """

    coefficient: complex
    factors: tuple[Factor, ...]
    include_hc: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))

    def orbitals(self) -> set[int]:
        return {f.orbital for f in self.factors}


@dataclass(frozen=True)
class FermionHamiltonian:
    """A sum of fermionic terms on ``n_orbitals`` modes, valid by construction.

    ``k`` is the interaction order bound used by the circuit encoder: no
    term may touch more than k distinct orbitals.  ``terms`` is held as
    columns (``_Terms``), each term built again when it is read.  After n
    and k, one pass over each signature's columns checks every term for a
    finite coefficient, then the rules of ``_validate_term``, then k; the
    first bad term raises the first it breaks, after ``line <l>: `` when
    the terms carry line numbers.
    """

    n_orbitals: int
    k: int
    terms: Sequence[FermionTerm]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _Terms.of(self.terms))
        terms, n, k = self.terms, self.n_orbitals, self.k
        if n < 0:
            raise ValueError(f"number of orbitals must be non-negative, got {n}")
        if k < 2 or k % 2:
            raise ValueError(f"interaction order k must be even and >= 2, got {k}")
        bad = ~np.isfinite(terms.coefficients)
        for kinds, (index, orbitals) in terms.groups.items():
            ordered = np.sort(orbitals, axis=1)  # a sorted row changes once per extra orbital
            touched = 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
            bad[index] |= _breaks_a_rule(kinds, orbitals, n) | (touched > k)
        if bad.any():  # the first bad term's first broken check, built for that term alone
            t = int(bad.argmax())
            term, where = terms[t], "" if terms.lines is None else f"line {terms.lines[t]}: "
            try:
                if not np.isfinite(term.coefficient):
                    raise ValueError(f"non-finite coefficient {term.coefficient}")
                _validate_term(term, n)
                raise ValueError(f"term touches {len(term.orbitals())} orbitals, exceeding k={k}")
            except ValueError as exc:
                raise ValueError(where + str(exc)) from None


class _Rows(Sequence):
    """Read-only rows that ``row(i)`` builds when they are read.

    ``len`` builds none; indexing and iteration build the rows they
    reach, and ``==`` compares as lists.
    """

    def __init__(self, size: int, row: Callable[[int], tuple]) -> None:
        self._size, self._row = size, row

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(*i.indices(self._size))]
        i = operator.index(i)
        if not -self._size <= i < self._size:
            raise IndexError("row index out of range")
        return self._row(i % self._size)

    def __iter__(self) -> Iterator[tuple]:
        return map(self._row, range(self._size))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, tuple, _Rows)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(list(self))


class _Terms(_Rows):
    """Fermionic terms as columns, read-only; each ``FermionTerm`` is built
    when it is read, and each distinct factor once per sequence.

    ``coefficients`` and ``hc`` hold each term's coefficient and
    ``include_hc``.  ``groups`` maps each factor-kind signature to its
    terms' indices, ascending, and their (terms, factors) orbital matrix
    (object dtype for an orbital beyond int64), built from (kinds, indices,
    flat orbitals) lists.  ``lines`` holds each term's line number, or None.
    """

    def __init__(self, coefficients: list, hc: list, groups: Iterable[tuple], lines=None) -> None:
        self._size, self.lines, self._made, self.groups = len(coefficients), lines, {}, {}
        self.coefficients, self.hc = np.array(coefficients, dtype=complex), np.array(hc, dtype=bool)
        for kinds, index, flat in groups:
            try:
                orbitals = np.array(flat, dtype=np.int64)
            except OverflowError:  # beyond int64: out of range, and only the checks read it
                orbitals = np.array(flat, dtype=object)
            self.groups[kinds] = np.array(index, dtype=np.int64), orbitals.reshape(len(index), len(kinds))

    @classmethod
    def of(cls, terms: Iterable[FermionTerm]) -> "_Terms":
        """``terms`` as columns; ``_Terms`` come back as they are."""
        if isinstance(terms, _Terms):
            return terms
        terms, groups = tuple(terms), {}
        for t, term in enumerate(terms):  # one pass: each term's kinds and orbitals
            kinds = tuple([type(f) for f in term.factors])
            group = groups.setdefault(kinds, (kinds, [], []))
            group[1].append(t)
            group[2].extend([f.orbital for f in term.factors])
        return cls([t.coefficient for t in terms], [t.include_hc for t in terms], groups.values())

    def _row(self, t: int) -> FermionTerm:
        for kinds, (index, orbitals) in self.groups.items():
            row = index.searchsorted(t)
            if row < len(index) and index[row] == t:
                made, orbs = self._made, orbitals[row].tolist()
                factors = tuple([made.setdefault((kind, p), kind(p)) for kind, p in zip(kinds, orbs)])
                return FermionTerm(complex(self.coefficients[t]), factors, bool(self.hc[t]))


@dataclass(frozen=True, eq=False)
class _Columns:
    """An LCU's rows as columns.

    ``letters`` holds the strings as a (rows, n) matrix of ASCII ``IXYZ``
    codes, ``alpha`` the weights and ``negative`` the rows whose sign is -1.
    """

    letters: np.ndarray
    alpha: np.ndarray
    negative: np.ndarray

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_split`` of the letters, made once for every reader."""
        return _split(self.letters)

    def row(self, i: int) -> tuple[float, PauliString]:
        return float(self.alpha[i]), PauliString(self.letters[i].tobytes().decode(), 2 * int(self.negative[i]))


_X, _Y, _Z = b"XYZ"


def _split(letters: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, numbers) 0/1 matrices of (rows, n) ASCII IXYZ letters.

    x marks the X/Y letters, the endpoints of the ladder pairs: the first
    and second pair up, then the third and fourth.  z marks Z/Y.  numbers
    marks the number (Z) factors: an I inside a pair's Z chain, or a Z
    outside every chain.  A qubit that is no endpoint is inside a chain
    when an odd count of endpoints precedes it.
    """
    x = (letters == _X) | (letters == _Y)
    z = (letters == _Z) | (letters == _Y)
    return x, z, (np.logical_xor.accumulate(x, axis=1) ^ z) & ~x


@dataclass(frozen=True)
class PauliLCU:
    """A linear combination of unitaries: sum_j alpha_j * P_j.

    Every alpha is strictly positive and every string phase is +1 or -1
    (exponent 0 or 2); signs live in the string phases.  The transform
    holds its table as columns (``_columns``), and its ``entries`` are a
    read-only view that builds each (alpha, PauliString) row when it is
    read; an LCU built from entries makes its columns on first use.
    """

    n_qubits: int
    entries: Sequence[tuple[float, PauliString]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for alpha, ps in self.entries:
            if not alpha > 0:  # NaN too
                raise ValueError(f"alpha must be positive, got {alpha}")
            if ps.phase not in (0, 2):
                raise ValueError(f"LCU entry phase must be +/-1, got i^{ps.phase}")
            if ps.n_qubits != self.n_qubits:
                raise ValueError("entry length does not match n_qubits")

    @cached_property
    def _columns(self) -> _Columns:
        letters = np.frombuffer("".join(ps.letters for _, ps in self.entries).encode(), dtype=np.uint8)
        return _Columns(letters.reshape(len(self.entries), self.n_qubits),
                        np.array([alpha for alpha, _ in self.entries], dtype=float),
                        np.array([ps.phase == 2 for _, ps in self.entries], dtype=bool))

    @property
    def total_alpha(self) -> float:
        """The alphas summed one after another in row order."""
        return sum(self._columns.alpha.tolist(), 0.0)


def _validate_term(term: FermionTerm, n: int) -> None:
    for f in term.factors:
        if not 0 <= f.orbital < n:
            raise ValueError(f"orbital {f.orbital} out of range for n={n}")
    ladders = [f for f in term.factors if isinstance(f, (Raise, Lower))]
    if len(ladders) not in (0, 2, 4):
        raise ValueError(
            f"expected 0, 2 or 4 ladder factors per term, got {len(ladders)}"
        )
    pairs = [tuple(ladders[i : i + 2]) for i in range(0, len(ladders), 2)]
    for first, second in pairs:
        p = first.orbital
        if p == second.orbital:  # no conjugate rewrite helps: say what the pair is
            holds = (f"a_{p} a_{p} and a†_{p} a†_{p} are zero" if type(first) is type(second)
                     else f"a†_{p} a_{p} is the number operator, write 'n {p}'" if isinstance(first, Raise)
                     else f"a_{p} a†_{p} is 1 - n_{p}, write it with 'n {p}'")
            raise ValueError(f"ladder pair indices must be strictly increasing, got {p} twice: {holds}")
        if p > second.orbital:
            raise ValueError(
                "non-canonical ladder pair: indices must be strictly increasing "
                f"(got {p}, {second.orbital}); rewrite via the "
                "Hermitian conjugate"
            )
        if isinstance(first, Lower) and isinstance(second, Raise):
            raise ValueError(
                "non-canonical ladder pair a a†: rewrite using a†a and n"
            )
    if len(pairs) == 2 and pairs[0][1].orbital >= pairs[1][0].orbital:
        raise ValueError(
            "non-canonical pair ordering: first pair must precede second"
        )


def _shorten(letters: str) -> str:
    """``letters`` for an error message: whole up to 60 letters, else the
    first 60 and the count."""
    return letters if len(letters) <= 60 else f"{letters[:60]}… ({len(letters)} letters)"


# the ASCII letter of each key code 2 * (z bit) + (x bit ^ z bit), in letter order
_LETTER_CODES = np.frombuffer(b"IXYZ", dtype=np.uint8)
# the set bits of each byte value, the masks (1 << b) - 1 for b = 0..64, and i**k
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)])
_LOW = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)
_I_POWERS = np.array([1j ** k for k in range(4)])
_KEY_ROWS = 1 << 10  # rows per block of ``_keys``

# the Y coefficient of a ladder's image, and (type(f), type(g)) -> the
# coefficients of a pair's four strings, in the module docstring's order
_Y_COEFF = {Raise: -0.5j, Lower: 0.5j}
_PAIR_UNITS = {(f, g): (0.5 * 0.5 * -1j, 0.5 * yg * -1j, yf * 0.5 * 1j, yf * yg * 1j)
               for f, yf in _Y_COEFF.items() for g, yg in _Y_COEFF.items()}


def _span(lo, hi, words: int) -> np.ndarray:
    """Masks with bits lo..hi-1 set, as rows of ``words`` uint64 words (word
    0 holds bits 0..63), one row per entry of the column arrays lo and hi."""
    base = np.arange(0, 64 * words, 64)
    return _LOW[np.clip(hi - base, 0, 64)] ^ _LOW[np.clip(lo - base, 0, 64)]


def _popcount(v: np.ndarray) -> np.ndarray:
    """Set bits of each row of uint64 words (the last axis)."""
    return _POPCOUNT[v.view(np.uint8)].sum(axis=-1)


def _breaks_a_rule(kinds: tuple, orbitals: np.ndarray, n: int) -> np.ndarray:
    """Which terms of one factor signature break a rule of ``_validate_term``,
    one bool per row of ``orbitals``, the terms' (terms, factors) matrix."""
    ladders = [i for i, kind in enumerate(kinds) if kind is not Number]
    if len(ladders) not in (0, 2, 4) or any(kinds[a] is Lower and kinds[b] is Raise
                                             for a, b in zip(ladders[::2], ladders[1::2])):
        return np.ones(len(orbitals), dtype=bool)
    bad = ((orbitals < 0) | (orbitals >= n)).any(axis=1)
    for a, b in zip(ladders, ladders[1:]):  # pairs increase, and the first precedes the second
        bad |= orbitals[:, a] >= orbitals[:, b]
    return bad.astype(bool)


def _merge(at, x, z, c):
    """Rows of each term with equal (x, z) merged into the first of them,
    their coefficients added in row order; ``at`` names each row's term."""
    order = np.lexsort((*z.T, *x.T, at))  # stable: equal rows keep their order
    sa, sx, sz = at[order], x[order], z[order]
    new = np.ones(len(at), dtype=bool)
    new[1:] = (sa[1:] != sa[:-1]) | (sx[1:] != sx[:-1]).any(axis=1) | (sz[1:] != sz[:-1]).any(axis=1)
    index = np.arange(len(at))
    start = np.maximum.accumulate(np.where(new, index, 0))
    rank, first = index - start, order[start]
    for r in range(1, rank.max(initial=0) + 1):  # each first row takes one addend per pass
        step = rank == r
        c[first[step]] += c[order[step]]
    keep = np.zeros(len(at), dtype=bool)
    keep[order[new]] = True
    return at[keep], x[keep], z[keep], c[keep]


def _times(at, x, z, c, xs, zs, units, general: bool):
    """Rows (term, x, z, c) times one unit: per term the strings (xs[j],
    zs[j]), each a per-term mask row, with coefficients units[j].

    ``general`` takes the phases from popcounts and merges each term's
    equal strings; without it the unit must touch no qubit the rows touch.
    """
    xa, za = x[:, None], z[:, None]
    xb, zb = np.stack(xs, axis=1)[at], np.stack(zs, axis=1)[at]
    x, z, c = xa ^ xb, za ^ zb, c[:, None] * np.array(units)
    if general:
        k = _popcount(xa & za) + _popcount(xb & zb) + 2 * _popcount(za & xb) - _popcount(x & z)
        c *= _I_POWERS[k & 3]
    rows = np.repeat(at, len(units)), x.reshape(-1, x.shape[2]), z.reshape(-1, z.shape[2]), c.ravel()
    return _merge(*rows) if general else rows


def _keys(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Keys of (rows, ⌈n/64⌉-word) masks: each string's 2-bit letter codes
    (``_LETTER_CODES``), qubit 0 first, packed big-endian into rows of
    8⌈2n/64⌉ bytes, so that the keys' byte order is the letters' order."""
    keys = np.empty((len(x), 8 * max(1, -(-2 * n // 64))), dtype=np.uint8)
    bits = np.zeros((min(len(x), _KEY_ROWS), 8 * keys.shape[1]), dtype=np.uint8)
    for lo in range(0, len(x), _KEY_ROWS):  # a byte per key bit: one block of rows at a time
        xb, zb = (np.unpackbits(m[lo:lo + _KEY_ROWS].astype("<u8").view(np.uint8), axis=1, count=n,
                                bitorder="little") for m in (x, z))
        bits[:len(xb), 0:2 * n:2], bits[:len(xb), 1:2 * n:2] = zb, xb ^ zb
        keys[lo:lo + len(xb)] = np.packbits(bits[:len(xb)], axis=1)
    return keys


def _expand_kinds(kinds: tuple, orbitals: np.ndarray, coefficients: np.ndarray, n: int):
    """Strings of the terms with factor kinds ``kinds``, without ``+hc``.

    ``orbitals`` is the terms' (terms, factors) matrix.  Returns rows (term,
    key, c): the term's row in ``orbitals``, the key (a row of ``_keys``
    bytes) and the coefficient, each term's rows as the module docstring says.
    """
    count, size = orbitals.shape
    words = max(1, -(-n // 64))
    # The factor walk, for every term at once.  A ladder pairs with the next
    # factor when that is a ladder and no earlier unit touches the pair's
    # qubits; bit j of ``plan`` marks a pair opened by the term's ladder j.
    # ``overlap`` marks the units that touch a qubit an earlier one touched.
    support = np.zeros((count, words), dtype=np.uint64)
    plan = np.zeros(count, dtype=np.int64)
    overlap = np.zeros((count, size), dtype=bool)
    closes = np.zeros(count, dtype=bool)  # this factor is the second of a pair
    ladder = 0
    for i, kind in enumerate(kinds):
        p = orbitals[:, i, None]
        if kind is Number:
            span = _span(p, p + 1, words)
        else:
            span, pair = _span(0, p + 1, words), np.zeros(count, dtype=bool)
            if i + 1 < size and kinds[i + 1] is not Number:
                chain = _span(p, orbitals[:, i + 1, None] + 1, words)
                pair = ~closes & ~(support & chain).any(axis=1)
                span[pair] = chain[pair]
                plan |= pair.astype(np.int64) << ladder
            span[closes] = 0
            closes, ladder = pair, ladder + 1
        overlap[:, i] = (support & span).any(axis=1)
        support |= span

    parts = []
    for code in sorted(set(plan.tolist())):
        terms = np.flatnonzero(plan == code)
        orbs = orbitals[terms]
        at = np.arange(len(terms))  # each row's term, as a row of orbs
        x = z = np.zeros((len(terms), words), dtype=np.uint64)
        c = coefficients[terms]
        i = ladder = 0
        while i < size:
            kind, p, general = kinds[i], orbs[:, i, None], bool(overlap[terms, i].any())
            bit, step = _span(p, p + 1, words), 1
            if kind is Number:
                zero = np.zeros_like(bit)
                xs, zs, units = (zero, zero), (zero, bit), (0.5, -0.5)
            elif code >> ladder & 1:  # a pair on qubits no earlier unit touches
                q, step = orbs[:, i + 1, None], 2
                xs = (bit | _span(q, q + 1, words),) * 4
                zs = (_span(p, q, words), _span(p, q + 1, words), _span(p + 1, q, words), _span(p + 1, q + 1, words))
                units = _PAIR_UNITS[kind, kinds[i + 1]]
            else:
                xs, zs, units = (bit, bit), (_span(0, p, words), _span(0, p + 1, words)), (0.5, _Y_COEFF[kind])
            at, x, z, c = _times(at, x, z, c, xs, zs, units, general)
            i, ladder = i + step, ladder + (kind is not Number) * step
        parts.append((terms[at], _keys(x, z, n), c))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _expand(terms: _Terms, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term's strings, without its ``+hc`` part, in term order.

    Returns (term, keys, c): each row's term index, its key (a row of
    ``_keys`` bytes) and its coefficient.  The terms must be those of a
    ``FermionHamiltonian`` on n orbitals, which checked them.
    """
    empty = np.zeros((0, 1), dtype=np.uint64)
    parts = [(np.zeros(0, dtype=np.int64), _keys(empty, empty, n), np.zeros(0, dtype=complex))]
    for kinds, (index, orbitals) in terms.groups.items():
        at, keys, c = _expand_kinds(kinds, orbitals, terms.coefficients[index], n)
        parts.append((index[at], keys, c))
    term, keys, c = map(np.concatenate, zip(*parts))
    del parts
    order = np.argsort(term, kind="stable")  # each term's rows stay in their order
    keys = keys[order]
    c = c[order]
    return term[order], keys, c


def _key_letters(keys: np.ndarray, n: int) -> np.ndarray:
    """ASCII IXYZ letters, qubit 0 first, of the rows of ``_keys`` bytes."""
    bits = np.unpackbits(keys, axis=1, count=2 * n)
    return _LETTER_CODES[2 * bits[:, 0::2] + bits[:, 1::2]]


def _collect(terms: _Terms, n: int) -> PauliLCU:
    """Merged LCU of ``terms``: positive alphas, sorted by letters.

    A term with ``include_hc`` contributes c and its conjugate to each
    string (bare letter-strings are Hermitian, so conjugating the
    coefficients conjugates the operator).  A string's sum that is
    exactly zero, or below ``_RESIDUE`` times the largest contribution merged
    into that string, is cancellation residue and is dropped.

    The merge runs on columns: ``_expand`` gives every (key, coefficient)
    of every term, expanded one factor signature at a time and put back in
    term order.  One ``np.unique`` merges the keys and so sorts them by
    letters; ``np.bincount`` adds the contributions to a key in term
    order, as a running sum would.
    """
    term, keys, c = _expand(terms, n)
    width = keys.shape[1]
    merged, at = np.unique(keys.view(">u8" if width == 8 else f"V{width}")[:, 0], return_inverse=True)
    hc = terms.hc[term]
    scale = np.zeros(len(merged))
    np.maximum.at(scale, at, np.hypot(c.real, c.imag))
    re = np.bincount(at, np.where(hc, 2 * c.real, c.real), len(merged))
    im = np.bincount(at, np.where(hc, 0.0, c.imag), len(merged))
    cutoff = _RESIDUE * scale
    keep = ((re != 0) | (im != 0)) & ~(np.hypot(re, im) < cutoff)
    letters = _key_letters(merged[keep].view(np.uint8).reshape(-1, width), n)
    re, im, cutoff = re[keep], im[keep], cutoff[keep]
    complex_part = np.abs(im) > cutoff
    if complex_part.any():  # the first non-real sum by letters
        i = complex_part.argmax()
        raise ValueError(
            "expansion has a non-real coefficient "
            f"({complex(re[i], im[i]):.3g} on {_shorten(letters[i].tobytes().decode())}); "
            "the input is not Hermitian — ladder terms need include_hc"
        )
    table = _Columns(letters, np.abs(re), ~(re > 0))
    lcu = object.__new__(PauliLCU)  # the rows above are valid by construction: no re-check
    object.__setattr__(lcu, "n_qubits", n)
    object.__setattr__(lcu, "entries", _Rows(len(re), table.row))
    object.__setattr__(lcu, "_columns", table)
    return lcu


def jw_transform_term(term: FermionTerm, n: int) -> PauliLCU:
    """``jw_transform`` of the one-term Hamiltonian, with a k that cannot bind.

    Args:
        term: a canonical fermionic term (see FermionTerm).  The term must
            be Hermitian, either intrinsically (number products) or via
            ``include_hc``.
        n: total number of orbitals / qubits.

    Returns:
        PauliLCU with positive alphas, signs pushed into string phases and
        entries sorted by letters.  A coefficient that is zero or below
        1e-12 times the largest contribution to its string is dropped.
    """
    return jw_transform(FermionHamiltonian(n, max(2, 2 * len(term.factors)), (term,)))


def jw_transform(h: FermionHamiltonian) -> PauliLCU:
    """Transform a fermionic Hamiltonian; like-strings are merged.

    A merged coefficient that is zero or below 1e-12 times the largest
    contribution merged into its string is dropped as cancellation
    residue, so small terms survive next to large ones.
    """
    return _collect(h.terms, h.n_orbitals)
