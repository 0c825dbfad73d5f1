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
int bitmasks (x, z), bit p set in x when qubit p carries X or Y and in z
when it carries Z or Y.  A product is then an XOR with its phase taken
from popcounts (Aaronson-Gottesman, quant-ph/0406196), and each image
above is built in O(1).  Strings become ``PauliString.letters`` once, per
output row; ``PauliLCU.masks`` keeps each row's key and ``_number_mask``.

Two consecutive ladder factors f at p and g at q (p < q in every
canonical term) multiply in closed form.  With P = 1 << p, Q = 1 << q and
chain = (Q-1) ^ (P-1), the Z's on qubits p..q-1, the product
Z^{<p} f_p · Z^{<q} g_q is (f_p Z_p) Z_{p+1..q-1} g_q, and X Z = -iY,
Y Z = iX.  So the pair is four strings with x = P | Q and z equal to
chain, chain^Q, chain^P and chain^P^Q, for f's and g's image letters
(X, X), (X, Y), (Y, X) and (Y, Y).  Each coefficient is f's and g's
image coefficients times i^-1 where f gives X and i^+1 where it gives Y.
In the Aaronson-Gottesman phase above, z1 & x2 = 0 here, so those four
units depend on the two factor types alone (``_PAIR_UNITS``).  When no
string of the running product touches qubits p..q, its product with the
pair has phase 0: keys combine by OR and coefficients by one
multiplication.  Every image coefficient is ±½ or ±½i, so these products
equal the factor-by-factor ones exactly.  Number factors, a ladder not
followed by a ladder, and a pair whose span the running product touches
go through ``_mask_mul`` one factor at a time, in factor order (n_p does
not commute with a_p).

``pauli_mul`` and ``pauli_apply`` stay letter-based on purpose: they are
the oracle's code path, and sharing no code with the transform (or with
the decoder) keeps them an independent check of it.  ``pauli_apply`` is
the reference oracle the rest of the package is tested against; it and
``simulator.verify_select`` read a string's flip/phase action from
``_action_masks``, which deliberately shares no code with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

__all__ = [
    "PauliString",
    "PauliLCU",
    "Raise",
    "Lower",
    "Number",
    "FermionTerm",
    "FermionHamiltonian",
    "identity_string",
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


def identity_string(n: int) -> PauliString:
    return PauliString("I" * n, 0)


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


def _action_masks(p: PauliString) -> tuple[int, int, int]:
    """(flip, yz, #Y) of P |b> = i**(phase+#Y) * (-1)^(b . yz) |b XOR flip>, qubit 0 the top bit."""
    bits = lambda letters: int("0" + "".join("01"[c in letters] for c in p.letters), 2)  # noqa: E731
    return bits("XY"), bits("YZ"), p.letters.count("Y")


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
    flip, diag, n_y = _action_masks(p)
    idx = np.arange(1 << n, dtype=np.int64)
    coeff = (1j ** ((p.phase + n_y) % 4)) * np.where(_parity(idx & diag), -1.0, 1.0)
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


Factor = Union[Raise, Lower, Number]


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
    """A sum of fermionic terms on ``n_orbitals`` modes.

    ``k`` is the interaction order bound used by the circuit encoder: no
    term may touch more than k distinct orbitals.
    """

    n_orbitals: int
    k: int
    terms: tuple[FermionTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.k < 2 or self.k % 2:
            raise ValueError(f"interaction order k must be even and >= 2, got {self.k}")
        for t in self.terms:
            touched = len(t.orbitals())
            if touched > self.k:
                raise ValueError(f"term touches {touched} orbitals, exceeding k={self.k}")


@dataclass(frozen=True)
class PauliLCU:
    """A linear combination of unitaries: sum_j alpha_j * P_j.

    Every alpha is strictly positive and every string phase is +1 or -1
    (exponent 0 or 2); signs live in the string phases.  ``masks`` is empty
    or, from the transform, each entry's ``x | z << n | numbers << 2n``.
    """

    n_qubits: int
    entries: tuple[tuple[float, PauliString], ...]
    masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for alpha, ps in self.entries:
            if not alpha > 0:  # NaN too
                raise ValueError(f"alpha must be positive, got {alpha}")
            if ps.phase not in (0, 2):
                raise ValueError(f"LCU entry phase must be +/-1, got i^{ps.phase}")
            if ps.n_qubits != self.n_qubits:
                raise ValueError("entry length does not match n_qubits")

    @property
    def total_alpha(self) -> float:
        return sum(alpha for alpha, _ in self.entries)


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


# Inside the transform a string is the int key ``x | z << n``.  One int,
# not an (x, z) tuple, keeps the merge dicts small.
_I_POWERS = tuple(1j ** k for k in range(4))
# 2 * (z digit) + (x digit), read as ASCII "0"/"1" bytes, is 144 + 2z + x
_MASK_LETTERS = bytes.maketrans(bytes(range(144, 148)), b"IXZY")


def _mask_mul(acc: dict[int, complex], image, n: int) -> dict[int, complex]:
    """Product acc · image of two sums of strings, like terms merged.

    ``acc`` maps keys to coefficients; ``image`` holds (x, z, c) rows.
    With a string read as i^|x&z| X^x Z^z, the product of (x1, z1) and
    (x2, z2) is (x1^x2, z1^z2) times i to the power
    |x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3| (Aaronson-Gottesman).
    """
    low = (1 << n) - 1
    out: dict[int, complex] = {}
    for key, ca in acc.items():
        xa, za = key & low, key >> n
        ya = (xa & za).bit_count()
        for xb, zb, cb in image:
            x, z = xa ^ xb, za ^ zb
            k = ya + (xb & zb).bit_count() + 2 * (za & xb).bit_count() - (x & z).bit_count()
            key_out = x | z << n
            out[key_out] = out.get(key_out, 0.0) + ca * cb * _I_POWERS[k & 3]
    return out


def _letters(key: int, n: int) -> str:
    """IXYZ letters of the string keyed ``x | z << n``, qubit 0 first."""
    # the 2n binary digits of key as base-256 digits: z's n above x's n
    digits = int.from_bytes(bin(key | 1 << 2 * n).encode(), "big")
    low = (1 << 8 * n) - 1
    code = 2 * (digits >> 8 * n & low) + (digits & low)
    return code.to_bytes(n, "little").translate(_MASK_LETTERS).decode()


def _number_mask(x: int, z: int) -> int:
    """Number (Z) factors of the string (x, z), x of even weight: an I
    inside an X/Y pair's Z chain, or a Z outside every chain."""
    covered, rest = 0, x
    while rest:  # consecutive X/Y endpoints u < v pair up
        u = rest & -rest
        rest ^= u
        v = rest & -rest
        rest ^= v
        covered |= v - (u << 1)  # the pair's Z chain, strictly between u and v
    return (covered & ~z) | (z & ~covered & ~x)


# the Y coefficient of a ladder's image, and (type(f), type(g)) -> the
# coefficients of a pair's four strings, in the module docstring's order
_Y_COEFF = {Raise: -0.5j, Lower: 0.5j}
_PAIR_UNITS = {(f, g): (0.5 * 0.5 * -1j, 0.5 * yg * -1j, yf * 0.5 * 1j, yf * yg * 1j)
               for f, yf in _Y_COEFF.items() for g, yg in _Y_COEFF.items()}


def _term_expansion(term: FermionTerm, n: int) -> dict[int, complex]:
    """String coefficients of the term, without its ``+hc`` part.

    a_p and a†_p map to Z^{<p} (X ± iY) / 2 and n_p to (I - Z_p) / 2;
    consecutive ladders use the pair images of the module docstring.
    """
    _validate_term(term, n)
    acc: dict[int, complex] = {0: complex(term.coefficient)}
    support = 0  # every qubit a string of acc may touch
    factors, i = term.factors, 0
    while i < len(factors):
        f, g = factors[i], factors[i + 1] if i + 1 < len(factors) else None
        bit = 1 << f.orbital
        if isinstance(f, Number):
            acc = _mask_mul(acc, ((0, 0, 0.5), (0, bit, -0.5)), n)
            support |= bit
        elif g is None or isinstance(g, Number) or support & ((2 << g.orbital) - bit):
            image = ((bit, bit - 1, 0.5), (bit, (bit << 1) - 1, _Y_COEFF[type(f)]))
            acc = _mask_mul(acc, image, n)
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


def _collect(terms: Iterable[FermionTerm], n: int) -> PauliLCU:
    """Merged LCU of ``terms``: positive alphas, sorted by letters.

    A term with ``include_hc`` contributes c and its conjugate to each
    string (bare letter-strings are Hermitian, so conjugating the
    coefficients conjugates the operator).  A string's sum that is
    exactly zero, or below ``_RESIDUE`` times the largest contribution merged
    into that string, is cancellation residue and is dropped.
    """
    acc: dict[int, complex] = {}
    scale: dict[int, float] = {}
    for term in terms:
        hc = term.include_hc
        for key, c in _term_expansion(term, n).items():
            size = abs(c)
            if hc:
                c += c.conjugate()
            if key in scale:
                acc[key] += c
                if size > scale[key]:
                    scale[key] = size
            else:
                acc[key], scale[key] = c, size
    key_of: dict[str, int] = {}
    complex_part = None  # (letters, c) of the first non-real sum by letters
    for key, c in acc.items():
        if not c:
            continue
        cutoff = _RESIDUE * scale[key]
        if abs(c) < cutoff:
            continue
        letters = _letters(key, n)
        if abs(c.imag) > cutoff:
            if complex_part is None or letters < complex_part[0]:
                complex_part = (letters, c)
            continue
        key_of[letters] = key
    if complex_part is not None:
        letters, c = complex_part
        raise ValueError(
            "expansion has a non-real coefficient "
            f"({c:.3g} on {_shorten(letters)}); the input is not Hermitian — "
            "ladder terms need include_hc"
        )
    # sized up front, and no per-row temporary outlives its row: no heap holes
    entries, masks = [None] * len(key_of), [None] * len(key_of)
    low, new, put = (1 << n) - 1, object.__new__, object.__setattr__
    for i, letters in enumerate(sorted(key_of)):
        key, ps = key_of[letters], new(PauliString)  # letters written from masks: no re-check
        c = acc[key]
        put(ps, "letters", letters)
        put(ps, "phase", 0 if c.real > 0 else 2)
        entries[i] = (abs(c.real), ps)
        masks[i] = key | _number_mask(key & low, key >> n) << 2 * n
    lcu = new(PauliLCU)  # the rows above are valid by construction: no re-check
    put(lcu, "n_qubits", n)
    put(lcu, "entries", tuple(entries))
    put(lcu, "masks", tuple(masks))
    return lcu


def jw_transform_term(term: FermionTerm, n: int) -> PauliLCU:
    """Transform a single Hermitian fermionic term into a Pauli LCU.

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
    return _collect((term,), n)


def jw_transform(h: FermionHamiltonian) -> PauliLCU:
    """Transform a fermionic Hamiltonian; like-strings are merged.

    A merged coefficient that is zero or below 1e-12 times the largest
    contribution merged into its string is dropped as cancellation
    residue, so small terms survive next to large ones.
    """
    return _collect(h.terms, h.n_orbitals)
