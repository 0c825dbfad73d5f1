"""Pauli algebra, the statevector oracle, and the Jordan-Wigner transform.

The dense Kronecker-product matrices in conftest are the independent
reference for everything here; pauli_mul / pauli_apply never touch
matrices themselves.
"""

import itertools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermiselect.pauli import (
    FermionHamiltonian,
    FermionTerm,
    Lower,
    Number,
    PauliLCU,
    PauliString,
    Raise,
    jw_transform,
    jw_transform_term,
    pauli_apply,
    pauli_mul,
)
from fermiselect import pauli
from fermiselect.pauli import _RESIDUE, _key_letters, _shorten

from conftest import dense_pauli, kron_chain, mask_mul, term_expansion, SINGLE

letters_st = st.text(alphabet="IXYZ", min_size=1, max_size=4)
phase_st = st.integers(min_value=0, max_value=3)


def test_phase_normalization_and_coefficient():
    assert PauliString("X", 5).phase == 1
    assert PauliString("X", -1).phase == 3
    assert PauliString("X", 2).coefficient == -1
    assert PauliString("X", 3).coefficient == -1j


def test_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString("XQ", 0)


def test_weight_and_str():
    ps = PauliString("XIZY", 2)
    assert ps.weight == 3
    assert str(ps) == "-XIZY"
    assert str(PauliString("Z", 0)) == "+Z"


def test_mul_frozen_value():
    # (X@Z)(Y@Z) = i Z@I, checked against the 4x4 matmul below
    r = pauli_mul(PauliString("XZ", 0), PauliString("YZ", 0))
    assert (r.letters, r.phase) == ("ZI", 1)


def test_apply_frozen_value():
    # X0 Z1 Y2 |000> = i |101>
    out = pauli_apply(PauliString("XZY", 0), np.eye(8, dtype=complex)[0])
    expect = np.zeros(8, dtype=complex)
    expect[0b101] = 1j
    assert np.abs(out - expect).max() < 1e-12


def test_dagger():
    ps = PauliString("XY", 1)
    assert ps.dagger().phase == 3
    r = pauli_mul(ps, ps.dagger())
    assert r.letters == "II" and r.phase == 0


@settings(max_examples=80, deadline=None)
@given(letters_st, phase_st, phase_st, st.data())
def test_mul_matches_dense(la, pa, pb, data):
    lb = data.draw(st.text(alphabet="IXYZ", min_size=len(la), max_size=len(la)))
    a, b = PauliString(la, pa), PauliString(lb, pb)
    r = pauli_mul(a, b)
    ref = dense_pauli(la, pa) @ dense_pauli(lb, pb)
    assert np.abs(dense_pauli(r.letters, r.phase) - ref).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(letters_st, phase_st, st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_matches_dense(letters, phase, seed):
    ps = PauliString(letters, phase)
    rng = np.random.default_rng(seed)
    n = len(letters)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    assert np.abs(pauli_apply(ps, v) - dense_pauli(letters, phase) @ v).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(letters_st, phase_st, st.integers(min_value=1, max_value=4), st.integers(0, 2**32 - 1))
def test_apply_batch_matches_dense(letters, phase, m, seed):
    ps = PauliString(letters, phase)
    rng = np.random.default_rng(seed)
    n = len(letters)
    vs = rng.standard_normal((1 << n, m)) + 1j * rng.standard_normal((1 << n, m))
    assert np.abs(pauli_apply(ps, vs) - dense_pauli(letters, phase) @ vs).max() < 1e-10


def test_apply_rejects_wrong_length():
    ps = PauliString("XZ", 0)
    for shape in [(3,), (8,), (3, 2), (8, 2), (4, 2, 2)]:
        with pytest.raises(ValueError, match="shape"):
            pauli_apply(ps, np.zeros(shape))


@settings(max_examples=40, deadline=None)
@given(letters_st, phase_st)
def test_apply_involution_for_hermitian(letters, phase):
    # P with a real sign squares to the identity
    ps = PauliString(letters, 2 * (phase % 2))
    v = np.arange(1 << len(letters), dtype=complex) + 1
    assert np.abs(pauli_apply(ps, pauli_apply(ps, v)) - v).max() < 1e-12


# --- fermionic terms -------------------------------------------------------


def ladder_matrix(n, p, dag):
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    if dag:
        a = a.conj().T
    return kron_chain([SINGLE["Z"]] * p + [a] + [SINGLE["I"]] * (n - p - 1))


def number_matrix(n, p):
    return ladder_matrix(n, p, True) @ ladder_matrix(n, p, False)


def dense_term(term: FermionTerm, n: int) -> np.ndarray:
    mat = np.eye(1 << n, dtype=complex) * term.coefficient
    for f in term.factors:
        if isinstance(f, Raise):
            mat = mat @ ladder_matrix(n, f.orbital, True)
        elif isinstance(f, Lower):
            mat = mat @ ladder_matrix(n, f.orbital, False)
        else:
            mat = mat @ number_matrix(n, f.orbital)
    if term.include_hc:
        mat = mat + mat.conj().T
    return mat


def lcu_matrix(lcu: PauliLCU) -> np.ndarray:
    n = lcu.n_qubits
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for alpha, ps in lcu.entries:
        out = out + alpha * dense_pauli(ps.letters, ps.phase)
    return out


def test_jw_hopping_frozen_value():
    # a†0 a2 + hc on three orbitals
    lcu = jw_transform_term(FermionTerm(1.0, (Raise(0), Lower(2)), True), 3)
    got = {(str(ps), alpha) for alpha, ps in lcu.entries}
    assert got == {("+XZX", 0.5), ("+YZY", 0.5)}


@pytest.mark.parametrize(
    "term,n",
    [
        (FermionTerm(1.0, (Number(0),), False), 1),
        (FermionTerm(0.25, (Number(1),), False), 3),
        (FermionTerm(1.0, (Raise(0), Lower(1)), True), 2),
        (FermionTerm(0.3 + 0.4j, (Raise(0), Lower(3)), True), 4),
        (FermionTerm(1j, (Raise(1), Lower(2)), True), 4),
        (FermionTerm(0.7, (Raise(0), Raise(1), Lower(2), Lower(3)), True), 4),
        (FermionTerm(0.2 - 0.9j, (Raise(0), Lower(1), Raise(2), Lower(3)), True), 4),
        (FermionTerm(0.5, (Lower(0), Lower(2)), True), 3),
        (FermionTerm(0.5, (Raise(1), Raise(3)), True), 4),
        (FermionTerm(0.8, (Number(0), Number(2)), False), 3),
        (FermionTerm(1.0, (Raise(0), Lower(1), Number(3)), True), 4),
        (FermionTerm(1.0, (Raise(0), Lower(2), Number(1)), True), 3),
    ],
)
def test_jw_matches_dense_ladder_oracle(term, n):
    lcu = jw_transform_term(term, n)
    assert np.abs(lcu_matrix(lcu) - dense_term(term, n)).max() < 1e-12
    for alpha, ps in lcu.entries:
        assert alpha > 0
        assert ps.phase in (0, 2)


def test_jw_hamiltonian_merges_terms():
    # n_0 appears twice; identity and Z0 coefficients add up
    h = FermionHamiltonian(
        2,
        2,
        (
            FermionTerm(1.0, (Number(0),), False),
            FermionTerm(1.0, (Number(0),), False),
        ),
    )
    lcu = jw_transform(h)
    assert {(str(ps), alpha) for alpha, ps in lcu.entries} == {("+II", 1.0), ("-ZI", 1.0)}
    assert lcu.total_alpha == pytest.approx(2.0)


def test_jw_cancellation_drops_entry():
    # n_0 - 1/2 leaves only the Z part
    h = FermionHamiltonian(
        1,
        2,
        (
            FermionTerm(1.0, (Number(0),), False),
            FermionTerm(-0.5, (), False),
        ),
    )
    lcu = jw_transform(h)
    assert [str(ps) for _, ps in lcu.entries] == ["-Z"]


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="[Hh]ermit"):
        jw_transform_term(FermionTerm(1.0, (Raise(0), Lower(1)), False), 2)


def test_canonical_order_enforced():
    with pytest.raises(ValueError, match="canonical"):
        jw_transform_term(FermionTerm(1.0, (Lower(0), Raise(1)), True), 2)
    with pytest.raises(ValueError, match="increasing"):
        jw_transform_term(FermionTerm(1.0, (Raise(2), Lower(1)), True), 3)
    with pytest.raises(ValueError, match="increasing"):
        jw_transform_term(FermionTerm(1.0, (Raise(0), Lower(0)), True), 2)
    with pytest.raises(ValueError, match="pair"):
        # pairs must not interleave
        jw_transform_term(
            FermionTerm(1.0, (Raise(0), Raise(2), Lower(1), Lower(3)), True), 4
        )


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_lcu_rejects_a_non_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        PauliLCU(1, ((alpha, PauliString("Z")),))


def test_orbital_range_checked():
    with pytest.raises(ValueError):
        jw_transform_term(FermionTerm(1.0, (Number(3),), False), 2)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        FermionHamiltonian(4, 3, ())  # odd k
    with pytest.raises(ValueError):
        FermionHamiltonian(
            4, 2, (FermionTerm(1.0, (Raise(0), Raise(1), Lower(2), Lower(3)), True),)
        )  # 4 orbitals > k=2


def test_hamiltonian_names_the_first_term_over_k_in_term_order():
    # orbitals are counted once each (n_1 n_1 n_2 touches two); the first term
    # over k wins, whichever signature it is in
    ok = FermionTerm(1.0, (Number(1), Number(1), Number(2)))
    four = FermionTerm(1.0, (Raise(0), Number(1), Number(2), Lower(3)), True)
    three = FermionTerm(1.0, (Number(0), Number(1), Number(2)))
    with pytest.raises(ValueError, match=r"^term touches 4 orbitals, exceeding k=2$"):
        FermionHamiltonian(4, 2, (ok, four, three))
    with pytest.raises(ValueError, match=r"^term touches 3 orbitals, exceeding k=2$"):
        FermionHamiltonian(4, 2, (ok, three, four))
    assert FermionHamiltonian(4, 4, (ok, four, three)).terms == [ok, four, three]


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1, float("nan"))], ids=["nan", "inf", "1+nanj"])
def test_a_non_finite_coefficient_is_rejected(c):
    # it passed every check: the transform made rows such as (nan, -II),
    # with numpy warnings, and packed them into the LCU
    term = FermionTerm(c, (Number(0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite coefficient \("):
            FermionHamiltonian(2, 2, (term,))
        with pytest.raises(ValueError, match=r"^non-finite coefficient \("):
            jw_transform_term(term, 2)


def test_hamiltonian_names_the_first_bad_term_and_its_first_broken_check():
    # the terms are checked when the Hamiltonian is built: within a term a
    # non-finite coefficient comes first, then a rule, then k; across terms
    # the first bad one wins, whichever check it breaks
    both = FermionTerm(1.0, (Number(0), Number(1), Number(5)))  # out of range and over k=2
    over = FermionTerm(1.0, (Number(0), Number(1), Number(2)))
    rule = FermionTerm(1.0, (Raise(2), Lower(1)), True)
    with pytest.raises(ValueError, match=r"^orbital 5 out of range for n=4$"):
        FermionHamiltonian(4, 2, (both,))
    with pytest.raises(ValueError, match=r"^non-finite coefficient \(inf\+0j\)$"):
        FermionHamiltonian(4, 2, (FermionTerm(float("inf"), both.factors),))
    with pytest.raises(ValueError, match=r"^non-canonical ladder pair: indices must be strictly increasing"):
        FermionHamiltonian(4, 2, (rule, over))
    with pytest.raises(ValueError, match=r"^term touches 3 orbitals, exceeding k=2$"):
        FermionHamiltonian(4, 2, (over, rule))


def test_jw_transform_term_is_the_one_term_hamiltonian():
    # one entrance: the same checks, with a k that cannot bind
    term = FermionTerm(0.5 - 0.25j, (Raise(0), Number(1), Number(2), Number(3), Lower(4)), True)
    assert jw_transform_term(term, 5) == jw_transform(FermionHamiltonian(5, 10, (term,)))
    with pytest.raises(ValueError, match="non-negative, got -1"):
        jw_transform_term(term, -1)


def test_pauli_mul_rejects_strings_of_different_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        pauli_mul(PauliString("X"), PauliString("XY"))


def test_lcu_rejects_an_imaginary_phase_and_a_wrong_length():
    for phase in (1, 3):
        with pytest.raises(ValueError, match=rf"^LCU entry phase must be \+/-1, got i\^{phase}$"):
            PauliLCU(1, ((1.0, PauliString("Z", phase)),))
    with pytest.raises(ValueError, match="^entry length does not match n_qubits$"):
        PauliLCU(2, ((1.0, PauliString("Z")),))


def test_hamiltonian_rejects_a_negative_orbital_count():
    # it reached numpy, which failed on shapes (0,3) and (0,55)
    with pytest.raises(ValueError, match="non-negative, got -3"):
        jw_transform(FermionHamiltonian(-3, 2, ()))
    assert len(jw_transform(FermionHamiltonian(0, 2, ())).entries) == 0  # no orbital at all is fine


def test_empty_table_total_alpha_is_a_float():
    assert repr(jw_transform(FermionHamiltonian(2, 2, ())).total_alpha) == "0.0"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)
@example(0, 0, 1e-12)  # a uniformly small term must not be dropped
# a small real part next to a large imaginary one is input, not residue
@example(0, 0, 1e-12 + 1j)
@example(0, 0, 1e-12 + 2j)
@example(0, 0, 0j)  # every string sums to an exact zero
def test_jw_pair_hermitian_property(p, dq, coeff):
    # every transformed hopping term is a Hermitian LCU matching the oracle
    q = p + 1 + dq
    n = q + 1
    term = FermionTerm(coeff, (Raise(p), Lower(q)), True)
    lcu = jw_transform_term(term, n)
    mat = lcu_matrix(lcu)
    assert np.abs(mat - mat.conj().T).max() < 1e-12
    assert np.abs(mat - dense_term(term, n)).max() < 1e-12


# --- bitmask strings inside the transform --------------------------------------


def masks_of(letters):
    """(x, z) bitmasks of a letter word: bit p marks an X/Y (Z/Y) at qubit p."""
    x = sum(1 << p for p, ch in enumerate(letters) if ch in "XY")
    z = sum(1 << p for p, ch in enumerate(letters) if ch in "ZY")
    return x, z


same_length_pair_st = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 2)
)


@settings(max_examples=200, deadline=None)
@given(same_length_pair_st, phase_st, phase_st)
@example(("XYZI", "YZXI"), 1, 3)
def test_mask_product_matches_pauli_mul(pair, pa, pb):
    la, lb = pair
    n = len(la)
    (xa, za), (xb, zb) = masks_of(la), masks_of(lb)
    got = mask_mul({xa | za << n: 1j**pa}, [(xb, zb, 1j**pb)], n)
    want = pauli_mul(PauliString(la, pa), PauliString(lb, pb))
    x, z = masks_of(want.letters)
    assert got == {x | z << n: 1j**want.phase}


def letters_of(key, n):
    """The letters of a ``mask_mul`` key ``x | z << n``."""
    return "".join("IXZY"[(key >> p & 1) + 2 * (key >> n + p & 1)] for p in range(n))


def edge_batch(n):
    """Words of n letters that differ first at qubit 0, around the key word
    boundaries (qubits 31/32 and 63/64) or at the last qubit."""
    return ["I" * n] + [("Z" * p + c + "X" * n)[:n] for p in {0, 31, 32, 63, 64, n - 1} if 0 <= p < n
                        for c in "ZYXI"]


# every length the sort check must see: one key word, its boundary, and
# keys that cross one and two word boundaries
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 31, 32, 33, 64, 65, 130]), st.integers(0, 140)).flatmap(
    lambda n: st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=6)))
@example(["IIIIIIII"])
@example(edge_batch(0))
@example(edge_batch(1))
@example(edge_batch(31))
@example(edge_batch(32))
@example(edge_batch(33))
@example(edge_batch(64))
@example(edge_batch(65))
@example(edge_batch(130))
def test_mask_letters_roundtrip(batch):
    # letters -> masks -> _keys -> _key_letters gives the letters back, and
    # the keys' bytes sort as the letters do
    n, words = len(batch[0]), max(1, -(-len(batch[0]) // 64))
    x, z = (np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in ms), dtype="<u8").reshape(-1, words)
            for ms in zip(*map(masks_of, batch)))
    keys = pauli._keys(x, z, n)
    assert keys.shape == (len(batch), 8 * max(1, -(-2 * n // 64)))
    assert [row.tobytes().decode() for row in _key_letters(keys, n)] == batch
    by_bytes = sorted(range(len(batch)), key=lambda i: keys[i].tobytes())
    assert by_bytes == sorted(range(len(batch)), key=batch.__getitem__)


def reference_jw(term, n):
    """jw_transform_term's rows as {letters: real sum}, from letter-form
    images multiplied with pauli_mul and the per-string residue rule."""

    def image(f):
        p = f.orbital
        if isinstance(f, Number):
            return {"I" * n: 0.5, "I" * p + "Z" + "I" * (n - p - 1): -0.5}
        base, tail = "Z" * p, "I" * (n - p - 1)
        return {base + "X" + tail: 0.5, base + "Y" + tail: -0.5j if isinstance(f, Raise) else 0.5j}

    acc = {"I" * n: complex(term.coefficient)}
    for f in term.factors:
        out = {}
        for la, ca in acc.items():
            for lb, cb in image(f).items():
                prod = pauli_mul(PauliString(la), PauliString(lb))
                out[prod.letters] = out.get(prod.letters, 0.0) + ca * cb * 1j**prod.phase
        acc = out
    rows = {}
    for letters, c in acc.items():
        total = c + c.conjugate() if term.include_hc else c
        if total == 0 or abs(total) < 1e-12 * abs(c):
            continue
        assert total.imag == 0
        rows[letters] = total.real
    return rows


@st.composite
def canonical_terms(draw):
    """A canonical Hermitian term on n <= 6 orbitals: up to two ordered
    ladder pairs and up to two number factors placed anywhere."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_pairs = draw(st.integers(min_value=0, max_value=min(2, n // 2)))
    ends = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2 * n_pairs,
                                max_size=2 * n_pairs, unique=True)))
    factors = []
    for u, v in zip(ends[::2], ends[1::2]):
        first, second = draw(st.sampled_from([(Raise, Lower), (Raise, Raise), (Lower, Lower)]))
        factors += [first(u), second(v)]
    for w in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        factors.insert(draw(st.integers(0, len(factors))), Number(w))
    hc = n_pairs > 0 or draw(st.booleans())
    part = st.floats(min_value=-2, max_value=2)
    coefficient = complex(draw(part), draw(part) if hc else 0.0)
    return FermionTerm(coefficient, tuple(factors), hc), n


@settings(max_examples=150, deadline=None)
@given(canonical_terms())
@example((FermionTerm(0.5, (Number(1), Number(1), Number(1)), False), 2))
@example((FermionTerm(1.0, (Number(0), Raise(0), Lower(2), Number(2)), True), 3))
@example((FermionTerm(0.7, (), False), 3))
def test_jw_term_matches_letter_reference(case):
    term, n = case
    want = reference_jw(term, n)
    lcu = jw_transform_term(term, n)
    assert [ps.letters for _, ps in lcu.entries] == sorted(want)
    for alpha, ps in lcu.entries:
        c = want[ps.letters]
        assert alpha == abs(c)
        assert ps.phase == (0 if c > 0 else 2)


def test_non_hermitian_message_names_first_string():
    # both Y strings of a bare hopping term survive; the message names the
    # first one in letter order
    with pytest.raises(ValueError, match=r"on XYII\)"):
        jw_transform_term(FermionTerm(1.0, (Raise(0), Lower(1)), False), 4)


def test_non_hermitian_message_is_shortened_at_n_1024():
    with pytest.raises(ValueError) as info:
        jw_transform_term(FermionTerm(1.0, (Raise(0), Lower(1023)), False), 1024)
    message = str(info.value)
    assert "XZZZ" in message and "… (1024 letters)" in message and len(message) < 200


# --- the columnar merge ----------------------------------------------------------


def dict_collect(terms, n):
    """The transform's rows by a running dict merge, one contribution at a
    time: (letters, phase, alpha) in letter order, or the (letters, sum) of
    the first non-real sum by letters."""
    acc, scale = {}, {}
    for term in terms:
        hc = term.include_hc
        for key, c in term_expansion(term, n).items():
            size = abs(c)
            if hc:
                c += c.conjugate()
            if key in scale:
                acc[key] += c
                if size > scale[key]:
                    scale[key] = size
            else:
                acc[key], scale[key] = c, size
    rows, complex_parts = [], []
    for key, c in acc.items():
        cutoff = _RESIDUE * scale[key]
        if not c or abs(c) < cutoff:
            continue
        letters = letters_of(key, n)
        if abs(c.imag) > cutoff:
            complex_parts.append((letters, c))
        rows.append((letters, 0 if c.real > 0 else 2, abs(c.real)))
    return min(complex_parts) if complex_parts else sorted(rows)


@st.composite
def merge_cases(draw):
    """Terms on up to six of n <= 70 orbitals, so that strings merge:
    ladder pairs with +hc (real coefficients among them, whose Y/X mixed
    strings sum to exactly 0), number products, coefficients near
    ``_RESIDUE`` and repeated values that cancel."""
    n = draw(st.integers(min_value=1, max_value=70))
    pool = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True)))
    value = st.one_of(st.floats(min_value=-2, max_value=2, allow_subnormal=False),
                      st.floats(min_value=-3e-12, max_value=3e-12, allow_subnormal=False),
                      st.sampled_from([0.5, -0.5, 1.0, 1e-12, -1e-12]))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        n_pairs = draw(st.integers(min_value=0, max_value=min(2, len(pool) // 2)))
        ends = sorted(draw(st.lists(st.sampled_from(pool), min_size=2 * n_pairs,
                                    max_size=2 * n_pairs, unique=True)))
        factors = []
        for u, v in zip(ends[::2], ends[1::2]):
            first, second = draw(st.sampled_from([(Raise, Lower), (Raise, Raise), (Lower, Lower)]))
            factors += [first(u), second(v)]
        factors += [Number(w) for w in draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))]
        imag = draw(value) if n_pairs and draw(st.booleans()) else 0.0
        terms.append(FermionTerm(complex(draw(value), imag), tuple(factors), n_pairs > 0))
    return terms, n


@settings(max_examples=300, deadline=None)
@given(merge_cases())
@example(([FermionTerm(0.5, (Raise(0), Lower(69)), True)] * 2, 70))
@example(([FermionTerm(1.0, (Number(3),)), FermionTerm(-1.0, (Number(3),)),
           FermionTerm(1e-12, (Raise(1), Lower(3)), True)], 5))
# the widest uint64 keys (2n = 64, Z on the last orbital sets the top bit) and the
# narrowest byte keys (2n = 66)
@example(([FermionTerm(0.5, (Raise(0), Lower(31)), True), FermionTerm(-0.25, (Number(31),)),
           FermionTerm(0.5, (Raise(0), Lower(31)), True), FermionTerm(0.75, (Raise(30), Lower(31)), True)], 32))
@example(([FermionTerm(0.5, (Raise(0), Lower(32)), True), FermionTerm(-0.25, (Number(32),)),
           FermionTerm(0.5, (Raise(0), Lower(32)), True), FermionTerm(0.75, (Raise(31), Lower(32)), True)], 33))
def test_columnar_merge_matches_the_dict_merge(case):
    terms, n = case
    want = dict_collect(terms, n)
    if isinstance(want, tuple):  # a non-real sum: named in the message
        letters, c = want
        with pytest.raises(ValueError, match=re.escape(f"({c:.3g} on {_shorten(letters)})")):
            jw_transform(FermionHamiltonian(n, 6, tuple(terms)))
        return
    lcu = jw_transform(FermionHamiltonian(n, 6, tuple(terms)))
    assert [(ps.letters, ps.phase, alpha) for alpha, ps in lcu.entries] == want
    assert repr(lcu.total_alpha) == repr(sum((alpha for _, _, alpha in want), 0.0))


# --- closed-form ladder pairs -----------------------------------------------------


def per_factor_expansion(term, n):
    """The term's strings, one factor image at a time through mask_mul."""
    acc = {0: complex(term.coefficient)}
    for f in term.factors:
        bit = 1 << f.orbital
        if isinstance(f, Number):
            image = ((0, 0, 0.5), (0, bit, -0.5))
        else:
            y_coeff = -0.5j if isinstance(f, Raise) else 0.5j
            image = ((bit, bit - 1, 0.5), (bit, (bit << 1) - 1, y_coeff))
        acc = mask_mul(acc, image, n)
    return acc


@st.composite
def mixed_terms(draw):
    """A canonical term on n <= 8 orbitals: up to two ordered ladder pairs
    and up to three number factors anywhere, often on a ladder orbital;
    any finite coefficient (subnormals too)."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_pairs = draw(st.integers(min_value=0, max_value=min(2, n // 2)))
    ends = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2 * n_pairs,
                                max_size=2 * n_pairs, unique=True)))
    factors = []
    for u, v in zip(ends[::2], ends[1::2]):
        first, second = draw(st.sampled_from([(Raise, Lower), (Raise, Raise), (Lower, Lower)]))
        factors += [first(u), second(v)]
    spots = st.sampled_from(ends) if ends else st.integers(0, n - 1)
    for w in draw(st.lists(st.one_of(spots, st.integers(0, n - 1)), max_size=3)):
        factors.insert(draw(st.integers(0, len(factors))), Number(w))
    part = st.floats(allow_nan=False, allow_infinity=False)
    return FermionTerm(complex(draw(part), draw(part)), tuple(factors), n_pairs > 0), n


def columnar_expansion(terms, n):
    """pauli._expand's rows as one {letters: coefficient} dict per term, in row order."""
    term, keys, c = pauli._expand(pauli._Terms.of(terms), n)
    out = [{} for _ in terms]
    for t, letters, value in zip(term.tolist(), _key_letters(keys, n), c.tolist()):
        out[t][letters.tobytes().decode()] = value
    assert sum(map(len, out)) == len(term)  # no term holds a string twice
    return out


@settings(max_examples=300, deadline=None)
@given(mixed_terms())
@example((FermionTerm(0.3 - 0.7j, (Number(1), Raise(1), Lower(3)), True), 4))
@example((FermionTerm(0.3 - 0.7j, (Raise(1), Lower(3), Number(1)), True), 4))
@example((FermionTerm(0.3 - 0.7j, (Raise(0), Number(2), Lower(3)), True), 4))
@example((FermionTerm(1.1, (Raise(0), Raise(1), Number(2), Lower(2), Lower(4)), True), 5))
@example((FermionTerm(1.1, (Raise(0), Lower(3), Number(4), Raise(4), Raise(5)), True), 6))
@example((FermionTerm(5e-324 + 1.5e-323j, (Raise(0), Raise(1), Lower(2), Lower(3)), True), 4))
# a number on a pair's span before it: two lone ladders, whose subnormal
# parts round differently from one closed-form pair
@example((FermionTerm(-0.6 - 2.5e-323j, (Number(3), Raise(3), Raise(4)), True), 5))
# multi-word keys: numbers on a pair's endpoints, inside its chain, and between
# its ladders (which then expand as lone ladders), chains across a word boundary
@example((FermionTerm(0.3 - 0.7j, (Number(0), Raise(0), Lower(32), Number(16), Number(32)), True), 33))
@example((FermionTerm(-1.25 + 0.5j, (Raise(1), Number(20), Lower(31), Number(31)), True), 33))
@example((FermionTerm(0.5 + 0.25j, (Raise(5), Number(64), Lower(69), Number(63)), True), 70))
@example((FermionTerm(0.3 - 0.7j, (Number(63), Raise(5), Raise(63), Number(64), Lower(64), Lower(69)), True), 70))
@example((FermionTerm(2.0 - 1.5j, (Raise(3), Raise(40), Number(50), Lower(60), Lower(69), Number(40),
                                   Number(65)), True), 70))
def test_term_expansion_matches_per_factor_product(case):
    # the columnar expansion equals the per-term one exactly, in order too;
    # == on the values: the routes may differ in the sign of a zero
    term, n = case
    want = term_expansion(term, n)
    got = columnar_expansion((term,), n)[0]
    assert list(got.items()) == [(letters_of(key, n), c) for key, c in want.items()]
    assert list(want.items()) == list(per_factor_expansion(term, n).items())


def test_ladder_terms_make_no_per_factor_products(monkeypatch):
    # the expansion runs once per factor signature, not once per term, and
    # takes no popcount phases while each unit touches fresh qubits
    signatures, popcounts = [], []
    expand_kinds, popcount = pauli._expand_kinds, pauli._popcount

    def counting_expand(kinds, *args):
        signatures.append(kinds)
        return expand_kinds(kinds, *args)

    def counting_popcount(v):
        popcounts.append(v.shape)
        return popcount(v)

    monkeypatch.setattr(pauli, "_expand_kinds", counting_expand)
    monkeypatch.setattr(pauli, "_popcount", counting_popcount)
    ladders = [FermionTerm(0.4 - 0.2j, (Raise(p), Lower(q)), True) for p, q in itertools.combinations(range(6), 2)]
    ladders += [FermionTerm(0.7, (Raise(1), Raise(4)), True), FermionTerm(-0.3j, (Lower(2), Lower(5)), True)]
    ladders += [FermionTerm(0.25 + 0.5j, (Raise(p), Raise(q), Lower(r), Lower(s)), True)
                for p, q, r, s in itertools.combinations(range(6), 4)]
    lcu = jw_transform(FermionHamiltonian(6, 4, tuple(ladders)))
    assert lcu.entries and len(signatures) == len(set(signatures)) == 4 and popcounts == []
    signatures.clear()
    mixed = [FermionTerm(1.0, (Number(w), Raise(1), Lower(4)), True) for w in range(6)]
    jw_transform(FermionHamiltonian(6, 4, tuple(mixed)))
    assert signatures == [(Number, Raise, Lower)] and popcounts  # a number on a ladder's span takes phases


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.sampled_from([Raise, Lower, Number]), st.integers(-1, n)), max_size=6))))
def test_signature_checks_agree_with_validate_term(case):
    # the array checks of one factor signature flag exactly the terms
    # _validate_term rejects
    n, factors = case
    term = FermionTerm(1.0, tuple(kind(p) for kind, p in factors))
    try:
        pauli._validate_term(term, n)
        valid = True
    except ValueError:
        valid = False
    orbitals = np.array([[p for _, p in factors]], dtype=np.int64).reshape(1, len(factors))
    assert list(pauli._breaks_a_rule(tuple(kind for kind, _ in factors), orbitals, n)) == [not valid]


def test_first_bad_term_wins_across_factor_signatures():
    # the first bad term is a non-canonical pair; a later one, whose factor
    # signature appears first, has an orbital out of range
    terms = (FermionTerm(1.0, (Number(1),)), FermionTerm(1.0, (Raise(2), Lower(1)), True),
             FermionTerm(1.0, (Number(9),)))
    with pytest.raises(ValueError, match="non-canonical ladder pair: indices must be strictly increasing"):
        jw_transform(FermionHamiltonian(4, 2, terms))
    with pytest.raises(ValueError, match="orbital 9 out of range for n=4"):
        jw_transform(FermionHamiltonian(4, 2, terms[::2]))


def test_reimport_frees_the_previous_module():
    # nothing outside the module may hold its classes: a re-import (the
    # benchmark re-imports fermiselect 15 times) must free the old copy
    code = (
        "import gc, sys, weakref\n"
        "import fermiselect.pauli\n"
        "ref = weakref.ref(fermiselect.pauli.FermionTerm)\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'fermiselect']:\n"
        "    del sys.modules[name]\n"
        "import fermiselect.pauli\n"
        "gc.collect()\n"
        "sys.exit(ref() is not None)\n"
    )
    src = os.path.dirname(os.path.dirname(pauli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
