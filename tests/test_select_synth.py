"""Selection-register encoding, decoding and SELECT circuit structure."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermiselect.circuit_ir import count_extension_points, inverse, lower_macros, schedule
from fermiselect.pauli import (
    FermionHamiltonian,
    FermionTerm,
    Lower,
    Number,
    PauliLCU,
    PauliString,
    Raise,
    _split,
    jw_transform,
    pauli_mul,
)
from fermiselect.select_synth import (
    DecodeError,
    EncodingError,
    SelectionLayout,
    controlled_select,
    decode_index,
    encode_lcu,
    encode_term,
    synth_select_general,
    synth_select_k2,
)

from conftest import scan_pairs_and_numbers


def test_layout_widths():
    assert SelectionLayout(4, 2, "k2").width == 7
    assert SelectionLayout(8, 2, "k2").width == 9
    assert SelectionLayout(4, 4, "general").width == 21
    assert SelectionLayout(1, 2, "general").width == 7
    assert SelectionLayout(3, 2, "general").width == 11


_TABLE_LAYOUTS = [(2, 2, "k2"), (3, 2, "k2"), (8, 2, "k2"), (33, 2, "k2"),
                  (1, 2, "general"), (2, 4, "general"), (5, 4, "general"), (17, 6, "general")]


def _sample_words(layout, count=200):
    rng = np.random.default_rng(layout.width)
    words = [0, (1 << layout.width) - 1, *(int(w) for w in rng.integers(0, 1 << layout.width, count))]
    return words + list(itertools.islice(layout.valid_states(), count))


@pytest.mark.parametrize("n,k,mode", _TABLE_LAYOUTS)
def test_fields_read_the_registers_msb_first(n, k, mode):
    layout = SelectionLayout(n, k, mode)
    regs = layout.registers()
    assert sorted(q for qs in regs.values() for q in qs) == list(range(layout.width))
    for word in _sample_words(layout):
        fields = layout.fields(word)
        assert list(fields) == list(regs)
        for name, qubits in regs.items():
            value = 0
            for q in qubits:  # qubit 0 is the top bit of the word
                value = 2 * value + ((word >> (layout.width - 1 - q)) & 1)
            assert fields[name] == value, (name, word)
        assert layout.pack(**fields) == word


@pytest.mark.parametrize("n,k,mode", [c for c in _TABLE_LAYOUTS if c[0] >= 2])
def test_select_labels_are_the_layout_registers(n, k, mode):
    layout = SelectionLayout(n, k, mode)
    system = tuple(range(layout.width, layout.width + n))
    assert controlled_select(n, k).register_labels == {**layout.registers(), "system": system}


def test_pack_rejects_an_unknown_field_and_a_value_that_does_not_fit():
    k2, general = SelectionLayout(4, 2, "k2"), SelectionLayout(1, 2, "general")
    with pytest.raises(ValueError, match="no field 'sgn'"):
        k2.pack(sgn=1)
    with pytest.raises(ValueError, match="field p: value 4 does not fit 2 bits"):
        k2.pack(p=4)
    with pytest.raises(ValueError, match="field P1: value -1 does not fit 2 bits"):
        k2.pack(P1=-1)
    # at n = 1 the address fields have no bits: only 0 fits
    assert general.fields(general.pack(addr0=0, n0=1))["addr0"] == 0
    with pytest.raises(ValueError, match="field addr0: value 1 does not fit 0 bits"):
        general.pack(addr0=1)


# sha256 of "w," for each word of valid_states(), in order (the first 5,000
# words for n = 17, k = 6), recorded before the codec read its fields from
# registers()
_VALID_STATES_DIGESTS = {
    (2, 2, "k2"): (8, "db876b431bbc9c826ec1f9e65e0db02b9de900e7d0a4f4bf0cb6621cb01989ab"),
    (3, 2, "k2"): (24, "ad5352ce115196ad77dbd2f99444d7789b7ec79cb7841c8954310f0bde7d973a"),
    (8, 2, "k2"): (224, "dd77f9e72737f1d4f9b2b16a7f7732fec23a9dffbfc8107c899d77d66b096c84"),
    (33, 2, "k2"): (4224, "8848032f017c272e91aab6a80bb0fd1b1ab5d3229628849bae922c440ae0c96e"),
    (1, 2, "general"): (6, "462b0ae69162571d36f904d69bec5d57fdc9c6f5961568b85e62a5fefd07b5ba"),
    (2, 4, "general"): (58, "3a6105ca51cc56cfb08c38ad17e4afe10259ea585a63f20475b627032751de73"),
    (5, 4, "general"): (3242, "c163a37c995cbb56611f685a0fbe390bb0c443c417e563a9be2bdf4fa2c576cb"),
    (17, 6, "general"): (5000, "360a5808c3f0968940a95096d0794639d9b5008a64088856ae89daaf47c51187"),
}


@pytest.mark.parametrize("n,k,mode", _TABLE_LAYOUTS)
def test_valid_states_order_is_pinned(n, k, mode):
    count, digest = _VALID_STATES_DIGESTS[n, k, mode]
    words = list(itertools.islice(SelectionLayout(n, k, mode).valid_states(), 5000))
    assert len(words) == count
    assert hashlib.sha256("".join(f"{w}," for w in words).encode()).hexdigest() == digest


def test_layout_validation():
    with pytest.raises(ValueError):
        SelectionLayout(4, 4, "k2")
    with pytest.raises(ValueError):
        SelectionLayout(1, 2, "k2")
    with pytest.raises(ValueError):
        SelectionLayout(4, 3, "general")
    with pytest.raises(ValueError):
        SelectionLayout(4, 2, "weird")


def test_general_layout_and_synthesis_reject_too_few_qubits():
    with pytest.raises(ValueError, match="need at least one system qubit"):
        SelectionLayout(0, 2, "general")
    with pytest.raises(ValueError, match="need at least two system qubits"):
        synth_select_general(1, 2)


def test_transform_and_encoder_rows_read_as_lists():
    # the LCU's entries and the encoder's rows are built when read; every
    # read agrees with the list of all rows
    h = FermionHamiltonian(3, 2, (FermionTerm(0.5, (Raise(0), Lower(2)), True), FermionTerm(-1.0, (Number(1),))))
    lcu = jw_transform(h)
    assert lcu == jw_transform(h) and hash(lcu) == hash(jw_transform(h))
    assert lcu == PauliLCU(3, list(lcu.entries)) and hash(lcu) == hash(PauliLCU(3, list(lcu.entries)))
    for rows in (lcu.entries, encode_lcu(lcu, SelectionLayout(3, 2, "general"))):
        want = list(rows)
        assert len(want) == 4 and rows == want and rows == tuple(want)
        for part in (slice(None), slice(1, 3), slice(None, None, -1), slice(-1, 0, -2), slice(2, 99), slice(9, 1)):
            assert rows[part] == want[part]
        assert rows[-1] == want[-1] and rows[-4] == want[0] and rows[np.int64(2)] == want[2]
        for i in (4, -5):
            with pytest.raises(IndexError, match="row index out of range"):
                rows[i]
        assert repr(rows) == repr(want) and hash(rows) == hash(tuple(want))


def test_k2_pack_unpack_roundtrip():
    lay = SelectionLayout(8, 2, "k2")
    for p, q in itertools.combinations(range(8), 2):
        for p1 in range(4):
            for p2 in range(2):
                word = lay.pack(p=p, q=q, P1=p1, P2=p2)
                assert lay.fields(word) == {"p": p, "q": q, "P1": p1, "P2": p2}


@pytest.mark.parametrize("n,count", [(2, 8), (4, 48), (8, 224)])
def test_k2_valid_state_count(n, count):
    lay = SelectionLayout(n, 2, "k2")
    states = list(lay.valid_states())
    assert len(states) == count == len(set(states))


def test_general_valid_states_decode_and_roundtrip():
    lay = SelectionLayout(4, 4, "general")
    states = list(lay.valid_states())
    assert len(states) == len(set(states)) == 1122
    for word in states:
        ps = decode_index(word, lay)
        # re-encoding is canonical; the canonical word decodes identically
        word2 = encode_term(ps, lay)
        assert str(decode_index(word2, lay)) == str(ps)


def test_k2_decode_examples():
    lay = SelectionLayout(4, 2, "k2")
    word = lay.pack(p=0, q=3, P1=0, P2=0)
    assert str(decode_index(word, lay)) == "+XZZX"
    word = lay.pack(p=1, q=2, P1=3, P2=1)
    assert str(decode_index(word, lay)) == "-IYYI"  # p1=3 -> -Y at p
    word = lay.pack(p=0, q=1, P1=2, P2=0)
    assert str(decode_index(word, lay)) == "+YXII"


def test_k2_decode_rejects_bad_addresses():
    lay = SelectionLayout(4, 2, "k2")
    with pytest.raises(DecodeError, match="^pair addresses must be ordered, got 2, 2$"):
        decode_index(lay.pack(p=2, q=2, P1=0, P2=0), lay)  # p == q
    with pytest.raises(DecodeError, match="^pair addresses must be ordered, got 3, 1$"):
        decode_index(lay.pack(p=3, q=1, P1=0, P2=0), lay)  # p > q
    with pytest.raises(DecodeError, match="^word 128 does not fit 7 bits$"):
        decode_index(1 << lay.width, lay)  # word too wide


@pytest.mark.parametrize("n", range(2, 9))
def test_k2_words_round_trip_through_the_encoder(n):
    lay = SelectionLayout(n, 2, "k2")
    for word in lay.valid_states():
        assert encode_term(decode_index(word, lay), lay) == word


def test_decode_reads_no_field_dict(monkeypatch):
    # the decoder reads each slot through the slot table, never through fields()
    layouts = [SelectionLayout(5, 2, "k2"), SelectionLayout(4, 4, "general")]
    want = {lay: [_product_decode(w, lay) for w in lay.valid_states()] for lay in layouts}

    def refuse(self, word):
        raise AssertionError("decode_index read the fields dict")

    monkeypatch.setattr(SelectionLayout, "fields", refuse)
    for lay in layouts:
        assert [decode_index(w, lay) for w in lay.valid_states()] == want[lay]


def test_k2_encode_examples():
    lay = SelectionLayout(4, 2, "k2")
    word = encode_term(PauliString("XZZY", 0), lay)
    assert lay.fields(word) == {"p": 0, "q": 3, "P1": 0, "P2": 1}
    word = encode_term(PauliString("IYXI", 2), lay)
    assert lay.fields(word) == {"p": 1, "q": 2, "P1": 3, "P2": 0}


def test_k2_encode_rejections():
    lay = SelectionLayout(4, 2, "k2")
    with pytest.raises(EncodingError):
        encode_term(PauliString("XZZX", 1), lay)  # imaginary prefactor
    with pytest.raises(EncodingError):
        encode_term(PauliString("XIII", 0), lay)  # unpaired endpoint
    with pytest.raises(EncodingError):
        encode_term(PauliString("ZIII", 0), lay)  # bare number
    with pytest.raises(EncodingError):
        encode_term(PauliString("IIII", 0), lay)  # identity
    with pytest.raises(EncodingError):
        encode_term(PauliString("XIXI", 0), lay)  # I inside the pair
    with pytest.raises(EncodingError):
        encode_term(PauliString("XXYY", 0), lay)  # two pairs
    with pytest.raises(EncodingError):
        encode_term(PauliString("XX", 0), lay)  # wrong length


def test_general_encode_decode_examples():
    lay = SelectionLayout(4, 4, "general")
    # two pairs
    word = encode_term(PauliString("XYYX", 2), lay)
    assert str(decode_index(word, lay)) == "-XYYX"
    # pair with a number inside and one outside
    word = encode_term(PauliString("XIYZ", 0), lay)
    assert str(decode_index(word, lay)) == "+XIYZ"
    # identity and single number are encodable here
    assert decode_index(encode_term(PauliString("IIII", 0), lay), lay).letters == "IIII"
    word = encode_term(PauliString("IZII", 2), lay)
    assert str(decode_index(word, lay)) == "-IZII"


def test_general_encode_capacity():
    lay = SelectionLayout(6, 2, "general")
    with pytest.raises(EncodingError):
        encode_term(PauliString("XXYY" + "II", 0), lay)  # two pairs, one slot pair
    with pytest.raises(EncodingError):
        encode_term(PauliString("XXZ" + "III", 0), lay)  # pair + number > 2 slots
    lay4 = SelectionLayout(6, 4, "general")
    word = encode_term(PauliString("XXZIII", 0), lay4)
    assert str(decode_index(word, lay4)) == "+XXZIII"


def test_general_decode_rejections():
    lay = SelectionLayout(4, 4, "general")
    base = encode_term(PauliString("XXII", 0), lay)
    fields = lay.fields(base)

    def rejects(message, layout=lay, **values):
        with pytest.raises(DecodeError, match=f"^{message}$"):
            decode_index(layout.pack(**values), layout)

    with pytest.raises(DecodeError, match="^word 2097152 does not fit 21 bits$"):
        decode_index(1 << lay.width, lay)
    # interaction flags of a slot pair must agree
    rejects("interaction flags of slots 0,1 disagree", **{**fields, "i1": 0})
    # a slot cannot be both endpoint and number
    rejects("a slot cannot be both endpoint and number", **{**fields, "n0": 1})
    # pair addresses must be strictly ordered
    rejects("pair addresses must be ordered, got 1, 1", **{**fields, "addr0": 1})
    # active pairs must be ordered across slot pairs
    rejects("active pairs must be strictly ordered across slots",
            addr0=2, addr1=3, addr3=1, i0=1, i1=1, i2=1, i3=1)
    # inactive slots must be all zero
    rejects("inactive slot 2 must be all zero", addr2=3)
    rejects("inactive slot 3 must be all zero", P3=1)
    # a number carries no letter
    rejects("number slot 2 must have a zero letter flag", addr2=3, n2=1, P2=1)
    # number may not sit on an endpoint
    rejects("number address 1 collides", **{**fields, "addr2": 1, "n2": 1})
    # duplicate numbers
    rejects("number address 2 collides", addr0=2, addr1=2, n0=1, n1=1)
    # number address out of range: every 2-bit address is in range at n = 4, so use n = 3
    rejects("number address 3 out of range", SelectionLayout(3, 2, "general"), addr0=3, n0=1)


def test_number_inside_pair_interval_decodes():
    # a number strictly inside a pair's interval cancels that Z
    lay = SelectionLayout(4, 4, "general")
    word = encode_term(PauliString("XIZY", 0), lay)
    ps = decode_index(word, lay)
    assert str(ps) == "+XIZY"  # Z at 2 from the pair, I at 1 from cancellation


def _product_decode(word, lay):
    """The string of a valid word as a product: its pair strings, then its
    number Z's, multiplied by ``pauli_mul`` onto the sign."""
    n, f = lay.n, lay.fields(word)

    def pair(u, v, a, b):
        return PauliString("I" * u + "XY"[a] + "Z" * (v - u - 1) + "XY"[b] + "I" * (n - v - 1))

    if lay.mode == "k2":
        return pauli_mul(PauliString("I" * n, 2 * (f["P1"] & 1)), pair(f["p"], f["q"], f["P1"] >> 1, f["P2"]))
    out = PauliString("I" * n, 2 * f["sgn"])
    for j in range(0, lay.k, 2):
        if f[f"i{j}"]:
            out = pauli_mul(out, pair(f[f"addr{j}"], f[f"addr{j + 1}"], f[f"P{j}"], f[f"P{j + 1}"]))
    for j in range(lay.k):
        if f[f"n{j}"]:
            w = f[f"addr{j}"]
            out = pauli_mul(out, PauliString("I" * w + "Z" + "I" * (n - w - 1)))
    return out


@pytest.mark.parametrize("n,k,mode", [*((n, 2, "k2") for n in range(2, 9)),
                                      *((n, k, "general") for k in (2, 4) for n in range(1, 7)),
                                      (4, 8, "general")])
def test_decode_matches_the_product_form(n, k, mode):
    # the decoder writes letters in place; the product of the factors must agree, phase included
    lay = SelectionLayout(n, k, mode)
    for word in lay.valid_states():
        assert decode_index(word, lay) == _product_decode(word, lay), f"{word:0{lay.width}b}"


def test_encode_lcu_rows():
    from fermiselect.pauli import FermionTerm, FermionHamiltonian, Raise, Lower, jw_transform

    h = FermionHamiltonian(3, 2, (FermionTerm(1.0, (Raise(0), Lower(2)), True),))
    lcu = jw_transform(h)
    lay = SelectionLayout(3, 2, "general")
    rows = encode_lcu(lcu, lay)
    assert len(rows) == 2
    for word, alpha, ps in rows:
        assert alpha == pytest.approx(0.5)
        assert str(decode_index(word, lay)) == str(ps)


def xy_parity(letters):
    return sum(ch in "XY" for ch in letters) % 2


even_st = st.text(alphabet="IXYZ", max_size=12).filter(lambda s: not xy_parity(s))
odd_st = st.text(alphabet="IXYZ", min_size=1, max_size=12).filter(xy_parity)


@settings(max_examples=200, deadline=None)
@given(even_st)
@example("")
@example("XIZIYZ")
@example("ZXYZXIIYZ")
def test_mask_split_matches_letter_scan(letters):
    # pauli._split of the one-row letter matrix
    x, z, numbers = (list(np.flatnonzero(m[0])) for m in
                     _split(np.frombuffer(letters.encode(), dtype=np.uint8).reshape(1, -1)))
    pairs, want_numbers = scan_pairs_and_numbers(letters)
    assert list(zip(x[::2], x[1::2])) == pairs
    assert numbers == want_numbers
    assert z == [j for j, ch in enumerate(letters) if ch in "YZ"]


@settings(max_examples=60, deadline=None)
@given(odd_st)
def test_odd_xy_count_cannot_be_encoded(letters):
    odd = "odd number of X/Y letters"
    layouts = [SelectionLayout(len(letters), 4, "general")]
    if len(letters) >= 2:
        layouts.append(SelectionLayout(len(letters), 2, "k2"))
    for layout in layouts:
        with pytest.raises(EncodingError, match=odd):
            encode_term(PauliString(letters), layout)


@settings(max_examples=200, deadline=None)
@given(even_st.filter(len), st.sampled_from([0, 2]), st.sampled_from([2, 4, 6]))
@example("XIZY", 2, 4)
@example("Z", 0, 2)
def test_general_encode_matches_pack_general(letters, phase, k):
    # the direct-shift word equals the field-by-field pack of the same split
    layout = SelectionLayout(len(letters), k, "general")
    pattern = PauliString(letters, phase)
    pairs, numbers = scan_pairs_and_numbers(letters)
    if 2 * len(pairs) + len(numbers) > k:
        need = f"needs {2 * len(pairs)} endpoint and {len(numbers)} number slots, but k={k}"
        with pytest.raises(EncodingError, match=need):
            encode_term(pattern, layout)
        return
    fields = {"sgn": phase // 2}
    for slot, u in enumerate(u for pair in pairs for u in pair):
        fields.update({f"addr{slot}": u, f"P{slot}": int(letters[u] == "Y"), f"i{slot}": 1})
    for slot, w in enumerate(numbers, 2 * len(pairs)):
        fields.update({f"addr{slot}": w, f"n{slot}": 1})
    word = encode_term(pattern, layout)
    assert word == layout.pack(**fields)
    assert decode_index(word, layout) == pattern


@st.composite
def canonical_hamiltonians(draw):
    """Random canonical terms: number products, and one or two ladder pairs
    (with +hc) times optional number factors."""
    n = draw(st.integers(min_value=1, max_value=9))
    orbital = st.integers(min_value=0, max_value=n - 1)
    coefficient = st.floats(min_value=-2, max_value=2, allow_subnormal=False)
    pair_kinds = st.sampled_from([(Raise, Lower), (Raise, Raise), (Lower, Lower)])
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        n_pairs = draw(st.integers(min_value=0, max_value=min(2, n // 2)))
        ends = sorted(draw(st.lists(orbital, min_size=2 * n_pairs, max_size=2 * n_pairs, unique=True)))
        factors = [kind(p) for t in range(n_pairs)
                   for kind, p in zip(draw(pair_kinds), ends[2 * t:2 * t + 2])]
        factors += [Number(p) for p in draw(st.lists(orbital, max_size=2, unique=True))]
        c = complex(draw(coefficient), draw(coefficient) if n_pairs else 0.0)
        terms.append(FermionTerm(c, tuple(factors), bool(n_pairs)))
    k = max([2] + [len(t.orbitals()) + len(t.orbitals()) % 2 for t in terms])
    return FermionHamiltonian(n, k, tuple(terms))


@settings(max_examples=150, deadline=None)
@given(canonical_hamiltonians())
def test_carried_masks_match_the_letters(h):
    # the table's one split matches a letter scan of every row
    n = h.n_orbitals
    lcu = jw_transform(h)
    x, z, numbers = lcu._columns.split
    assert len(x) == len(lcu.entries)
    for (_, ps), *masks in zip(lcu.entries, x, z, numbers):
        pairs, want_numbers = scan_pairs_and_numbers(ps.letters)
        assert [list(np.flatnonzero(m)) for m in masks] == [
            [u for pair in pairs for u in pair],
            [j for j, ch in enumerate(ps.letters) if ch in "YZ"],
            want_numbers,
        ]
    # packing the transform's columns equals packing its rows as an API table
    slots = np.count_nonzero(x | numbers, axis=1)  # endpoints plus numbers per row, as the CLI counts
    k = max([2] + [int(s + s % 2) for s in slots])
    layout = SelectionLayout(n, k, "general")
    assert encode_lcu(lcu, layout) == encode_lcu(PauliLCU(n, lcu.entries), layout)


def test_encode_lcu_rejects_a_layout_of_another_size():
    lcu = jw_transform(FermionHamiltonian(3, 2, (FermionTerm(1.0, (Number(0),)),)))
    with pytest.raises(EncodingError, match="LCU has 3 qubits, layout expects 4"):
        encode_lcu(lcu, SelectionLayout(4, 2, "general"))


# --- circuit structure --------------------------------------------------------


def test_k2_circuit_shape():
    c = synth_select_k2(4, "star")
    assert c.n_qubits == 11
    assert c.register_labels["system"] == tuple(range(7, 11))
    assert c.register_labels["p"] == (0, 1)
    assert c.register_labels["q"] == (2, 3)
    assert c.register_labels["P1"] == (4, 5)
    assert c.register_labels["P2"] == (6,)
    assert count_extension_points(c) == 9


def test_k2_rejects_bad_variant():
    with pytest.raises(ValueError):
        synth_select_k2(4, "blue")


def test_general_circuit_shape():
    k = 4
    c = synth_select_general(4, k, "star")
    assert c.n_qubits == 21 + 4
    assert c.register_labels["sgn"] == (0,)
    assert c.register_labels["system"] == tuple(range(21, 25))
    assert count_extension_points(c) == 1 + 5 * k
    # one flagged interval-Z conjugation per slot on each side
    marked_cz = [
        g for g in c.gates if g.kind == "CZ" and g.control_extension_point
    ]
    # k interaction blocks + k number blocks + one sign CZ per pair
    assert len(marked_cz) == 2 * k + k // 2
    sdg_flags = [
        g for g in c.gates if g.kind == "Sdg" and g.control_extension_point
    ]
    assert len(sdg_flags) == k // 2


def test_controlled_select_passthrough():
    c0 = controlled_select(4, 2, "star", 0)
    assert c0.n_qubits == 11
    c1 = controlled_select(4, 2, "star", 1)
    assert c1.n_qubits == 12
    assert c1.register_labels["ctrl"] == (0,)
    c2 = controlled_select(4, 2, "star", 2)
    assert c2.n_qubits == 13


def test_controlled_select_two_controls_general_fails_early(monkeypatch):
    from fermiselect import select_synth

    def never(*args):
        raise AssertionError("synthesized before rejecting two controls")

    monkeypatch.setattr(select_synth, "synth_select_general", never)
    with pytest.raises(ValueError, match="doubly-controlled S"):
        controlled_select(4, 4, "star", 2)


def test_select_t_counts_match_table():
    for n in (3, 4, 8):
        plain = schedule(lower_macros(synth_select_k2(n, "plain")))
        star = schedule(lower_macros(synth_select_k2(n, "star")))
        assert plain.t_count == 112 * (n - 1)
        assert star.t_count == 48 * (n - 1)


def test_inverse_select_composes_to_identity():
    from fermiselect.simulator import unitary_of
    from fermiselect.circuit_ir import compose

    c = synth_select_k2(2, "star")
    both = compose(c, inverse(c))
    U = unitary_of(both)
    assert np.abs(U - np.eye(U.shape[0])).max() < 1e-12


# --- the k = 2 SELECT is its injectors, written in place ---------------------


@pytest.mark.parametrize("variant", ["plain", "star"])
@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_k2_builds_one_network_and_no_injector(monkeypatch, n, variant):
    from fermiselect import gadgets, select_synth

    calls = {"net": 0, "injector": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    injectors = ("inject", "inject_star_z", "inject_select_q", "inject_select_p")
    for key, names in (("net", ("swap_up", "swap_up_star")), ("injector", injectors)):
        for name in names:
            wrapper = counted(key, getattr(gadgets, name))
            for module in (gadgets, select_synth):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
    synth_select_k2(n, variant)
    assert calls == {"net": 1, "injector": 0}


def _k2_by_append(n, variant):
    """The k = 2 SELECT composed from the public injector gadgets."""
    from fermiselect.circuit_ir import Circuit, conjugated
    from fermiselect.gadgets import (
        inject, inject_select_p, inject_select_q, inject_star_z, ladder_tree,
    )
    from fermiselect.select_synth import _phase_block

    layout = SelectionLayout(n, 2, "k2")
    regs = layout.registers()
    system = list(range(layout.width, layout.width + n))
    c = Circuit(layout.width + n, [], {**regs, "system": tuple(system)})
    p, q = list(regs["p"]), list(regs["q"])
    injz = inject_star_z(n) if variant == "star" else inject("Z", n)
    with conjugated(c, ladder_tree(n), system):
        c.append(injz, p + system)
        c.append(injz, q + system)
    _phase_block(c, 0, group=0)
    c.append(inject_select_q(n, variant), p + list(regs["P1"]) + system)
    c.append(inject_select_p(n, variant), q + list(regs["P2"]) + system)
    return c


@pytest.mark.parametrize("variant", ["plain", "star"])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
def test_k2_equals_its_injectors_composed(n, variant):
    # the FORMULAS injector rows describe the SELECT's parts only while
    # this holds; compares gate tuples, extension markers included
    from fermiselect.circuit_ir import add_global_controls

    ref, got = _k2_by_append(n, variant), synth_select_k2(n, variant)
    assert (got.n_qubits, got.register_labels) == (ref.n_qubits, ref.register_labels)
    assert got.gates == ref.gates
    for nc in (1, 2):
        assert add_global_controls(got, nc).gates == add_global_controls(ref, nc).gates
