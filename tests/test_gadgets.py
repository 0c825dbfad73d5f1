"""Swap networks, ladders, fanouts and the letter-selection gadgets.

References are dense matrices assembled from first principles
(permutations, Kronecker products); the gadget circuits are simulated
and compared block by block.
"""

import itertools

import numpy as np
import pytest

from fermiselect import gadgets, simulator
from fermiselect.circuit_ir import Circuit, Gate, expand_macro, lower_macros, schedule
from fermiselect.simulator import apply_circuit, unitary_of

from conftest import basis_state, chain_depth, dense_pauli, permutation_matrix


def address_block(U, x, n_data):
    dim = 1 << n_data
    return U[x * dim : (x + 1) * dim, x * dim : (x + 1) * dim]


def test_address_bits():
    assert [gadgets.address_bits(n) for n in (2, 3, 4, 5, 8, 9)] == [1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        gadgets.address_bits(1)


# --- ladders ----------------------------------------------------------------


def suffix_xor(bits):
    out = list(bits)
    acc = 0
    for i in range(len(bits) - 1, -1, -1):
        acc ^= bits[i]
        out[i] = acc
    return out


@pytest.mark.parametrize("n", range(2, 33))
def test_ladder_gf2_semantics(n):
    # both ladder forms compute the suffix XOR, tracked classically
    for build in (gadgets.ladder_cascade, gadgets.ladder_tree):
        c = build(n)
        assert all(g.kind == "CX" for g in c.gates)
        rngloc = np.random.default_rng(n)
        for x in rngloc.integers(0, 1 << n, size=16):
            bits = [(int(x) >> (n - 1 - i)) & 1 for i in range(n)]
            want = suffix_xor(bits)
            for g in c.gates:
                a, t = g.qubits
                bits[t] ^= bits[a]
            assert bits == want


@pytest.mark.parametrize("n", range(2, 7))
def test_ladder_tree_equals_cascade_unitary(n):
    u = unitary_of(gadgets.ladder_tree(n))
    v = unitary_of(gadgets.ladder_cascade(n))
    assert np.abs(u - v).max() < 1e-12


def test_ladder_frozen_example():
    out = apply_circuit(gadgets.ladder_tree(4), basis_state(4, 0b1011))
    assert abs(out[0b1001] - 1) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 33, 64])
def test_ladder_tree_depth(n):
    c = gadgets.ladder_tree(n)
    bound = 2 * int(np.ceil(np.log2(n)))
    assert chain_depth(c, {"CX"}) <= max(bound, 1)


def test_ladder_conjugation_gives_interval_z():
    # L† (Z_p Z_q) L = Z on [p, q-1]
    n = 4
    lad = gadgets.ladder_tree(n)
    U = unitary_of(lad)
    for p in range(n):
        for q in range(p + 1, n):
            zz = "".join("Z" if i in (p, q) else "I" for i in range(n))
            interval = "".join("Z" if p <= i < q else "I" for i in range(n))
            got = U.conj().T @ dense_pauli(zz) @ U
            assert np.abs(got - dense_pauli(interval)).max() < 1e-12


# --- fanout -----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 12, 20])
def test_fanout_semantics_and_depth(m):
    targets = list(range(1, m + 1))
    c = gadgets.fanout_cnot(0, targets)
    assert all(g.kind == "CX" for g in c.gates)
    # classical check: each target flips by the control bit, on random words
    n = m + 1
    rngloc = np.random.default_rng(m)
    for x in rngloc.integers(0, 1 << min(n, 20), size=12):
        bits = [(int(x) >> (n - 1 - i)) & 1 for i in range(n)]
        want = [bits[0]] + [b ^ bits[0] for b in bits[1:]]
        for g in c.gates:
            a, t = g.qubits
            bits[t] ^= bits[a]
        assert bits == want
    assert chain_depth(c, {"CX"}) <= 2 * int(np.ceil(np.log2(m + 1)))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fanout_unitary(m):
    targets = list(range(1, m + 1))
    ref = Circuit(m + 1)
    for t in targets:
        ref.add("CX", 0, t)
    got = unitary_of(gadgets.fanout_cnot(0, targets))
    assert np.abs(got - unitary_of(ref)).max() < 1e-12


def test_fanout_validates():
    with pytest.raises(ValueError):
        gadgets.fanout_cnot(0, [0, 1])
    with pytest.raises(ValueError):
        gadgets.fanout_cnot(0, [1, 1])
    assert gadgets.fanout_cnot(0, []).gates == []  # vacuous fanout is a no-op


# --- multi-target controlled swap --------------------------------------------


def toggle_reference(m):
    def fn(bits):
        if bits[0]:
            for t in range(m):
                a, b = 1 + 2 * t, 2 + 2 * t
                bits[a], bits[b] = bits[b], bits[a]
        return bits

    return permutation_matrix(1 + 2 * m, fn)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_toggle_matches_reference(m):
    c = gadgets.multi_target_controlled_swap(m)
    assert np.abs(unitary_of(c) - toggle_reference(m)).max() < 1e-12


@pytest.mark.parametrize("m", range(1, 9))
def test_toggle_counts_and_stages(m):
    c = gadgets.multi_target_controlled_swap(m)
    cswaps = sum(1 for g in c.gates if g.kind == "CSWAP")
    assert cswaps == (2 * m if m % 2 == 0 else 2 * m - 1)
    assert chain_depth(c, {"CSWAP"}) <= 4


def test_toggle_with_borrow_uses_two_per_odd_unit():
    c = Circuit(8, gadgets._toggle_gates(0, ((1, 2), (3, 4), (5, 6)), 7))
    assert sum(1 for g in c.gates if g.kind == "CSWAP") == 6
    # the borrow wire returns to its input value: check on the unitary
    U = unitary_of(c)
    ref = np.kron(toggle_reference(3), np.eye(2))
    assert np.abs(U - ref).max() < 1e-12


def test_toggle_validates_count():
    with pytest.raises(ValueError):
        gadgets.multi_target_controlled_swap(0)


# --- swap-up networks ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_swap_up_routes_addressed_qubit(n):
    bits = gadgets.address_bits(n)
    c = gadgets.swap_up(n)
    assert c.register_labels["address"] == tuple(range(bits))
    for x in range(n):
        for y in range(n):
            idx = (x << n) | (1 << (n - 1 - y))
            out = apply_circuit(c, basis_state(bits + n, idx))
            nz = np.flatnonzero(np.abs(out) > 1e-12)
            assert len(nz) == 1 and abs(out[nz[0]] - 1) < 1e-12
            got = int(nz[0])
            assert got >> n == x  # address restored
            if y == x:
                assert got & (1 << (n - 1)), "addressed qubit must reach the front"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_swap_up_costs(n):
    c = gadgets.swap_up(n)
    cswaps = sum(1 for g in c.gates if g.kind == "CSWAP")
    assert cswaps == (1 if n == 2 else 2 * (n - 1))
    assert chain_depth(c, {"CSWAP"}) <= 4 * gadgets.address_bits(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_swap_up_star_costs(n):
    c = gadgets.swap_up_star(n)
    kinds = {g.kind for g in c.gates}
    assert kinds <= {"CX", "A", "Adg"}  # fused form, no macros
    a_gates = sum(1 for g in c.gates if g.kind in ("A", "Adg"))
    assert a_gates == 4 * (n - 1)
    rep = schedule(c)
    assert rep.t_count == 4 * (n - 1)
    assert rep.t_depth <= 4 * gadgets.address_bits(n)


def _star_levels(n):
    """(control, data pairs, gates) of each level of swap_up_star(n), top level
    first; checks that every level is its CSWAP_STAR macros' first four gates,
    one CX fanout of the control onto each pair's second qubit, and the
    macros' last four gates."""
    bits = gadgets.address_bits(n)
    gates = gadgets.swap_up_star(n).gates
    at, levels = 0, []
    for j, _, pairs in gadgets._swap_levels(n):
        control, pairs = bits - 1 - j, [(bits + a, bits + b) for a, b in pairs]
        macros = [expand_macro(Gate("CSWAP_STAR", (control, a, b))) for a, b in pairs]
        assert all(m[4] == Gate("CX", (control, b)) for m, (_, b) in zip(macros, pairs))
        assert len({q for pair in pairs for q in pair} | {control}) == 2 * len(pairs) + 1
        heads = [g for m in macros for g in m[:4]]
        tails = [g for m in macros for g in m[5:]]
        start, at = at, at + len(heads)
        assert gates[start:at] == heads
        fan = list(itertools.takewhile(lambda g: g.kind == "CX", gates[at:]))
        # over GF(2) the fanout adds the control to each second qubit and
        # leaves every other qubit alone
        value = {q: 1 << q for q in range(bits + n)}
        for g in fan:
            value[g.qubits[1]] ^= value[g.qubits[0]]
        assert value == {q: 1 << q | (1 << control if q in {b for _, b in pairs} else 0) for q in value}
        at += len(fan)
        assert gates[at : at + len(tails)] == tails
        at += len(tails)
        levels.append((control, pairs, gates[start:at]))
    assert at == len(gates)
    return levels


def test_swap_up_star_levels_are_products_of_cswap_star():
    # the pairs' halves touch disjoint qubits and the fanout's CXs share one
    # control, so each level equals the product of its CSWAP_STAR macros
    for n in range(2, 65):
        _star_levels(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_swap_up_star_levels_match_their_macros_densely(n):
    for control, pairs, gates in _star_levels(n):
        qubits = [control] + [q for pair in pairs for q in pair]
        local = {q: i for i, q in enumerate(qubits)}
        level = Circuit(len(qubits), [Gate(g.kind, tuple(local[q] for q in g.qubits)) for g in gates])
        macros = Circuit(len(qubits), [Gate("CSWAP_STAR", (0, local[a], local[b])) for a, b in pairs])
        assert np.abs(unitary_of(level) - unitary_of(macros)).max() < 1e-12


def _swaps_image(width, swaps):
    """Where the controlled swaps (control, a, b), in order, send each basis state."""
    image = np.arange(1 << width)
    for control, a, b in swaps:
        bit = lambda q: image >> (width - 1 - q) & 1  # noqa: E731
        swapped = image ^ (1 << (width - 1 - a)) ^ (1 << (width - 1 - b))
        image = np.where(bit(control) & (bit(a) ^ bit(b)), swapped, image)
    return image


@pytest.mark.parametrize("n", range(2, 9))
def test_swap_up_star_is_a_sign_diagonal_times_its_cswaps(n):
    # swap_up_star(n) = D·Π: Π the plain CSWAPs of its levels, D diagonal ±1
    width = gadgets.address_bits(n) + n
    image = _swaps_image(width, [(control, a, b) for control, pairs, _ in _star_levels(n) for a, b in pairs])
    u = unitary_of(gadgets.swap_up_star(n))
    signs = u[image, np.arange(1 << width)]
    assert np.abs(np.abs(signs.real) - 1).max() < 1e-12 and np.abs(signs.imag).max() < 1e-12


def _level_swaps(n):
    """(control, a, b) of each controlled swap of ``_swap_levels(n)``, on the network's qubits."""
    bits = gadgets.address_bits(n)
    return [(bits - 1 - j, bits + a, bits + b) for j, _, pairs in gadgets._swap_levels(n) for a, b in pairs]


@pytest.mark.parametrize("n", range(2, 9))
def test_swap_up_is_exactly_its_level_swaps(n):
    # the lemma by which the basis walk plays a plain span as its n - 1 swaps:
    # lowered, swap_up(n) is Π itself, with no sign
    width = gadgets.address_bits(n) + n
    image = _swaps_image(width, _level_swaps(n))
    u = unitary_of(lower_macros(gadgets.swap_up(n)))
    # a unitary holding 1 at (image[i], i) in every column i is the permutation
    assert np.abs(u[image, np.arange(1 << width)] - 1).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 17))
def test_swap_up_walks_as_its_level_swaps_on_every_basis_state(n):
    # the same lemma on the basis walk of the network alone, gate by gate,
    # every address value against every data basis state
    c = gadgets.swap_up(n)
    c.register_labels["system"] = c.register_labels["data"]
    bits = gadgets.address_bits(n)
    states = simulator._every_basis_state(n)
    out, turns, moved = simulator._run(c, simulator._plan(c), range(1 << bits), states)
    want = np.tile(states, 1 << bits)
    words = np.arange(1 << bits).repeat(1 << n)
    for control, a, b in _level_swaps(n):
        on = (words >> (bits - 1 - control) & 1).astype(bool)
        want[a - bits, on], want[b - bits, on] = want[b - bits, on], want[a - bits, on]
    assert np.array_equal(out, want) and not turns.any() and not moved.any()


def test_variant_validation():
    with pytest.raises(ValueError):
        gadgets.inject_select_q(4, "fancy")


# --- letter selection ----------------------------------------------------------


def test_select_q_truth_table():
    U = unitary_of(gadgets.select_q())
    want = {0: "Y+", 1: "Y-", 2: "X-", 3: "X+"}
    for ab, code in want.items():
        sign = 1 if code[1] == "+" else -1
        ref = sign * dense_pauli(code[0])
        assert np.abs(address_block(U, ab, 1) - ref).max() < 1e-12


def test_select_p_truth_table():
    U = unitary_of(gadgets.select_p())
    assert np.abs(address_block(U, 0, 1) - dense_pauli("X")).max() < 1e-12
    assert np.abs(address_block(U, 1, 1) - dense_pauli("Y")).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("star", [False, True])
def test_inject_z(n, star):
    c = gadgets.inject_star_z(n) if star else gadgets.inject("Z", n)
    U = unitary_of(c)
    bits = gadgets.address_bits(n)
    dim = 1 << n
    for x in range(n):
        ref = dense_pauli("I" * x + "Z" + "I" * (n - x - 1))
        assert np.abs(address_block(U, x, n) - ref).max() < 1e-12
    # no leakage between address blocks
    for x in range(1 << bits):
        for y in range(1 << bits):
            if x != y:
                blk = U[x * dim : (x + 1) * dim, y * dim : (y + 1) * dim]
                assert np.abs(blk).max() < 1e-12


def test_inject_validates_payload():
    with pytest.raises(ValueError):
        gadgets.inject("CX", 3)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["plain", "star"])
def test_inject_select_q(n, variant):
    U = unitary_of(gadgets.inject_select_q(n, variant))
    letter = {0: ("Y", 1), 1: ("Y", -1), 2: ("X", -1), 3: ("X", 1)}
    for x in range(n):
        for ab in range(4):
            sel = (x << 2) | ab
            ch, sign = letter[ab]
            ref = sign * dense_pauli("I" * x + ch + "I" * (n - x - 1))
            assert np.abs(address_block(U, sel, n) - ref).max() < 1e-11


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["plain", "star"])
def test_inject_select_p(n, variant):
    U = unitary_of(gadgets.inject_select_p(n, variant))
    for x in range(n):
        for b in range(2):
            sel = (x << 1) | b
            ch = "X" if b == 0 else "Y"
            ref = dense_pauli("I" * x + ch + "I" * (n - x - 1))
            assert np.abs(address_block(U, sel, n) - ref).max() < 1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_gadget_catalog_builds(n):
    for name, spec in gadgets.GADGETS.items():
        c = spec.build(n)
        assert isinstance(c, Circuit)
        want = {"address", "data"} | ({"flags"} if spec.flags > 0 else set())
        assert want <= set(c.register_labels), name
