"""End-to-end acceptance checks, one test per headline guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per parametrized case.  Tolerances are stated in each docstring.

Plain-variant T-counts are 7 per controlled swap times the controlled
swaps per plain swap network, 2(n-1) for n >= 3 and a single one at
n=2 (no idle address bit to borrow), times the networks in the
component.  So they are 14(n-1), 28(n-1) and 112(n-1) for n >= 3 and
exactly 7 (SwapUp), 14 (InjectZ, InjSelQ, InjSelP) and 56 (plain
SELECT) at n=2.  Star-variant counts follow one formula at every n.
"""

import math

import numpy as np
import pytest

from fermiselect.circuit_ir import (
    count_extension_points,
    lower_macros,
    schedule,
)
from fermiselect.gadgets import (
    address_bits,
    cswap_phase_incorrect,
    inject,
    inject_select_p,
    inject_select_q,
    inject_star_z,
    ladder_cascade,
    ladder_tree,
    multi_target_controlled_swap,
    swap_up,
    swap_up_star,
)
from fermiselect.pauli import (
    FermionHamiltonian,
    FermionTerm,
    Lower,
    Number,
    Raise,
    jw_transform,
    pauli_apply,
)
from fermiselect.select_synth import (
    SelectionLayout,
    controlled_select,
    decode_index,
    encode_term,
    synth_select_general,
    synth_select_k2,
)
from fermiselect.simulator import (
    apply_circuit,
    random_state,
    unitary_of,
    verify_select,
)
from fermiselect.resources import GROWTH_CAP

from conftest import chain_depth, permutation_matrix


# --- 1. oracle equivalence, k=2 ---------------------------------------------------


@pytest.mark.parametrize("variant", ["plain", "star"])
@pytest.mark.parametrize("n", [4, 8])
def test_criterion_01_oracle_equivalence_k2(n, variant):
    """All C(n,2)*8 valid selection words, every system basis state, <= 1e-9."""
    report = verify_select(n, 2, variant, trials=20, seed=1)
    assert report["states_checked"] == math.comb(n, 2) * 8
    assert report["max_error"] <= 1e-9
    assert report["pass"]


# --- 2. full-statevector linearity, k=2, n=4 --------------------------------------


@pytest.mark.parametrize("variant", ["plain", "star"])
def test_criterion_02_full_statevector_linearity(variant):
    """Superposition over every valid word matches the oracle sum, <= 1e-9."""
    n = 4
    layout = SelectionLayout(n, 2, "k2")
    circuit = synth_select_k2(n, variant)
    assert circuit.n_qubits == 11
    rng = np.random.default_rng(202)
    dim = 1 << n
    state = np.zeros(1 << circuit.n_qubits, dtype=complex)
    expected = np.zeros_like(state)
    words = list(layout.valid_states())
    coeffs = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    coeffs /= np.linalg.norm(coeffs)
    for word, coeff in zip(words, coeffs):
        phi = random_state(n, rng)
        state[word * dim : (word + 1) * dim] = coeff * phi
        expected[word * dim : (word + 1) * dim] = coeff * pauli_apply(
            decode_index(word, layout), phi
        )
    got = apply_circuit(circuit, state)
    assert np.abs(got - expected).max() <= 1e-9


# --- 3. oracle equivalence, k=4 term species ---------------------------------------


SPECIES = {
    "hop": FermionTerm(1.0, (Raise(0), Lower(2)), True),
    "pair_create": FermionTerm(1.0, (Raise(1), Raise(3)), True),
    "pair_annihilate": FermionTerm(1.0, (Lower(0), Lower(1)), True),
    "number": FermionTerm(1.0, (Number(2),), False),
    "number_number": FermionTerm(0.5, (Number(1), Number(3)), False),
    "hop_number": FermionTerm(1.0, (Raise(0), Lower(1), Number(3)), True),
    "double_excitation": FermionTerm(
        1.0, (Raise(0), Lower(1), Raise(2), Lower(3)), True
    ),
}


@pytest.mark.parametrize("variant", ["plain", "star"])
@pytest.mark.parametrize("species", sorted(SPECIES))
def test_criterion_03_term_species_k4(species, variant):
    """Each species' encoded words verify against the Pauli oracle on every
    system basis state, <= 1e-9."""
    n, k = 4, 4
    lcu = jw_transform(FermionHamiltonian(n, k, (SPECIES[species],)))
    layout = SelectionLayout(n, k, "general")
    words = [encode_term(ps, layout) for _, ps in lcu.entries]
    assert words
    report = verify_select(n, k, variant, trials=5, seed=11, words=words)
    assert report["states_checked"] == len(words)
    assert report["max_error"] <= 1e-9
    assert report["pass"]


# --- 4. gadget golden numbers -------------------------------------------------------


def _plain_t_count(networks, n):
    """7 T per controlled swap; one plain network has 2(n-1) of them, 1 at n=2."""
    return 7 * networks * (1 if n == 2 else 2 * (n - 1))


GADGET_FORMULAS = {
    "SwapUp": (swap_up, lambda n: _plain_t_count(1, n), 16),
    "SwapUpStar": (swap_up_star, lambda n: 4 * (n - 1), 4),
    "InjectZ": (lambda n: inject("Z", n), lambda n: _plain_t_count(2, n), 32),
    "InjectZStar": (inject_star_z, lambda n: 8 * (n - 1), 8),
    "InjSelQ": (lambda n: inject_select_q(n, "plain"), lambda n: _plain_t_count(2, n), 32),
    "InjSelQStar": (lambda n: inject_select_q(n, "star"), lambda n: 16 * (n - 1), 16),
    "InjSelP": (lambda n: inject_select_p(n, "plain"), lambda n: _plain_t_count(2, n), 32),
    "InjSelPStar": (lambda n: inject_select_p(n, "star"), lambda n: 16 * (n - 1), 16),
}


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("name", sorted(GADGET_FORMULAS))
def test_criterion_04_gadget_costs(name, n):
    """T-count exact (plain: 7 per CSWAP, 7/14/14/14 at n=2); T-depth <= coeff*ceil(log2 n)."""
    build, t_count, depth_coeff = GADGET_FORMULAS[name]
    report = schedule(lower_macros(build(n)))
    assert report.t_depth <= depth_coeff * address_bits(n)
    assert report.t_count == t_count(n)


# --- 5. SELECT totals ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("variant", ["plain", "star"])
def test_criterion_05_select_totals(variant, n):
    """k=2 totals: plain T-count 112(n-1) (56 at n=2), star 48(n-1), star depth <= 48*ceil(log2 n)."""
    report = schedule(lower_macros(synth_select_k2(n, variant)))
    if variant == "star":
        assert report.t_depth <= 48 * address_bits(n)
        assert report.t_count == 48 * (n - 1)
    else:
        assert report.t_count == _plain_t_count(8, n)


# --- 6. phase-incorrect controlled swap ----------------------------------------------


def test_criterion_06_phase_incorrect_cswap():
    """8x8 unitary == CSWAP except <100|U|100> = -1, exact to 1e-12."""
    reference = np.eye(8, dtype=complex)
    reference[[5, 6]] = reference[[6, 5]]  # swap |101> and |110>
    reference[4, 4] = -1.0
    got = unitary_of(cswap_phase_incorrect())
    assert np.abs(got - reference).max() <= 1e-12


# --- 7. ladder equivalence ------------------------------------------------------------


def _gf2_matrix(circuit):
    rows = np.eye(circuit.n_qubits, dtype=np.uint8)
    for gate in circuit.gates:
        assert gate.kind == "CX"
        control, target = gate.qubits
        rows[target] ^= rows[control]
    return rows


@pytest.mark.parametrize("n", range(2, 65))
def test_criterion_07_ladder_equivalence(n):
    """tree == cascade == suffix-XOR over GF(2); CX-depth <= 2*ceil(log2 n)."""
    tree = ladder_tree(n)
    cascade = ladder_cascade(n)
    tree_map = _gf2_matrix(tree)
    assert (tree_map == _gf2_matrix(cascade)).all()
    assert (tree_map == np.triu(np.ones((n, n), dtype=np.uint8))).all()
    assert chain_depth(tree, {"CX"}) <= 2 * math.ceil(math.log2(n))
    if n <= 6:
        assert np.abs(unitary_of(tree) - unitary_of(cascade)).max() <= 1e-12


# --- 8. toggle construction ------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion_08_toggle_construction(m):
    """Dense match with the controlled pair-swap permutation (1e-12); <= 4 CSWAP layers."""
    circuit = multi_target_controlled_swap(m)

    def permute(bits):
        if bits[0]:
            for i in range(m):
                bits[2 * i + 1], bits[2 * i + 2] = bits[2 * i + 2], bits[2 * i + 1]
        return bits

    reference = permutation_matrix(circuit.n_qubits, permute)
    assert np.abs(unitary_of(lower_macros(circuit)) - reference).max() <= 1e-12
    assert chain_depth(circuit, {"CSWAP"}) <= 4


# --- 9. controlled SELECT ----------------------------------------------------------------


@pytest.mark.parametrize("variant", ["plain", "star"])
def test_criterion_09_controlled_select(variant):
    """Control 0 -> identity, control 1 -> bare SELECT (<= 1e-9); 9 extension points."""
    n = 4
    base = synth_select_k2(n, variant)
    assert count_extension_points(base) == 9
    controlled = controlled_select(n, 2, variant, 1)
    assert controlled.n_qubits == base.n_qubits + 1
    dim = 1 << base.n_qubits
    phi = random_state(base.n_qubits, 77)

    off = np.zeros(2 * dim, dtype=complex)
    off[:dim] = phi
    got = apply_circuit(controlled, off)
    assert np.abs(got[:dim] - phi).max() <= 1e-9
    assert np.abs(got[dim:]).max() <= 1e-9

    on = np.zeros(2 * dim, dtype=complex)
    on[dim:] = phi
    got = apply_circuit(controlled, on)
    assert np.abs(got[dim:] - apply_circuit(base, phi)).max() <= 1e-9
    assert np.abs(got[:dim]).max() <= 1e-9


# --- 10. ancilla freedom and polylog depth scaling -----------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("variant", ["plain", "star"])
def test_criterion_10_zero_ancillas_k2(variant, n):
    """Circuit width == selection width + n, nothing else."""
    circuit = synth_select_k2(n, variant)
    assert circuit.n_qubits == SelectionLayout(n, 2, "k2").width + n


@pytest.mark.parametrize("k,n", [(2, 6), (4, 4), (4, 8)])
def test_criterion_10_zero_ancillas_general(k, n):
    circuit = synth_select_general(n, k)
    assert circuit.n_qubits == SelectionLayout(n, k, "general").width + n


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("variant", ["plain", "star"])
def test_criterion_10_clifford_depth_polylog(variant, n):
    """clifford_depth / ceil(log2 n)^2 bounded by a frozen constant (117 / 37)."""
    report = schedule(lower_macros(synth_select_k2(n, variant)))
    cap = GROWTH_CAP["SelectK2Plain" if variant == "plain" else "SelectK2Star"]
    assert report.clifford_depth / address_bits(n) ** 2 <= cap
