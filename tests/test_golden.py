"""Golden digests: the synthesized circuits stay byte-identical.

Each digest is the sha256 of an output taken before the construction
code was refactored: the emitted text of lowered SELECT circuits, the
``resources`` CSV, and the un-lowered gate tuples (kind, qubits,
extension marker, extension group) of the gadget builders and the
general layout, with their width and register labels.  The
``fermiselect transform`` digests were taken before the transform and
the encoder moved to bitmask Pauli strings (the molecular n = 14,
Hubbard 4 x 4 and pairing n = 40 ones before the transform handed its
masks to the encoder, the mixed n = 9 one before ladder pairs were
expanded in closed form, the Hubbard 6 x 6 and pairing n = 70 ones,
past 64 orbitals, before the transform held its table as columns);
their inputs are generated here from a seeded ``random.Random``.  The
n = 512 digests, the benchmark's size, were taken before lowering,
remapping and emission reused their work on repeated gates within a
call.  The ``fermiselect synth`` output, which the CLI renders from the
un-lowered circuit, is checked against the same emit digests, and the
``fermiselect resources`` output, which schedules the un-lowered
circuits, against the resources digests.
"""

import hashlib
import itertools
import random
import sys

import pytest

from fermiselect import circuit_ir, resources
from fermiselect.circuit_ir import emit_text, lower_macros
from fermiselect.cli import main
from fermiselect.gadgets import GADGETS, cswap_phase_incorrect, select_p, select_q
from fermiselect.resources import check_against_formulas
from fermiselect.select_synth import controlled_select, synth_select_general, synth_select_k2

EMIT_CASES = [
    (n, 2, v, c) for n in (2, 3, 8, 33) for v in ("plain", "star") for c in (0, 1, 2)
] + [(n, 4, v, c) for n in (2, 5) for v in ("plain", "star") for c in (0, 1)]

IR_BUILDERS = {
    **{(name, n): (lambda s=spec, n=n: s.build(n)) for name, spec in GADGETS.items()
       for n in (2, 3, 5, 8)},
    **{(f"General4{v}", n): (lambda v=v, n=n: synth_select_general(n, 4, v))
       for v in ("plain", "star") for n in (2, 5)},
    **{(f"SelectK2{v}", n): (lambda v=v, n=n: synth_select_k2(n, v))
       for v in ("plain", "star") for n in (2, 5)},
    ("cswap_phase_incorrect", 0): cswap_phase_incorrect,
    ("select_q", 0): select_q,
    ("select_p", 0): select_p,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def emit_digest(n, k, v, c):
    return _sha(emit_text(lower_macros(controlled_select(n, k, v, c))))


def resources_digest(ns):
    return _sha(check_against_formulas(list(ns)))


def ir_digest(circuit):
    gates = [
        (g.kind, g.qubits, g.control_extension_point, g.extension_group)
        for g in circuit.gates
    ]
    return _sha(repr((circuit.n_qubits, sorted(circuit.register_labels.items()), gates)))


EMIT_GOLDEN = {
    (2, 2, 'plain', 0): "8733132b698af63149b86711c796aa888a479f61f34e676d1aa5a415b28efc54",
    (2, 2, 'plain', 1): "0028276fc54956ee26b16e3d12f25f42104f21ae620099e87fe478f59b28a653",
    (2, 2, 'plain', 2): "d94ffdccbad389bca54c1dcc28e90305a7ce72ae1cd69b23c4ff4653a5c75e75",
    (2, 2, 'star', 0): "e2a3a85cdd656715d6a11fd8ab2ca90149856ad23c849172888698b9448ac921",
    (2, 2, 'star', 1): "cf69c155a53ff0669e086c709a043870acab949e29a851e4885bf7cc8d149230",
    (2, 2, 'star', 2): "c2140d45ac8f273f7f351f1a202d38bdcd8a099e674f20e96f5e919a07ee3a84",
    (3, 2, 'plain', 0): "5750acdb8bb89fda4d507ff9ebe011c30deb7b3d4a272022683a6a34775c4a29",
    (3, 2, 'plain', 1): "2feaffb654cc7fca79ee231942fdd829515b5e3d8cd5c342918911c8dc4da54a",
    (3, 2, 'plain', 2): "43b96e17774983030092f89d41b6a47db90d47b87868591ccf98b60272c9529f",
    (3, 2, 'star', 0): "4d96049d7a07409c7c01d806c86e10a6f49baa67456e337f8f07a01e0704dfb5",
    (3, 2, 'star', 1): "a18ffe54f56bc3b4c9c5c280d19bf9e5c55490c2c79668c20e74891a4d279af9",
    (3, 2, 'star', 2): "28a81f6e9bda96e110c8df1c0198fa6c33c8cd20c01099416926dc14ff45abaf",
    (8, 2, 'plain', 0): "18e4cb2fcbc56d292da94a81cef9a2565b972c304dab30a0a998c12764071430",
    (8, 2, 'plain', 1): "332940f1bde58e74acbd5ad106eec018ed653187d8377803a799d830c6179f2b",
    (8, 2, 'plain', 2): "a0a2ebe4c4d805d43c13ecbbbc4255a2401f6cb07fbd3ba74bbc01049949be66",
    (8, 2, 'star', 0): "77b47ad7b403a487a86b6789ec6ec9216c78d0be2e1d33b846a68730783a059e",
    (8, 2, 'star', 1): "36ab1908e62f5d6a01efc7e3ca9548d1851bd8e67a9cb004bb7f9ea7f9eef6b8",
    (8, 2, 'star', 2): "6d3d6d3ffab164e523040b3d0d324d83ac56daf28b8117d510109658236b3c81",
    (33, 2, 'plain', 0): "c1b8f7f561bc153f52a33539606dc0e78d0bafcdfd0cf60dc5a88b53c1699acd",
    (33, 2, 'plain', 1): "81fe3716c4e324e14803a412684da3d92f4e58d38a599990dcf98a12092f4e86",
    (33, 2, 'plain', 2): "5c456ce0cb01ea41690a6e80fbf589a49d0dd915b408076ca2f86245715d92c6",
    (33, 2, 'star', 0): "d85e815646499abdf09798220fc727105e56240192784e6eb35ce09f87fa8b28",
    (33, 2, 'star', 1): "912d7299f5b4c3c0e361c4fe84e788c30317306d866d58f6c85eede09a954173",
    (33, 2, 'star', 2): "b6c96efcb4bf5e3be3d0c3b851ea22c582c570cd46a5f335e0581a5ccc36e30d",
    (2, 4, 'plain', 0): "a16f55fd055b21fbbbd5589ef4b147985d449113eaa6d11754b2d19fcbd55bcb",
    (2, 4, 'plain', 1): "70193893c18450a59997d1ce949232f8960fd9ccdd3592047a2c4d6bc33ae2f3",
    (2, 4, 'star', 0): "a2dbfdf3e273972c96c9169e3048a33f2d24afc8f42b251213bae08031ea9c68",
    (2, 4, 'star', 1): "a5b2962207ba996938da82a9a7b5998fcd2228a023844956185eedca9bf0faec",
    (5, 4, 'plain', 0): "125e3137c23d2820a7c6e207d344c34b53623983720fb4ae2254dc53dfd22f8b",
    (5, 4, 'plain', 1): "7f634d8787da35daba1bdf7c7b5425c2a283d62bf5589da654d668d8de4d18d1",
    (5, 4, 'star', 0): "ef034cdb448897c0a583b265417982fda8d911986921960f2e324f4935885dc3",
    (5, 4, 'star', 1): "227003decadaa13b29486d1a730ffe0dff7a360d3b39aa0aa5e9b5c6a26f4d13",
}

RESOURCES_GOLDEN = {
    (2,): "4cb64703598230c158e1818394a207812defa49173bf09a0877187f86c184c8e",
    (4, 8, 16, 32): "dcd61619f82f0e993364bdab6e7e250f747261b0710faeda9c2b096fe5673b6e",
}

IR_GOLDEN = {
    ('General4plain', 2): "d93cfd60b3ef31b465a4380707fa07427ff206cc02d18e676523c0950c24a744",
    ('General4plain', 5): "43aac457114068e89996b22ad9e5e1f25b431255556e96b3f7d325dea46a21ce",
    ('General4star', 2): "b95c5a6903c91c084406e9839d485bc8577de38c5427912b98797ef3d8341b46",
    ('General4star', 5): "dcbf8776c888d64535287149cfea192c040a4962fef20fec41d6eaccd75f6350",
    ('InjSelP', 2): "5227cd524b2d1cd55df8547d19ba3e0bf3720218a0ad7364c22471eedfeec456",
    ('InjSelP', 3): "a2183577036f044baa3feae9070d6a73703336762880aa3208cbee7b010ada4e",
    ('InjSelP', 5): "e5155e5fb700929d9874cf777f10cfb0afedbefac794ab9c0303b921c4172dff",
    ('InjSelP', 8): "a768299375044afaa40ecd5f04ec4101c2365ceb6bd68476b8fcd62503c7181f",
    ('InjSelPStar', 2): "e110f8a5de3ae20ce59aa17b7eac1ff59c8627df2671dbf76449a5dac64c3278",
    ('InjSelPStar', 3): "598bdf8cf672af74c28cc18a445e46c78f770fbac5999483d21f9a30b5482a7f",
    ('InjSelPStar', 5): "3070eeeae3e0926727816fba052686c2201c6de25ca697e42a163869a27199aa",
    ('InjSelPStar', 8): "cae65a325959b1f77267e0055c2cff1ebbf2741d467e83874d79a7ebe4d8d3ec",
    ('InjSelQ', 2): "952233d06365756b4aa954c11bceb24d3d8a70433bf9ed38a6a307c538f6c760",
    ('InjSelQ', 3): "2de435523deda92b92173dca624b2df0ba6e9a021688075d854cdac7dfa13f32",
    ('InjSelQ', 5): "4843e999b1d09b25ee5d52b59a7663fea21b49bd2520aa5bb8b3d0eaebc2a34a",
    ('InjSelQ', 8): "d25e81d70dc77d1ebea98a25891e2aed15127f9e7a60d2fb3110b41e03a96636",
    ('InjSelQStar', 2): "66d6669462a06d653c98d8138be38969eedb66c97f2f5e1eade90dbd1b71f7af",
    ('InjSelQStar', 3): "2123818a034a8eaf814b37b47d131b130c48c0d2d45ee4cef9b7b06d6652796e",
    ('InjSelQStar', 5): "ad1c59038b7b98a3417848006ebe3c5081929ab6d7c3872d972ec4e84e9f2558",
    ('InjSelQStar', 8): "0170e0398c0bac65a077a36457272ac3c648359540e0e97476767693721be7f6",
    ('InjectZ', 2): "d0f70316709b155889ee1d922aa9cf1a0f8030965b1eecaa27f98bddd024b3b2",
    ('InjectZ', 3): "d7f13984be0a1adfa7c87180790c651da5a19cbaa46d9c61a0956347d9a772fe",
    ('InjectZ', 5): "28bc4446a47017226854901d527b5b6f66f7fe79442e609170cb76f238847820",
    ('InjectZ', 8): "cbbece64485fe2f9d8dc5fa4f43891f3a16960ef294ec9d00678d8021cdb5580",
    ('InjectZStar', 2): "1cd30375acefb0e41a2eb5870af3dec3ce4e9f7eda224f3aaa7671f4e8534287",
    ('InjectZStar', 3): "54d9e6ab4960e47b2a0afe7abcce950726397b415b31516b36a01d621033647e",
    ('InjectZStar', 5): "b5ce49576f81984a8c90b1d1fde1edc46d6040abdf25f40644c25527f0a0f7ed",
    ('InjectZStar', 8): "100da4f75bf417e0f144ab8b2c057884cd328f5292f9215fccff348c05f5fa2c",
    ('SelectK2plain', 2): "1504125dbb45ddda46500c436c4d816acf8f94299ee49d3559317b5fce81594b",
    ('SelectK2plain', 5): "dd057e6d20a6cbc19c829ef413fe7a78baba319228546b871d419a67958160d1",
    ('SelectK2star', 2): "20b5bb153f259400efe7a59e75626067dd07ac2dd21fdea7f8148591dcde104b",
    ('SelectK2star', 5): "f6f303dd5bb758a6e0094b4131f329d73eb28e782df3ff8c168a47aa91d9af23",
    ('SwapUp', 2): "175521520c8ba00d179b14a4076cc2c5283137d9cb02cc6145ce4ef8f19835d5",
    ('SwapUp', 3): "5af5764e74653862b5fdc33db05ebc019523e825b02f297ce4307ee6ec50c78b",
    ('SwapUp', 5): "078d8c1fc79da7e6bda7a9d27d3149a8674be1d12757629913c3e312f35f73fa",
    ('SwapUp', 8): "ddce7a74a8ba719be8c94f8ec0e758595a0764dfc61729d4bed1dd15eddc6b7b",
    ('SwapUpStar', 2): "9d0bd2c4ce0cb99f9ef675ab3c1d36324da75e0e289fa9da56c383211eef8d71",
    ('SwapUpStar', 3): "39b48d06c618e160c023cfe63a4e9e7f0f56e852c1b59e4c5af5e23d6f5143cc",
    ('SwapUpStar', 5): "e4f8625b10f7cbed1af130d4caae96b523319cd35e05801aca67111fa233df88",
    ('SwapUpStar', 8): "c24c1fb788dd191b84ab64759810b074389b0b39a6d4dcda1b14421a064d7395",
    ('cswap_phase_incorrect', 0): "06f5f3802d710d22d6bc6e604d4fc5d4da54266dab92995cf46895ee3b04eedc",
    ('select_p', 0): "ec4122efe3adcacadd2ed762ab5aff0dca87ace9542fe290004780f9ae69a7f9",
    ('select_q', 0): "dad923e73663238c37f2489d337627ffdc38817082e3fd37b1a098ed22ce9564",
}


@pytest.mark.parametrize("n,k,v,c", EMIT_CASES)
def test_emitted_select_is_unchanged(n, k, v, c):
    assert emit_digest(n, k, v, c) == EMIT_GOLDEN[(n, k, v, c)]


LARGE_EMIT_GOLDEN = {
    "plain": "04f090d7403a9c92995def691de0e864acb7ab948d5898bb555c390d2936c392",
    "star": "d39fde040eb32a31f154607df37b4e771ec781c2c6ddf87191ac5eee15d26825",
}


@pytest.mark.parametrize("v", sorted(LARGE_EMIT_GOLDEN))
def test_emitted_select_at_n512_is_unchanged(v):
    assert _sha(emit_text(lower_macros(synth_select_k2(512, v)))) == LARGE_EMIT_GOLDEN[v]


# --- fermiselect synth: the CLI renders the un-lowered circuit itself ---------


def synth_digest(capsys, n, k, v, c):
    capsys.readouterr()
    assert main(["synth", "--n", str(n), "--k", str(k), "--variant", v, "--controls", str(c)]) == 0
    return _sha(capsys.readouterr().out)


@pytest.mark.parametrize("n,k,v,c", EMIT_CASES)
def test_synth_cli_prints_the_emitted_select(n, k, v, c, capsys):
    assert synth_digest(capsys, n, k, v, c) == EMIT_GOLDEN[(n, k, v, c)]


@pytest.mark.parametrize("v", sorted(LARGE_EMIT_GOLDEN))
def test_synth_cli_at_n512_prints_the_emitted_select(v, capsys):
    assert synth_digest(capsys, 512, 2, v, 0) == LARGE_EMIT_GOLDEN[v]


def forbid_lowering(monkeypatch, command):
    """Make every package binding of ``lower_macros`` raise."""
    def never(*args, **kwargs):
        raise AssertionError(f"fermiselect {command} lowered the circuit")

    original = circuit_ir.lower_macros
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fermiselect" and getattr(module, "lower_macros", None) is original:
            monkeypatch.setattr(module, "lower_macros", never)


def test_synth_cli_builds_no_lowered_circuit(monkeypatch, capsys):
    forbid_lowering(monkeypatch, "synth")
    for v in ("plain", "star"):
        assert synth_digest(capsys, 8, 2, v, 1) == EMIT_GOLDEN[(8, 2, v, 1)]


@pytest.mark.parametrize("ns", sorted(RESOURCES_GOLDEN))
def test_resources_csv_is_unchanged(ns):
    assert resources_digest(ns) == RESOURCES_GOLDEN[ns]


def test_resources_cli_builds_no_lowered_circuit(monkeypatch, capsys):
    def cli_digest(*args):
        capsys.readouterr()
        assert main(["resources", *args]) == 0
        return _sha(capsys.readouterr().out)

    with monkeypatch.context() as m:  # a reference for sizes without a digest: schedule the lowering
        m.setattr(resources, "schedule", lambda c: circuit_ir.schedule(lower_macros(c)))
        lowered = _sha(check_against_formulas([2, 3, 5, 64]))
    forbid_lowering(monkeypatch, "resources")
    assert cli_digest() == RESOURCES_GOLDEN[(4, 8, 16, 32)]
    assert cli_digest("--n-list", "2") == RESOURCES_GOLDEN[(2,)]
    assert cli_digest("--n-list", "2,3,5,64") == lowered


@pytest.mark.parametrize("key", sorted(IR_BUILDERS))
def test_unlowered_gates_are_unchanged(key):
    assert ir_digest(IR_BUILDERS[key]()) == IR_GOLDEN[key]


# --- fermiselect transform ---------------------------------------------------


def _molecular(rng, n):
    """Hopping (complex), number operators and ordered double excitations."""
    lines = [f"{rng.uniform(-1, 1)!r} {rng.uniform(-1, 1)!r} : adag {p} a {q} +hc"
             for p, q in itertools.combinations(range(n), 2)]
    lines += [f"{rng.uniform(-1, 1)!r} 0.0 : n {p}" for p in range(n)]
    lines += [f"{rng.uniform(-1, 1)!r} 0.0 : adag {p} adag {q} a {r} a {s} +hc"
              for p, q, r, s in itertools.combinations(range(n), 4)]
    return lines


def _hubbard(rng, side):
    """Spinful periodic side x side Fermi-Hubbard model, spin-major orbitals."""
    sites = side * side
    t, u = rng.uniform(0.5, 1.5), rng.uniform(2.0, 8.0)
    lines = []
    for spin in range(2):
        for x, y in itertools.product(range(side), repeat=2):
            i = spin * sites + x * side + y
            for j in (((x + 1) % side) * side + y, x * side + (y + 1) % side):
                p, q = sorted((i, spin * sites + j))
                lines.append(f"{-t!r} 0.0 : adag {p} a {q} +hc")
            lines.append(f"{rng.uniform(-1, 1)!r} 0.0 : n {i}")
    lines += [f"{u!r} 0.0 : n {i} n {sites + i}" for i in range(sites)]
    return lines


def _pairing(rng, n):
    """Pair creation a†_p a†_q + h.c. for every p < q, plus number terms."""
    lines = [f"{rng.uniform(-1, 1)!r} 0.0 : adag {p} adag {q} +hc"
             for p, q in itertools.combinations(range(n), 2)]
    lines += [f"{rng.uniform(-1, 1)!r} 0.0 : n {p}" for p in range(n)]
    return lines


def _mixed(rng, n):
    """Ladder pairs with number factors before, between and after their
    factors, on their own orbitals and elsewhere, plus number products."""
    ladders = ("adag {} a {}", "adag {} adag {}", "a {} a {}")
    lines = []
    for p, q in itertools.combinations(range(n), 2):
        pair = rng.choice(ladders).format(p, q).split(" ")
        for r in (p, q, rng.randrange(n)):
            spot = rng.randrange(3) * 2
            factors = " ".join(pair[:spot] + ["n", str(r)] + pair[spot:])
            lines.append(f"{rng.uniform(-1, 1)!r} {rng.uniform(-1, 1)!r} : {factors} +hc")
    for p, q, s, t in itertools.combinations(range(n), 4):
        r = rng.randrange(n)
        lines.append(f"{rng.uniform(-1, 1)!r} {rng.uniform(-1, 1)!r} : "
                     f"adag {p} adag {q} n {r} a {s} a {t} +hc")
    lines += [f"{rng.uniform(-1, 1)!r} 0.0 : n {p} n {q}"
              for p, q in itertools.combinations(range(n), 2)]
    return lines


TRANSFORM_CASES = {
    "molecular8": (lambda rng: _molecular(rng, 8), ["--n", "8"]),
    "hubbard3x3": (lambda rng: _hubbard(rng, 3), ["--n", "18"]),
    "pairing12": (lambda rng: _pairing(rng, 12), ["--n", "12"]),
    "molecular8_k6": (lambda rng: _molecular(rng, 8), ["--n", "8", "--k", "6"]),
    "molecular14": (lambda rng: _molecular(rng, 14), ["--n", "14"]),
    "hubbard4x4": (lambda rng: _hubbard(rng, 4), ["--n", "32"]),
    "pairing40": (lambda rng: _pairing(rng, 40), ["--n", "40"]),
    "mixed9": (lambda rng: _mixed(rng, 9), ["--n", "9"]),
    "hubbard6x6": (lambda rng: _hubbard(rng, 6), ["--n", "72"]),
    "pairing70_k4": (lambda rng: _pairing(rng, 70), ["--n", "70", "--k", "4"]),
}


def transform_digest(name, tmp_path, capsys):
    generate, flags = TRANSFORM_CASES[name]
    src = tmp_path / f"{name}.txt"
    src.write_text("\n".join(generate(random.Random(7))) + "\n")
    capsys.readouterr()
    assert main(["transform", str(src), *flags]) == 0
    return _sha(capsys.readouterr().out)


TRANSFORM_GOLDEN = {
    "hubbard3x3": "5dcdea99b0a24b32d35a01cbaab90dad54438dab8a2131389bc230580f56756e",
    "molecular8": "2374f94e4a4a5d1373da89ec5e65964bb2a25b428d4676ccb1ab338d280643e0",
    "molecular8_k6": "de63e8e38ca7343b91a5c99d2f4dc9998eeb0b39bb935be7fccbf1d19a4908ae",
    "pairing12": "7e75a3ce49cfea703cf65c37fe02992154baaf03ec941a152939a6c38a838333",
    "molecular14": "c63e240c30c5de85217a3f133ab3cc68f86dd131090c0f1d5be59c7efe52ad5c",
    "hubbard4x4": "daa8e4ba5dccdebe26e032418bec00d41ea6696419388f09d9e3802fe4d0eab4",
    "pairing40": "a53d7dc60cd2150c7a5146c059cf0aedf565da389492ab3e83cfa58897946725",
    "mixed9": "c86b8652ef6e3bd488648eaba6926ec77ed74414a9f112fdd2e4a0b478f69ae9",
    "hubbard6x6": "35d970228937ec65cbb708d96eae68fac33bedd5b2ecda4f3a70ad8995b419d4",
    "pairing70_k4": "b623978312d99f7a5e4afff991312214f26d22eb8c7ee8bc55c1a334b57fd04f",
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_CASES))
def test_transform_output_is_unchanged(name, tmp_path, capsys):
    assert transform_digest(name, tmp_path, capsys) == TRANSFORM_GOLDEN[name]
