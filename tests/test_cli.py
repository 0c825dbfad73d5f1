"""Command-line interface: golden outputs and exit codes."""

import io
import json

import numpy as np
import pytest

from fermiselect.cli import main, parse_hamiltonian
from fermiselect.pauli import Lower, Number, Raise

from conftest import scan_pairs_and_numbers


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- Hamiltonian parsing ---------------------------------------------------------


def test_parse_basic():
    terms = parse_hamiltonian("0.5 -0.25 : adag 0 a 2 +hc\n# comment\n1 0 : n 1\n")
    assert len(terms) == 2
    assert terms[0].coefficient == 0.5 - 0.25j
    assert terms[0].factors == (Raise(0), Lower(2))
    assert terms[0].include_hc
    assert terms[1].factors == (Number(1),) and not terms[1].include_hc


@pytest.mark.parametrize("text,msg", [
    ("1 0 n 0", "expected"),
    ("1 : n 0", "two floats"),
    ("x y : n 0", "bad coefficient"),
    ("1 0 : n", "pairs"),
    ("1 0 : b 0", "unknown factor"),
    ("1 0 : n zero", "bad orbital"),
])
def test_parse_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_hamiltonian(text)


@pytest.mark.parametrize("coefficient", ["nan 0", "0 nan", "inf 0", "1 -inf", "-infinity 0"])
def test_parse_rejects_a_non_finite_coefficient(coefficient):
    with pytest.raises(ValueError, match=f"^line 2: bad coefficient: '{coefficient}' is not finite$"):
        parse_hamiltonian(f"1 0 : n 0\n{coefficient} : n 0 # bad\n")


def test_parse_shares_one_factor_per_token_pair():
    terms = parse_hamiltonian("1 0 : adag 0 a 2 +hc\n0.5 0 : adag 0 n 2 a 3 +hc\n2 0 : n 2\n")
    assert terms[1].factors[0] is terms[0].factors[0]
    assert terms[2].factors[0] is terms[1].factors[1]
    assert len({id(f) for t in terms for f in t.factors}) == 4


def test_parse_empty_is_empty():
    assert parse_hamiltonian("") == []
    assert parse_hamiltonian("# only comments\n\n") == []


def test_parse_error_carries_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_hamiltonian("1 0 : n 0\nbroken\n")


# --- transform -------------------------------------------------------------------


def test_transform_number_operator(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("1 0 : n 0\n")
    rc, out, _ = run(["transform", str(src), "--n", "1"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# n=1 k=2 selection_width=7 terms=2"
    assert lines[1] == "# total_alpha=1.0"
    assert lines[2] == "0000000 0.5 +I"
    assert lines[3] == "1000010 0.5 -Z"


def test_transform_stdin_and_hopping(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 : adag 0 a 1 +hc\n"))
    rc, out, _ = run(["transform", "-", "--n", "2"], capsys)
    assert rc == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert sorted(ln.split()[-1] for ln in body) == ["+XX", "+YY"]
    assert all(ln.split()[1] == "0.5" for ln in body)


def test_transform_infers_k(capsys, monkeypatch):
    # a 4-operator term occupies four slots (two endpoints per pair)
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 : adag 0 a 1 adag 2 a 3 +hc\n"))
    rc, out, _ = run(["transform", "-", "--n", "4"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "# n=4 k=4 selection_width=21 terms=8"


def splits_of_transform(argv, capsys, monkeypatch):
    """(letters, numbers) of each columnar split made during a transform
    run, and the printed strings.

    The run must read no row of ``PauliLCU.entries`` or of the encoded
    words and build no ``PauliString``."""
    from fermiselect import pauli

    split, seen = pauli._split, []

    def counted(letters):
        x, z, numbers = split(letters)
        seen.append((letters.copy(), numbers))
        return x, z, numbers

    def never(*args):
        raise AssertionError("the transform path built a row or re-split a string")

    monkeypatch.setattr(pauli, "_split", counted)
    for name in ("__getitem__", "__iter__"):
        monkeypatch.setattr(pauli._Rows, name, never)
    monkeypatch.setattr(pauli._Columns, "row", never)
    monkeypatch.setattr(pauli.PauliString, "__post_init__", never)
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 : adag 0 a 1 adag 2 a 3 +hc\n1 0 : n 2\n"))
    rc, out, _ = run(["transform", "-", "--n", "4", *argv], capsys)
    assert rc == 0 and out.splitlines()[0].startswith("# n=4 k=4 ")
    body = [ln.split()[-1][1:] for ln in out.splitlines() if not ln.startswith("#")]
    return seen, body


def assert_one_split_of(seen, body):
    # one split for the whole table, in printed order, its numbers those of a letter scan
    assert len(body) == 10 and len(seen) == 1
    letters, numbers = seen[0]
    assert [row.tobytes().decode() for row in letters] == body
    assert [list(np.flatnonzero(row)) for row in numbers] == [scan_pairs_and_numbers(s)[1] for s in body]


def test_transform_with_k_splits_each_row_once(capsys, monkeypatch):
    # the encoder reads the table's split: no per-row mask, no second split
    assert_one_split_of(*splits_of_transform(["--k", "4"], capsys, monkeypatch))


def test_transform_inferring_k_splits_each_row_once(capsys, monkeypatch):
    # k is read off the same split the encoder then reuses
    assert_one_split_of(*splits_of_transform([], capsys, monkeypatch))


def test_transform_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing here\n")
    rc, out, _ = run(["transform", str(src), "--n", "2"], capsys)
    assert rc == 0
    assert [ln for ln in out.splitlines() if not ln.startswith("#")] == []
    assert "terms=0" in out.splitlines()[0]


def test_transform_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("nonsense\n")
    rc, _, err = run(["transform", str(src), "--n", "2"], capsys)
    assert rc == 2
    assert "line 1" in err


@pytest.mark.parametrize("text,argv,msg", [
    ("1 0 : adag 0 adag 1 a 2 a 3 +hc\n", ["--n", "4", "--k", "2"],
     "needs 4 endpoint and 0 number slots, but k=2"),
    ("1 0 : adag 0 a 5 +hc\n", ["--n", "4"], "orbital 5 out of range for n=4"),
    ("1 0 : adag 0 a 1\n", ["--n", "4"], "not Hermitian"),
    ("", ["--n", "-3"], "number of orbitals must be non-negative, got -3"),
])
def test_transform_rejections_exit_2(text, argv, msg, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(["transform", "-", *argv], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and msg in err


@pytest.mark.parametrize("text,line,msg", [
    ("1 0 : adag 0 a 20 +hc\n", 1, "orbital 20 out of range for n=4"),
    ("1 0 : n 1\n\n# comment\n1 0 : adag -1 a 1 +hc\n", 4, "orbital -1 out of range"),
    ("1 0 : n 1\n1 0 : n 99999999999999999999\n", 2, "orbital 99999999999999999999 out of range"),
    ("1 0 : n 1\n1 0 : adag 2 a 1 +hc\n", 2, "indices must be strictly increasing"),
    ("1 0 : adag 0 a 1 +hc\n1 0 : a 0 adag 1 +hc\n", 2, "non-canonical ladder pair a a"),
    ("1 0 : adag 0 adag 2 a 1 a 3 +hc\n", 1, "first pair must precede second"),
    # the first bad term wins over a later one whose factor signature came first
    ("1 0 : n 1\n1 0 : adag 2 a 1 +hc\n1 0 : n 9\n", 2, "non-canonical ladder pair: indices must be strictly"),
])
def test_transform_names_the_line_of_an_invalid_term(text, line, msg, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(["transform", "-", "--n", "4"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: line {line}: ") and msg in err


@pytest.mark.parametrize("text,line,msg", [
    ("1 0 : n 1\n1 0 : adag 0 a 0\n", 2, "got 0 twice: a†_0 a_0 is the number operator, write 'n 0'"),
    ("1 0 : a 0 a 0 +hc\n", 1, "got 0 twice: a_0 a_0 and a†_0 a†_0 are zero"),
    ("1 0 : adag 2 adag 2 a 3 a 1 +hc\n", 1, "got 2 twice: a_2 a_2 and a†_2 a†_2 are zero"),
    ("1 0 : a 1 adag 1 +hc\n", 1, "got 1 twice: a_1 a†_1 is 1 - n_1, write it with 'n 1'"),
], ids=["adag-a", "a-a", "adag-adag", "a-adag"])
def test_transform_repeated_orbital_says_what_holds(text, line, msg, capsys, monkeypatch):
    # a†_p a_p is n_p, a_p a†_p is 1 - n_p and a_p a_p is zero: no conjugate
    # rewrite helps, so the message does not suggest one
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(["transform", "-", "--n", "4"], capsys)
    assert rc == 2 and out == ""
    assert err == f"error: line {line}: ladder pair indices must be strictly increasing, {msg}\n"


def test_transform_k_too_small_names_the_string(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 : adag 0 adag 1 a 2 a 3 +hc\n"))
    rc, _, err = run(["transform", "-", "--n", "4", "--k", "2"], capsys)
    assert rc == 2
    assert "pattern XXXX needs 4 endpoint and 0 number slots, but k=2" in err


def test_transform_non_hermitian_names_the_string(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 : adag 0 a 1\n"))
    rc, _, err = run(["transform", "-", "--n", "4"], capsys)
    assert rc == 2 and "on XYII)" in err and "include_hc" in err


@pytest.mark.parametrize("text,argv", [
    ("1 0 : adag 0 adag 1 a 2 a 1023 +hc\n", ["--k", "2"]),
    ("1 0 : adag 0 a 1023\n", []),
])
def test_transform_messages_shorten_long_strings(text, argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, _, err = run(["transform", "-", "--n", "1024", *argv], capsys)
    assert rc == 2 and "… (1024 letters)" in err and len(err) < 250


def test_transform_missing_file(capsys):
    rc, _, err = run(["transform", "/no/such/file", "--n", "2"], capsys)
    assert rc == 2 and "error:" in err


# --- synth -----------------------------------------------------------------------


def test_synth_header_and_registers(capsys):
    rc, out, _ = run(["synth", "--n", "4", "--k", "2"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "qubits 11;"
    regs = [ln for ln in lines if ln.startswith("#")]
    assert any("system" in ln for ln in regs)
    # lowered output contains only terminal gates (a/adg are the star
    # variant's basis-change rotations)
    ops = {ln.split()[0] for ln in lines[1:] if not ln.startswith("#")}
    assert ops <= {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "a", "adg", "cx", "cy", "cz"}
    assert "a" in ops and "cx" in ops


def test_synth_plain_variant_uses_t_gates(capsys):
    rc, out, _ = run(["synth", "--n", "4", "--variant", "plain"], capsys)
    assert rc == 0
    ops = {ln.split()[0] for ln in out.splitlines()[1:] if not ln.startswith("#")}
    assert "t" in ops and "tdg" in ops and "a" not in ops


def test_synth_controls_add_qubits(capsys):
    rc, out, _ = run(["synth", "--n", "4", "--controls", "1"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "qubits 12;"


def test_synth_two_controls_needs_k2(capsys):
    rc, out, err = run(["synth", "--n", "4", "--k", "4", "--controls", "2"], capsys)
    assert rc == 2 and out == ""
    assert "doubly-controlled S† is not exactly expressible" in err


def test_synth_output_file(tmp_path, capsys):
    dest = tmp_path / "circ.txt"
    rc, out, _ = run(["synth", "--n", "2", "--output", str(dest)], capsys)
    assert rc == 0 and out == ""
    assert dest.read_text().startswith("qubits 7;")


# --- resources -------------------------------------------------------------------


def test_resources_single_n(capsys):
    rc, out, _ = run(["resources", "--n", "8"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "component,n,metric,measured,expected,status"
    assert "SwapUp,8,t_count,98,98,ok" in out
    assert ",FAIL" not in out


def test_resources_n_list(capsys):
    rc, out, _ = run(["resources", "--n-list", "4,8"], capsys)
    assert rc == 0
    sizes = {ln.split(",")[1] for ln in out.splitlines()[1:]}
    assert sizes == {"4", "8"}


def test_resources_n_and_n_list_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resources", "--n", "3", "--n-list", "8"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--n-list" in err and "not allowed" in err


@pytest.mark.parametrize("value", [",", "", " , "])
def test_resources_n_list_without_sizes_exits_2(value, capsys):
    rc, out, err = run(["resources", f"--n-list={value}"], capsys)
    assert rc == 2 and "--n-list" in err and not out


@pytest.mark.parametrize("value", ["4,x", "4.5", "8,,y"])
def test_resources_bad_n_list_token_names_the_flag(value, capsys):
    rc, out, err = run(["resources", f"--n-list={value}"], capsys)
    assert rc == 2 and "--n-list" in err and "invalid literal" not in err and not out


# --- verify ----------------------------------------------------------------------


def test_verify_passes(capsys):
    rc, out, _ = run(["verify", "--n", "2", "--trials", "2", "--seed", "4"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] and report["states_checked"] == 8
    assert report["max_error"] < 1e-9


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_too_few_trials(trials, capsys):
    rc, out, err = run(["verify", "--n", "3", "--trials", trials], capsys)
    assert rc == 2 and "trials" in err and not out


def test_verify_rejects_a_negative_seed(capsys):
    rc, out, err = run(["verify", "--n", "4", "--seed", "-1"], capsys)
    assert rc == 2 and "seed" in err and not out


def test_verify_capacity_guard(capsys):
    rc, _, err = run(["verify", "--n", "16"], capsys)
    assert rc == 2 and "at most" in err
    rc, _, err = run(["verify", "--n", "6", "--k", "4"], capsys)
    assert rc == 2 and "at most" in err


@pytest.mark.parametrize("k", ["0", "3", "-2"])
def test_verify_names_a_bad_k_before_the_size_cap(k, capsys):
    rc, out, err = run(["verify", "--n", "6", "--k", k], capsys)
    assert rc == 2 and not out
    assert f"k must be even and >= 2, got {k}" in err and "at most" not in err
