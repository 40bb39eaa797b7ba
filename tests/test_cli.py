import argparse
import io
import json
import runpy
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

import nearfactor.cli
from nearfactor.cli import main
from nearfactor.factors import Factor, build_modular_factorization
from nearfactor.pairing import is_perfect_by_gcd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_single_factor_json(capsys):
    code, out, _ = run(capsys, "construct", "--n", "5", "--k", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 5,
        "index": 0,
        "isolated": 0,
        "edges": [[1, 4], [2, 3]],
    }


def test_construct_output_round_trips(capsys):
    code, out, _ = run(capsys, "construct", "--n", "9", "--k", "4")
    assert code == 0
    from nearfactor.factors import build_modular_factor

    assert Factor.from_dict(json.loads(out)) == build_modular_factor(9, 4)


def test_construct_whole_factorization(capsys):
    code, out, _ = run(capsys, "construct", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert [f["edges"] for f in data["factors"]] == [[[1, 2]], [[0, 1]], [[0, 2]]]
    assert [f["isolated"] for f in data["factors"]] == [0, 2, 1]


def test_construct_even_factor(capsys):
    code, out, _ = run(capsys, "construct", "--n", "4", "--k", "0", "--even")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["edges"] == [[0, 2], [1, 3]]
    assert data["isolated"] is None


def test_construct_validation_failures(capsys):
    assert run(capsys, "construct", "--n", "4", "--k", "0")[0] == 2
    assert run(capsys, "construct", "--n", "5", "--k", "7")[0] == 2
    assert run(capsys, "construct", "--n", "5", "--k", "0", "--even")[0] == 2
    assert run(capsys, "construct", "--n", "4", "--even")[0] == 2


def test_construct_dot_output(capsys):
    code, out, _ = run(capsys, "construct", "--n", "5", "--k", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("graph factor_0 {")
    assert "1 -- 4;" in out and "2 -- 3;" in out
    assert 'doublecircle' in out  # the isolated vertex is marked


def test_construct_text_output(capsys):
    code, out, _ = run(capsys, "construct", "--n", "5", "--k", "1", "--format", "text")
    assert code == 0
    assert "K_5" in out and "isolated 3" in out


def test_pairs_report(capsys):
    code, out, _ = run(capsys, "pairs", "--n", "9")
    assert code == 0
    assert json.loads(out) == {
        "n": 9,
        "perfect_pairs": 27,
        "formula": "n*phi(n)/2",
        "formula_value": 27,
        "agree": True,
    }


def test_pairs_report_k5(capsys):
    code, out, _ = run(capsys, "pairs", "--n", "5")
    data = json.loads(out)
    assert code == 0
    assert data["perfect_pairs"] == 10 and data["agree"] is True


def test_pairs_matrix(capsys):
    code, out, _ = run(capsys, "pairs", "--n", "15", "--matrix")
    assert code == 0
    matrix = json.loads(out)["matrix"]
    assert len(matrix) == 15
    for k in range(15):
        assert matrix[k][k] == 0
        assert sum(matrix[k]) == 8  # phi(15) partners per index
        for l in range(15):
            assert matrix[k][l] == matrix[l][k]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairs_allocates_the_matrix_only_with_matrix_flag(capsys, monkeypatch):
    # The gcd criterion decides modular pairs exactly as the walk does and
    # allocates nothing, so swapping it in keeps the run short without
    # changing what cmd_pairs itself allocates.
    monkeypatch.setattr(
        nearfactor.cli,
        "_pair_verdicts",
        lambda fz: (
            is_perfect_by_gcd(f.index, g.index, f.n)
            for f, g in combinations(fz.factors, 2)
        ),
    )
    n = 301
    matrix_pointers = 8 * n * n
    family = _peak_bytes(lambda: build_modular_factorization(n))
    plain = _peak_bytes(lambda: main(["pairs", "--n", str(n)]))
    with_matrix = _peak_bytes(lambda: main(["pairs", "--n", str(n), "--matrix"]))
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0])["agree"] is True
    assert len(json.loads(out[1])["matrix"]) == n
    assert plain - family < matrix_pointers // 2
    assert plain + matrix_pointers < with_matrix


def test_pairs_rejects_even_order(capsys):
    code, _, err = run(capsys, "pairs", "--n", "4")
    assert code == 2
    assert "error" in err


def test_pairs_witness_json(capsys):
    code, out, _ = run(
        capsys, "pairs", "--n", "5", "--witness", "--k", "0", "--l", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["perfect"] is True
    assert data["walk"]["vertices"] == [0, 1, 4, 2, 3]
    assert data["walk"]["terminal"] == "reached-other-isolated"


def test_pairs_witness_dot(capsys):
    code, out, _ = run(
        capsys,
        "pairs", "--n", "5", "--witness", "--k", "0", "--l", "1",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph pair_k0_l1 {")
    assert 'color="blue"' in out and 'color="red"' in out


def test_pairs_witness_needs_indices(capsys):
    assert run(capsys, "pairs", "--n", "5", "--witness")[0] == 2
    assert run(capsys, "pairs", "--n", "5", "--format", "dot")[0] == 2


def test_equiv_success(capsys):
    code, out, _ = run(capsys, "equiv", "--s", "3", "--t", "5")
    assert code == 0
    data = json.loads(out)
    assert data["direct_bound"] == 60 and data["product_bound"] == 60
    assert data["all_edge_sets_equal"] and data["bounds_equal"]
    assert data["failures"] == []


def test_equiv_rejects_common_factor(capsys):
    code, _, err = run(capsys, "equiv", "--s", "3", "--t", "9")
    assert code == 2
    assert "moduli not coprime" in err


def test_oracle_k3(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "exact_c": 3,
        "lower_bound": 3,
        "factorizations_seen": 1,
    }


def test_oracle_guards_k9(capsys):
    code, _, err = run(capsys, "oracle", "--n", "9")
    assert code == 3
    assert "refused" in err


def test_oracle_rejects_even(capsys):
    assert run(capsys, "oracle", "--n", "4")[0] == 2


def test_verify_accepts_modular_factorization(tmp_path, capsys):
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(build_modular_factorization(5).to_dict()))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["problems"] == []
    assert data["perfect_pairs"] == 10


def test_verify_accepts_the_perfect_k9_witness(capsys):
    path = Path(__file__).parent / "data" / "k9_perfect.json"
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {
        "n": 9,
        "factor_count": 9,
        "valid": True,
        "problems": [],
        "perfect_pairs": 36,
    }


def test_verify_flags_broken_file(tmp_path, capsys):
    fz = build_modular_factorization(5).to_dict()
    fz["factors"][0]["edges"] = [[1, 4], [2, 4]]  # vertex 4 twice, 3 uncovered
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fz))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["valid"] is False
    assert any("covered twice" in p for p in data["problems"])
    assert data["perfect_pairs"] is None


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    assert run(capsys, "verify", "--input", str(tmp_path / "nope.json"))[0] == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "verify", "--input", str(path))[0] == 2
    path2 = tmp_path / "wrong.json"
    path2.write_text(json.dumps({"n": 5}))
    assert run(capsys, "verify", "--input", str(path2))[0] == 2


def test_verify_rejects_an_edge_with_extra_endpoints(tmp_path, capsys):
    fz = build_modular_factorization(5).to_dict()
    fz["factors"][0]["edges"][0] += [3, 4]  # [1, 4, 3, 4] used to load as (1, 4)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(fz))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: edge [1, 4, 3, 4] must have exactly two endpoints\n"


def test_verify_reports_the_first_defect_of_a_factor(tmp_path, capsys):
    fz = build_modular_factorization(5).to_dict()
    fz["factors"][0]["edges"] = [[2, 2], [1, 4, 3]]  # a loop, then three endpoints
    path = tmp_path / "two_defects.json"
    path.write_text(json.dumps(fz))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out, err) == (2, "", "error: loop edge (2, 2) is not allowed\n")


def test_verify_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ")
    assert "Traceback" not in err


def test_verify_rejects_booleans_as_vertex_labels(tmp_path, capsys):
    # Every 1 in the construct output written as true used to verify as valid.
    code, out, _ = run(capsys, "construct", "--n", "5")
    assert code == 0
    path = tmp_path / "true.json"
    path.write_text(out.replace("1", "true"))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: edge [True, 4] must have integer endpoints\n"
    data = build_modular_factorization(5).to_dict()
    data["factors"][2]["isolated"] = True
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out, err) == (2, "", "error: isolated must be an integer, got True\n")


def test_verify_reports_a_huge_declared_order_in_bounded_memory(tmp_path, capsys):
    n = 2_000_001
    path = tmp_path / "sparse.json"
    path.write_text('{"n": 2000001, "factors": [{"n": 2000001, "edges": [], "isolated": 0}]}')
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--input", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == ""
    assert json.loads(out)["problems"][1] == (
        f"factor 0 invalid: vertices {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}} and {n - 11} more uncovered"
    )
    assert peak < 1_000_000


def test_verify_refuses_an_input_over_the_cap(tmp_path, capsys, monkeypatch):
    text = json.dumps(build_modular_factorization(5).to_dict())
    monkeypatch.setattr(nearfactor.cli, "MAX_INPUT_BYTES", len(text))
    path = tmp_path / "at_cap.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["perfect_pairs"] == 10
    path.write_text(text + " ")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} is larger than {len(text)} bytes\n"


def test_verify_reads_at_most_one_byte_past_the_cap(capsys, monkeypatch):
    """An input far larger than the cap is read only to the cap plus one byte."""
    reads = []

    class Recorded(io.BytesIO):
        def read(self, size=-1):
            data = super().read(size)
            reads.append(len(data))
            return data

    monkeypatch.setattr(nearfactor.cli, "MAX_INPUT_BYTES", 100)
    monkeypatch.setattr(
        nearfactor.cli, "open", lambda *args: Recorded(b" " * 100_000), raising=False
    )
    code, out, err = run(capsys, "verify", "--input", "big.json")
    assert (code, out, err) == (2, "", "error: big.json is larger than 100 bytes\n")
    assert sum(reads) == 101


@pytest.mark.parametrize(
    "raw",
    [
        b'{"n": 5,\r\n "factors": []}',
        b'{"n": 5,\r "factors": [}',
        b'{"n": 5, "factors": [\r\n\r\n x]}',
        b'{"n": "\r\n"}',
        b'{"n": 5, "factors": []}\xff',
        b'{"n": "\xc3\xa9", \xe2\x82}',
        b'{"n": 5, "factors": []}\xe2\x82',
        b"\xef\xbb\xbf{}",
    ],
)
def test_verify_decodes_as_a_text_mode_read(tmp_path, capsys, raw):
    """Newlines translated, UTF-8 decoded in one go: every message as before."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            json.load(handle)
    except json.JSONDecodeError as exc:
        expected = f"error: invalid JSON in {path}: {exc}\n"
    except ValueError as exc:
        expected = f"error: {exc}\n"
    else:
        expected = None
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    if expected is not None:
        assert (out, err) == ("", expected)


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "factor.json"
    code, out, _ = run(
        capsys, "construct", "--n", "5", "--k", "0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["edges"] == [[1, 4], [2, 3]]


def test_unwritable_output_is_a_validation_error(tmp_path, capsys):
    for target in (tmp_path / "no" / "such" / "x.json", tmp_path):
        code, out, err = run(capsys, "construct", "--n", "5", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "pairs", "--n", "15", "--matrix")
    second = run(capsys, "pairs", "--n", "15", "--matrix")
    assert first == second
    third = run(capsys, "construct", "--n", "21")
    fourth = run(capsys, "construct", "--n", "21")
    assert third == fourth


FILES = ("good", "bad")


def _factorization_file(path, broken):
    data = build_modular_factorization(5).to_dict()
    if broken:
        data["factors"][0]["edges"] = [[1, 4], [2, 4]]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["pairs", "--n", "9"], 0),
        (["pairs", "--n", "9", "--format", "text"], 0),
        (["pairs", "--n", "5", "--witness", "--k", "0", "--l", "1", "--format=dot"], 0),
        (["pairs", "--n", "5", "--witness", "--k", "0", "--l", "1"], 0),
        (["equiv", "--s", "3", "--t", "5"], 0),
        (["equiv", "--s", "3", "--t", "5", "--format", "text"], 0),
        (["oracle", "--n", "5"], 0),
        (["oracle", "--n", "5", "--format", "text"], 0),
        (["verify", "--input", "good"], 0),
        (["verify", "--input", "bad", "--format", "text"], 2),
        (["verify", "--input", "bad"], 2),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, list) else None,
)
def test_output_flag_writes_the_bytes_stdout_gets(tmp_path, capsys, argv, code):
    files = {name: _factorization_file(tmp_path / name, name == "bad") for name in FILES}
    argv = [files.get(arg, arg) for arg in argv]
    to_stdout, out, err = run(capsys, *argv)
    assert (to_stdout, err) == (code, "") and out
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--output", str(target)) == (code, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_equiv_whose_comparison_fails_reports_and_exits_2(monkeypatch, capsys):
    from nearfactor import EquivalenceReport

    report = EquivalenceReport(3, 5, 15, ((0, 0, 0),), False, 60, 60, True, (4,))
    monkeypatch.setattr(nearfactor.equivalence, "build_equivalence_report", lambda s, t: report)
    code, out, err = run(capsys, "equiv", "--s", "3", "--t", "5")
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "s": 3,
        "t": 5,
        "n": 15,
        "index_map": [[0, 0, 0]],
        "all_edge_sets_equal": False,
        "direct_bound": 60,
        "product_bound": 60,
        "bounds_equal": True,
        "failures": [4],
    }
    code, out, err = run(capsys, "equiv", "--s", "3", "--t", "5", "--format", "text")
    assert (code, err) == (2, "")
    assert out == (
        "K_15 as K_3 x K_5: factors equal: False; bounds 60 vs 60: equal: True\n"
    )


def test_pairs_whose_gcd_cross_check_disagrees_says_so_and_exits_0(monkeypatch, capsys):
    monkeypatch.setattr(nearfactor.cli, "is_perfect_by_gcd", lambda k, l, n: True)
    code, out, err = run(capsys, "pairs", "--n", "9")
    assert (code, err) == (0, "")
    assert out == (
        '{"agree":false,"formula":"n*phi(n)/2","formula_value":27,"n":9,'
        '"perfect_pairs":27}\n'
    )


def test_running_the_module_exits_with_the_code_main_returns(monkeypatch, capsys):
    # runpy runs a fresh copy of the module; one left imported would warn.
    monkeypatch.delitem(sys.modules, "nearfactor.cli")
    monkeypatch.setattr(sys, "argv", ["nearfactor", "oracle", "--n", "9"])
    with pytest.raises(SystemExit) as stopped:
        runpy.run_module("nearfactor.cli", run_name="__main__")
    assert stopped.value.code == 3
    assert capsys.readouterr().err.startswith("refused: ")


# A guard inside pairs, construct or equiv raises the numtheory class, so the
# refusal must reach exit 3 without the oracle ever loading.  -I, -S and -B
# as in test_dependencies.
REFUSING_PAIRS = """
import sys
sys.path.insert(0, sys.argv[1])
import nearfactor.cli
from nearfactor.numtheory import CostGuardError

def refuse(n):
    raise CostGuardError(f"K_{n} is too large")

nearfactor.cli.build_modular_factorization = refuse
code = nearfactor.cli.main(["pairs", "--n", "9"])
print(code, "nearfactor.oracle" in sys.modules)
"""


def test_a_cost_guard_refusal_in_pairs_exits_3_without_the_oracle():
    src = str(Path(nearfactor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", REFUSING_PAIRS, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert (proc.stdout, proc.stderr) == ("3 False\n", "refused: K_9 is too large\n")
    assert nearfactor.CostGuardError is nearfactor.oracle.CostGuardError


FORMATS = {
    "construct": ("json", "dot", "text"),
    "pairs": ("json", "dot", "text"),
    "equiv": ("json", "text"),
    "oracle": ("json", "text"),
    "verify": ("json", "text"),
}
REQUIRED = {
    "construct": ["--n", "5"],
    "pairs": ["--n", "5"],
    "equiv": ["--s", "3", "--t", "5"],
    "oracle": ["--n", "5"],
    "verify": ["--input", "family.json"],
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_subcommand_offers_its_formats_and_output(name, capsys):
    (subparsers,) = [
        action
        for action in nearfactor.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(subparsers.choices) == sorted(FORMATS)
    options = {
        action.option_strings[-1]: action for action in subparsers.choices[name]._actions
    }
    assert options["--format"].choices == FORMATS[name]
    assert options["--format"].default == "json"
    assert options["--output"].default is None
    with pytest.raises(SystemExit) as stopped:
        main([name, *REQUIRED[name], "--format", "yaml"])
    assert stopped.value.code == 2
    assert "argument --format: invalid choice" in capsys.readouterr().err
