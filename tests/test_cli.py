import json
import tracemalloc
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
        "_is_perfect",
        lambda f, g: is_perfect_by_gcd(f.index, g.index, f.n),
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


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "factor.json"
    code, out, _ = run(
        capsys, "construct", "--n", "5", "--k", "0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["edges"] == [[1, 4], [2, 3]]


def test_output_is_deterministic(capsys):
    first = run(capsys, "pairs", "--n", "15", "--matrix")
    second = run(capsys, "pairs", "--n", "15", "--matrix")
    assert first == second
    third = run(capsys, "construct", "--n", "21")
    fourth = run(capsys, "construct", "--n", "21")
    assert third == fourth
