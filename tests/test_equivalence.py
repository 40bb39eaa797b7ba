import pytest

from nearfactor import equivalence
from nearfactor.equivalence import (
    build_equivalence_report,
    crt_vertex_map,
    map_factor_index,
    verify_factor_equality,
)
from nearfactor.factors import build_modular_factorization
from nearfactor.numtheory import gcd, totient
from nearfactor.pairing import count_perfect_pairs
from nearfactor.product import (
    build_product_factor,
    count_perfect_product_pairs,
    is_perfect_product_pair,
    predicted_perfect_product_pairs,
)


def test_crt_vertex_map_examples():
    assert crt_vertex_map(7, 3, 5) == (1, 2)
    assert crt_vertex_map(14, 3, 5) == (2, 4)
    with pytest.raises(ValueError):
        crt_vertex_map(15, 3, 5)
    with pytest.raises(ValueError, match="moduli not coprime"):
        crt_vertex_map(0, 3, 9)


def test_crt_vertex_map_is_bijection():
    for s, t in ((3, 5), (5, 7), (9, 11), (13, 15)):
        images = {crt_vertex_map(v, s, t) for v in range(s * t)}
        assert len(images) == s * t


def test_map_factor_index_example():
    assert map_factor_index(11, 3, 7) == (2, 4)
    assert map_factor_index(0, 3, 5) == (0, 0)


def test_verify_factor_equality_3x5():
    for p in range(15):
        assert verify_factor_equality(p, 3, 5)


def test_equivalence_report_values():
    report = build_equivalence_report(3, 5)
    assert report.n == 15
    assert report.direct_bound == 60
    assert report.product_bound == 60
    assert report.bounds_equal
    assert report.all_edge_sets_equal
    assert report.failures == ()
    assert len(report.index_map) == 15
    assert len({(k, l) for _, k, l in report.index_map}) == 15

    assert build_equivalence_report(3, 7).direct_bound == 126
    assert build_equivalence_report(5, 7).product_bound == 420


def test_equivalence_report_rejects_bad_moduli():
    with pytest.raises(ValueError, match="moduli not coprime"):
        build_equivalence_report(3, 9)
    with pytest.raises(ValueError):
        build_equivalence_report(3, 4)


def test_report_json_shape():
    report = build_equivalence_report(3, 5)
    data = report.to_dict()
    assert data["s"] == 3 and data["t"] == 5 and data["n"] == 15
    assert data["failures"] == []
    assert data["index_map"][7] == [7, 1, 2]
    assert data["all_edge_sets_equal"] is True
    assert data["bounds_equal"] is True


def test_bound_identity_small():
    for s in range(3, 30, 2):
        for t in range(3, 30, 2):
            if gcd(s, t) != 1:
                continue
            n = s * t
            assert n * totient(n) // 2 == 2 * (s * totient(s) // 2) * (
                t * totient(t) // 2
            )


def test_count_transfer_through_the_correspondence():
    # the direct count on K_{st} and the product-family count coincide
    for s, t in ((3, 5), (3, 7), (5, 7), (5, 9), (7, 9)):
        direct = count_perfect_pairs(build_modular_factorization(s * t))
        assert direct == count_perfect_product_pairs(s, t)
        assert direct == s * t * totient(s * t) // 2


def _outcome(call, args):
    """("ok", result) or (exception type, its text) for call(*args)."""
    try:
        return "ok", call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


ODD = "modular near-one-factor requires odd order, got {}"
ORDER_S = "constituent order s must be odd and >= 3, got {}"
ORDER_T = "constituent order t must be odd and >= 3, got {}"
FLOAT = "'float' object cannot be interpreted as an integer"
STR = "'str' object cannot be interpreted as an integer"
DISTINCT = "product factor index pairs must be distinct"
BOOL = "{} must be an integer, got {}"


# The first refusal of each bad input: which check speaks first is part of
# the contract, whichever order the calls run their checks in internally.
@pytest.mark.parametrize(
    "call, args, kind, text",
    [
        (verify_factor_equality, (0, 2, 3), ValueError, ODD.format(6)),
        (verify_factor_equality, (0, 1, 5), ValueError, ORDER_S.format(1)),
        (verify_factor_equality, (0, 3, 9), ValueError, "moduli not coprime: gcd(3, 9) = 3"),
        (verify_factor_equality, (0, 1, 1), ValueError, "graph order must be >= 3, got 1"),
        (verify_factor_equality, (0, 1, 2), ValueError, "graph order must be >= 3, got 2"),
        (verify_factor_equality, (0, 1, 3), ValueError, ORDER_S.format(1)),
        (verify_factor_equality, (0, 3, 1), ValueError, ORDER_T.format(1)),
        (verify_factor_equality, (0, 2, 9), ValueError, ODD.format(18)),
        (verify_factor_equality, (0, 9, 2), ValueError, ODD.format(18)),
        (verify_factor_equality, (0, 2, 4), ValueError, "moduli not coprime: gcd(2, 4) = 2"),
        (verify_factor_equality, (0, 0, 3), ValueError, "moduli must be >= 1, got (0, 3)"),
        (verify_factor_equality, (0, -3, 5), ValueError, "moduli must be >= 1, got (-3, 5)"),
        (verify_factor_equality, (True, 3, 5), ValueError, BOOL.format("p", True)),
        (verify_factor_equality, (0, True, 5), ValueError, BOOL.format("s", True)),
        (verify_factor_equality, (0, 3, False), ValueError, BOOL.format("t", False)),
        (verify_factor_equality, (True, 2, 3), ValueError, BOOL.format("p", True)),
        (verify_factor_equality, (False, 1, 5), ValueError, BOOL.format("p", False)),
        (verify_factor_equality, (0.0, 3, 5), TypeError, FLOAT),
        (verify_factor_equality, (0, 3, 5.0), TypeError, FLOAT),
        (verify_factor_equality, ("0", 2, 3), TypeError, STR),
        (build_equivalence_report, (2, 3), ValueError, ORDER_S.format(2)),
        (build_equivalence_report, (1, 5), ValueError, ORDER_S.format(1)),
        (build_equivalence_report, (3, 9), ValueError, "moduli not coprime: gcd(3, 9) = 3"),
        (build_equivalence_report, (1, 1), ValueError, ORDER_S.format(1)),
        (build_equivalence_report, (5, 1), ValueError, ORDER_T.format(1)),
        (build_equivalence_report, (2, 9), ValueError, ORDER_S.format(2)),
        (build_equivalence_report, (0, 3), ValueError, "moduli must be >= 1, got (0, 3)"),
        (build_equivalence_report, (-3, 5), ValueError, "moduli must be >= 1, got (-3, 5)"),
        (build_equivalence_report, (True, 5), ValueError, BOOL.format("s", True)),
        (build_equivalence_report, (3, False), ValueError, BOOL.format("t", False)),
        (build_equivalence_report, (3.0, 5), TypeError, FLOAT),
        (build_product_factor, (2, 5, 0, 0), ValueError, ORDER_S.format(2)),
        (build_product_factor, (3, 4, 0, 0), ValueError, ORDER_T.format(4)),
        (build_product_factor, (1, 5, 0, 0), ValueError, ORDER_S.format(1)),
        (build_product_factor, (3, -5, 0, 0), ValueError, ORDER_T.format(-5)),
        (build_product_factor, (True, 5, 0, 0), ValueError, BOOL.format("s", True)),
        (build_product_factor, (3, False, 0, 0), ValueError, BOOL.format("t", False)),
        (build_product_factor, (2, 5, True, 0), ValueError, ORDER_S.format(2)),
        (build_product_factor, (3, 5, True, 0), ValueError, BOOL.format("first index", True)),
        (build_product_factor, (3, 5, 0, False), ValueError, BOOL.format("second index", False)),
        (build_product_factor, (3, 5, 9, True), ValueError, BOOL.format("second index", True)),
        (build_product_factor, (3, 5, 3, 0), ValueError, "first index 3 not in [0, 3)"),
        (build_product_factor, (3, 5, -1, 0), ValueError, "first index -1 not in [0, 3)"),
        (build_product_factor, (3, 5, 0, 5), ValueError, "second index 5 not in [0, 5)"),
        (build_product_factor, (3, 5, 3, 5), ValueError, "first index 3 not in [0, 3)"),
        (build_product_factor, (3, 5, 1.0, 0), TypeError, FLOAT),
        (build_product_factor, (3, 5, 0, "0"), TypeError, STR),
        (build_product_factor, (3.0, 5, 0, 0), TypeError, FLOAT),
        (is_perfect_product_pair, (3, 5, (0, 0), (0, 0)), ValueError, DISTINCT),
        (is_perfect_product_pair, (3, 5, (0, 0), (3, 5)), ValueError, DISTINCT),
        (is_perfect_product_pair, (3, 5, (-1, 4), (2, -1)), ValueError, DISTINCT),
        (is_perfect_product_pair, (2, 5, (0, 0), (1, 1)), ValueError, ORDER_S.format(2)),
        (is_perfect_product_pair, (3, 6, (0, 0), (1, 1)), ValueError, ORDER_T.format(6)),
        (is_perfect_product_pair, (1, 5, (0, 0), (1, 1)), ValueError, ORDER_S.format(1)),
        (is_perfect_product_pair, (True, 5, (0, 0), (1, 1)), ValueError, BOOL.format("s", True)),
        (is_perfect_product_pair, (3, False, (0, 0), (1, 1)), ValueError, BOOL.format("t", False)),
        (is_perfect_product_pair, (2, 5, (True, 0), (1, 1)), ValueError, ORDER_S.format(2)),
        (
            is_perfect_product_pair,
            (3, 5, (True, 0),
            (1,
            1)), ValueError, BOOL.format("first index", True),
        ),
        (
            is_perfect_product_pair,
            (3, 5, (0, False),
            (1,
            1)), ValueError, BOOL.format("second index", False),
        ),
        (
            is_perfect_product_pair,
            (3, 5, (0, 0),
            (True,
            1)), ValueError, BOOL.format("first index", True),
        ),
        (
            is_perfect_product_pair,
            (3, 5, (0, 0),
            (1,
            False)), ValueError, BOOL.format("second index", False),
        ),
        (
            is_perfect_product_pair,
            (3, 5, (0, True),
            (True,
            0)), ValueError, BOOL.format("second index", True),
        ),
        (
            is_perfect_product_pair,
            (3, 5, (0, 0),
            (0,
            True)), ValueError, BOOL.format("second index", True),
        ),
        (is_perfect_product_pair, (3, 5, (0.0, 0), (1, 1)), TypeError, FLOAT),
        (is_perfect_product_pair, (3, 5, (0, 0), (1, "1")), TypeError, STR),
        (is_perfect_product_pair, (3, 5, (0, 0), (3, 5.0)), TypeError, FLOAT),
        (predicted_perfect_product_pairs, (2, 3), ValueError, ORDER_S.format(2)),
        (predicted_perfect_product_pairs, (3, 2), ValueError, ORDER_T.format(2)),
        (predicted_perfect_product_pairs, (1, 5), ValueError, ORDER_S.format(1)),
        (predicted_perfect_product_pairs, (-3, 5), ValueError, ORDER_S.format(-3)),
        (predicted_perfect_product_pairs, (0, 3), ValueError, ORDER_S.format(0)),
        (predicted_perfect_product_pairs, (True, 3), ValueError, BOOL.format("s", True)),
        (predicted_perfect_product_pairs, (3, False), ValueError, BOOL.format("t", False)),
        (predicted_perfect_product_pairs, (3.0, 5), TypeError, FLOAT),
        (predicted_perfect_product_pairs, (3, "5"), TypeError, STR),
    ],
)
def test_bad_input_keeps_its_first_message(call, args, kind, text):
    assert _outcome(call, args) == (kind, text)


def test_the_report_compares_every_factor(monkeypatch):
    """A product core that builds the wrong factor fails every comparison."""
    real = equivalence._product_factor
    monkeypatch.setattr(
        equivalence, "_product_factor", lambda s, t, k, l: real(s, t, (k + 1) % s, l)
    )
    report = build_equivalence_report(3, 5)
    assert report.failures == tuple(range(15)) and not report.all_edge_sets_equal
    assert not any(verify_factor_equality(p, 3, 5) for p in range(15))


@pytest.mark.parametrize("s, t", [(3, 5), (5, 3), (3, 7), (5, 9), (7, 9), (9, 7), (11, 3)])
def test_the_report_agrees_with_each_public_comparison(s, t):
    report = build_equivalence_report(s, t)
    assert report.all_edge_sets_equal and report.failures == ()
    assert all(verify_factor_equality(p, s, t) for p in range(-1, s * t + 1))
