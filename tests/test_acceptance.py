"""Acceptance gate: one test per criterion, one visible PASS/FAIL line each.

Every expected value here is an exact integer; there are no tolerances.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path

from nearfactor.equivalence import build_equivalence_report, crt_vertex_map
from nearfactor.factors import (
    Factorization,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
    validate_factor,
)
from nearfactor.numtheory import gcd, half_mod, totient
from nearfactor.oracle import (
    enumerate_factorizations,
    exact_c,
    oracle_agrees_with_classification,
)
from nearfactor.pairing import (
    classify_pair,
    count_perfect_pairs,
    is_perfect_by_gcd,
    nth_union_edge,
    union_walk,
)
from nearfactor.product import (
    build_product_factor,
    count_perfect_product_pairs,
    is_perfect_product_pair,
    product_bound,
    product_factorization,
)

K9_PERFECT = Path(__file__).parent / "data" / "k9_perfect.json"


@contextmanager
def criterion(capsys, num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _report(capsys, num, name, "FAIL", time.monotonic() - start)
        raise
    _report(capsys, num, name, "PASS", time.monotonic() - start)


def _report(capsys, num, name, verdict, elapsed):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s)")


def test_criterion_1_construction_soundness(capsys):
    with criterion(capsys, 1, "odd-order construction partitions K_n"):
        start = time.monotonic()
        for n in range(3, 202, 2):
            fz = build_modular_factorization(n)
            assert factorization_problems(fz) == []
            for k, f in enumerate(fz.factors):
                assert validate_factor(f)
                assert f.index == k
                assert (2 * f.isolated) % n == k
            assert sorted(f.isolated for f in fz.factors) == list(range(n))
        assert time.monotonic() - start < 5.0


def test_criterion_2_traversal_matches_gcd_criterion(capsys):
    with criterion(capsys, 2, "traversal verdict equals gcd test"):
        start = time.monotonic()
        for n in range(3, 100, 2):
            fz = build_modular_factorization(n)
            for k, l in combinations(range(n), 2):
                c = classify_pair(fz.factors[k], fz.factors[l])
                assert c.gcd_perfect is not None
                assert c.criterion_agreement is True
                assert c.perfect == is_perfect_by_gcd(k, l, n)
        assert time.monotonic() - start < 30.0


def test_criterion_3_closed_form_edges_match_walk(capsys):
    with criterion(capsys, 3, "closed-form edge formula equals walk"):
        start = time.monotonic()
        for n in range(3, 100, 2):
            fz = build_modular_factorization(n)
            for k, l in combinations(range(n), 2):
                if gcd((k - l) % n, n) != 1:
                    continue
                walk = union_walk(fz.factors[k], fz.factors[l])
                assert len(walk.edges) == n - 1
                for i in range(1, n):
                    assert nth_union_edge(k, l, n, i) == walk.edges[i - 1]
        assert time.monotonic() - start < 60.0


def test_criterion_4_count_formula(capsys):
    with criterion(capsys, 4, "perfect-pair count is n*phi(n)/2"):
        spot = {}
        for n in range(3, 100, 2):
            count = count_perfect_pairs(build_modular_factorization(n))
            assert count == n * totient(n) // 2
            spot[n] = count
        assert spot[5] == 10
        assert spot[9] == 27
        assert spot[15] == 60


def test_criterion_5_product_construction(capsys):
    with criterion(capsys, 5, "product factors are near-one-factors"):
        for s in range(3, 10, 2):
            for t in range(3, 10, 2):
                for k in range(s):
                    for l in range(t):
                        pf = build_product_factor(s, t, k, l)
                        assert pf.isolated == (
                            half_mod(k, s).value,
                            half_mod(l, t).value,
                        )
                        for a, b in pf.edges:
                            assert (a[0] + b[0]) % s == k
                            assert (a[1] + b[1]) % t == l
                        flat = pf.flattened()
                        assert validate_factor(flat)
                        assert flat.isolated == pf.isolated[0] * t + pf.isolated[1]


def test_criterion_6_product_criterion_and_doubling(capsys):
    with criterion(capsys, 6, "coprime product pairs double the bound"):
        for (s, t), expected in (((3, 5), 60), ((3, 7), 126), ((5, 7), 420)):
            flat = {
                (k, l): build_product_factor(s, t, k, l).flattened()
                for k in range(s)
                for l in range(t)
            }
            walked = 0
            for a, b in combinations(sorted(flat), 2):
                perfect = classify_pair(flat[a], flat[b]).perfect
                assert perfect == is_perfect_product_pair(s, t, a, b)
                walked += perfect
            assert walked == expected
            assert expected == product_bound(
                s, t, s * totient(s) // 2, t * totient(t) // 2
            )
            assert count_perfect_product_pairs(s, t) == expected


def test_criterion_7_index_equivalence_and_bound_identity(capsys):
    with criterion(capsys, 7, "index map and bound identity agree"):
        for s in range(3, 16, 2):
            for t in range(s + 2, 16, 2):
                if gcd(s, t) != 1:
                    continue
                report = build_equivalence_report(s, t)
                assert report.all_edge_sets_equal
                assert report.bounds_equal
                assert report.failures == ()
                pairs = {(k, l) for _, k, l in report.index_map}
                assert len(pairs) == s * t  # the index map is a bijection
                assert [p for p, _, _ in report.index_map] == list(range(s * t))
                seen = {crt_vertex_map(v, s, t) for v in range(s * t)}
                assert len(seen) == s * t  # so is the vertex map
        for s in range(3, 100, 2):
            for t in range(s + 2, 100, 2):
                if gcd(s, t) != 1:
                    continue
                n = s * t
                direct = n * totient(n) // 2
                assert direct == 2 * (s * totient(s) // 2) * (t * totient(t) // 2)


def test_criterion_8_exhaustive_oracle_ground_truth(capsys):
    with criterion(capsys, 8, "exhaustive oracle confirms exact counts"):
        start = time.monotonic()
        for n, expected in ((3, 3), (5, 10), (7, 21)):
            assert expected == comb(n, 2)
            assert expected == n * totient(n) // 2
            assert exact_c(n) == expected
        seen = {}
        for n in (3, 5, 7):
            seen[n] = 0
            for fz in enumerate_factorizations(n):
                seen[n] += 1
                assert oracle_agrees_with_classification(fz)
        assert seen == {3: 1, 5: 6, 7: 6240}
        assert time.monotonic() - start < 600.0


def test_criterion_9_even_order_construction(capsys):
    with criterion(capsys, 9, "even-order matchings classify cleanly"):
        for n in range(4, 201, 2):
            for k in range(n):
                f = build_modular_factor_even(n, k)
                assert validate_factor(f)
                assert f.isolated is None
                assert len(f.edges) == n // 2
        for n in (4, 6, 8):
            family = [build_modular_factor_even(n, k) for k in range(n)]
            for k, l in combinations(range(n), 2):
                if (k - l) % 2 == 0:
                    continue
                c = classify_pair(family[k], family[l])
                assert c.cycle is not None
                assert c.perfect == (len(c.cycle) == n)
        # no count is asserted for even orders; one known perfect pair:
        k4 = [build_modular_factor_even(4, k) for k in range(4)]
        assert classify_pair(k4[0], k4[1]).perfect


def test_criterion_10_doubling_on_non_modular_inputs(capsys):
    with criterion(capsys, 10, "coprime products of any factorizations double"):
        witness = Factorization.from_dict(json.loads(K9_PERFECT.read_text()))
        assert count_perfect_pairs(witness) == 36
        for t, c_b, expected in ((5, 10, 720), (7, 21, 1512)):
            b = build_modular_factorization(t)
            assert count_perfect_pairs(b) == c_b
            fz = product_factorization(witness, b)
            assert factorization_problems(fz) == []
            assert count_perfect_pairs(fz) == expected == 2 * 36 * c_b
        k3 = build_modular_factorization(3)
        seen = 0
        for a in enumerate_factorizations(5):
            fz = product_factorization(a, k3)
            assert factorization_problems(fz) == []
            assert count_perfect_pairs(fz) == 2 * count_perfect_pairs(a) * 3
            seen += 1
        assert seen == 6
