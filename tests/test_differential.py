"""Seeded random differential tests on valid factorizations.

A vertex relabelling of a near-one-factorization is another one with the
same perfect pairs, so it must stay valid and keep its count under both the
walk (`count_perfect_pairs`) and the degree census
(`independent_hamiltonicity_check`).  A corruption of one edge must be
reported by `factorization_problems`.  The inputs are the modular families
of every odd order up to 31, the perfect factorization of K_9 in
`tests/data/k9_perfect.json` and a sample of the n = 7 oracle stream; the
relabelling also covers four product families, each with a pinned count.  The
random choices come from stdlib `random` with fixed seeds, so every run
checks the same cases.

`validate_factor` decides validity on whole lists and diagnoses edge by
edge only on failure, and `factorization_problems` scans edges one by one
only when their set shows a duplicate.  On every valid
input (the ones above, product families and even-order round robins, each
also relabelled) and every corruption, both must give exactly what a frozen
copy of the all-per-edge diagnosis (`_reference_problems`) gives.

`Factor()` checks and canonicalises each edge in one pass, and `from_dict`
only reads fields.  On modular-family JSON with one seeded defect of each
kind, `Factorization.from_dict` must raise the exception, with the same
text, or return the fields, that a frozen copy of the earlier two-pass
parse (`_reference_factorization`) gives.
"""

import json
import operator
import random
import reprlib
from itertools import chain, combinations, islice
from pathlib import Path

import pytest

from nearfactor.factors import (
    Factor,
    Factorization,
    FactorVerdict,
    build_modular_factorization,
    factorization_problems,
    make_edge,
    validate_factor,
)
from nearfactor.oracle import enumerate_factorizations, independent_hamiltonicity_check
from nearfactor.pairing import count_perfect_pairs
from nearfactor.product import product_factorization

K9_PERFECT = Path(__file__).parent / "data" / "k9_perfect.json"
SEEDS = (1, 7919, 20261018)


def _inputs(rng):
    """(name, factorization, its perfect-pair count) for every input."""
    for n in range(3, 32, 2):
        fz = build_modular_factorization(n)
        yield f"modular {n}", fz, count_perfect_pairs(fz)
    k9 = Factorization.from_dict(json.loads(K9_PERFECT.read_text()))
    yield "k9_perfect", k9, 36
    stream = list(enumerate_factorizations(7))
    for i in sorted(rng.sample(range(len(stream)), 12)):
        fz = stream[i]
        yield f"n = 7 stream item {i}", fz, count_perfect_pairs(fz)


def _relabelled(fz, perm):
    return Factorization(
        fz.n,
        tuple(
            Factor(
                f.n,
                tuple((perm[u], perm[v]) for u, v in f.edges),
                None if f.isolated is None else perm[f.isolated],
                f.index,
            )
            for f in fz.factors
        ),
    )


def _census_count(fz):
    return sum(independent_hamiltonicity_check(f, g) for f, g in combinations(fz.factors, 2))


def _products():
    """(name, product factorization, its pinned perfect-pair count)."""
    for s, t, count in ((3, 5, 60), (7, 9, 1134), (5, 15, 0)):
        a, b = build_modular_factorization(s), build_modular_factorization(t)
        yield f"product ({s}, {t})", product_factorization(a, b), count
    k9 = Factorization.from_dict(json.loads(K9_PERFECT.read_text()))
    k5 = build_modular_factorization(5)
    yield "k9_perfect x modular 5", product_factorization(k9, k5), 720


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_keeps_validity_and_count(seed):
    rng = random.Random(seed)
    for name, fz, count in chain(_inputs(rng), _products()):
        assert factorization_problems(fz) == [], name
        perm = list(range(fz.n))
        rng.shuffle(perm)
        moved = _relabelled(fz, perm)
        assert factorization_problems(moved) == [], (name, perm)
        assert count_perfect_pairs(moved) == count == _census_count(moved), (name, perm)


def _replaced(fz, pos, edges):
    """fz with the edges of factor pos replaced."""
    f = fz.factors[pos]
    factors = list(fz.factors)
    factors[pos] = Factor(f.n, edges, f.isolated, f.index)
    return Factorization(fz.n, tuple(factors))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_one_edge_corruption_is_reported(seed):
    """A moved endpoint, a dropped edge and a copied edge are each named."""
    rng = random.Random(seed)
    for name, fz, _ in _inputs(rng):
        n = fz.n
        pos = rng.randrange(len(fz.factors))
        edges = list(fz.factors[pos].edges)
        i = rng.randrange(len(edges))
        u, v = rng.sample(edges[i], 2)
        case = (name, pos, (u, v))

        w = rng.choice([x for x in range(n) if x not in (u, v)])
        moved = make_edge(u, w)
        problems = factorization_problems(
            _replaced(fz, pos, edges[:i] + [moved] + edges[i + 1 :])
        )
        assert any(p.startswith(f"factor {pos} invalid: ") for p in problems), case
        assert any(p.startswith(f"edge {moved} appears in factors ") for p in problems), case

        problems = factorization_problems(_replaced(fz, pos, edges[:i] + edges[i + 1 :]))
        assert f"factor {pos} invalid: vertices {set(edges[i])} uncovered" in problems, case
        assert "1 edges of the complete graph are missing" in problems, case

        other = rng.choice([q for q in range(len(fz.factors)) if q != pos])
        copied = _replaced(fz, other, fz.factors[other].edges + (edges[i],))
        first, second = sorted((pos, other))
        problems = factorization_problems(copied)
        assert f"edge {edges[i]} appears in factors {first} and {second}" in problems, case


def _round_robin(n):
    """The one-factorization GK_n of even-order K_n.

    Factor r joins r with n - 1, and r - i with r + i modulo n - 1.
    """
    m = n - 1
    return Factorization(
        n,
        tuple(
            Factor(n, ((r, m), *(((r - i) % m, (r + i) % m) for i in range(1, n // 2))))
            for r in range(m)
        ),
    )


def _valid_inputs(rng):
    """(name, factorization) for every valid input and a relabelling of each."""
    named = [(name, fz) for name, fz, _ in chain(_inputs(rng), _products())]
    named += [(f"round robin {n}", _round_robin(n)) for n in (4, 6, 10, 16)]
    for name, fz in named:
        yield name, fz
        perm = list(range(fz.n))
        rng.shuffle(perm)
        yield f"{name} relabelled", _relabelled(fz, perm)


def _reference_reason(f):
    """Frozen per-edge diagnosis of one factor: its first defect, or None."""
    covered = set()
    for u, v in f.edges:
        for w in (u, v):
            if not 0 <= w < f.n:
                return f"vertex {w} out of range for order {f.n}"
        for w in (u, v):
            if w in covered:
                return f"vertex {w} covered twice"
            covered.add(w)
    if f.n % 2 == 1:
        if f.isolated is None:
            return "odd order requires an isolated vertex"
        if not 0 <= f.isolated < f.n:
            return f"isolated vertex {f.isolated} out of range for order {f.n}"
        if f.isolated in covered:
            return f"isolated vertex {f.isolated} is covered by an edge"
    elif f.isolated is not None:
        return "even order admits no isolated vertex"
    missing = f.n - len(covered) - f.n % 2
    if missing:
        uncovered = (w for w in range(f.n) if w not in covered and w != f.isolated)
        named = set(islice(uncovered, 10))
        rest = missing - len(named)
        more = f" and {rest} more" if rest else ""
        return f"vertices {named}{more} uncovered"
    return None


def _reference_problems(fz):
    """Frozen per-edge diagnosis of a factorization: every defect, in order."""
    problems = []
    n = fz.n
    expected = n if n % 2 == 1 else n - 1
    if len(fz.factors) != expected:
        problems.append(
            f"expected {expected} factors for order {n}, found {len(fz.factors)}"
        )
    orders_ok = True
    for pos, f in enumerate(fz.factors):
        if f.n != n:
            problems.append(f"factor {pos} has order {f.n}, expected {n}")
            orders_ok = False
            continue
        reason = _reference_reason(f)
        if reason is not None:
            problems.append(f"factor {pos} invalid: {reason}")
    if not orders_ok:
        return problems
    seen = {}
    duplicates = False
    for pos, f in enumerate(fz.factors):
        for e in f.edges:
            if e in seen:
                problems.append(f"edge {e} appears in factors {seen[e]} and {pos}")
                duplicates = True
            else:
                seen[e] = pos
    full = n * (n - 1) // 2
    if not duplicates and len(seen) < full:
        problems.append(f"{full - len(seen)} edges of the complete graph are missing")
    if n % 2 == 1 and len(fz.factors) == expected:
        iso_count = [0] * n
        for f in fz.factors:
            if f.isolated is not None and 0 <= f.isolated < n:
                iso_count[f.isolated] += 1
        for v, c in enumerate(iso_count):
            if c != 1:
                problems.append(f"vertex {v} is isolated in {c} factors, expected 1")
    return problems


def _agrees_with_reference(fz, case):
    """Both checks give the frozen per-edge results on fz; returns its problems."""
    for pos, f in enumerate(fz.factors):
        reason = _reference_reason(f)
        assert validate_factor(f) == FactorVerdict(reason is None, reason), (case, pos)
    problems = factorization_problems(fz)
    assert problems == _reference_problems(fz), case
    return problems


def _changed(fz, changes):
    """fz with the fields of factor q replaced by changes[q], a {field: value}."""
    fs = list(fz.factors)
    for q, fields in changes.items():
        f = fs[q]
        old = {"n": f.n, "edges": f.edges, "isolated": f.isolated, "index": f.index}
        fs[q] = Factor(**{**old, **fields})
    return Factorization(fz.n, tuple(fs))


def _corruptions(rng, fz):
    """(kind, corrupted copy) of each kind that applies to fz."""
    n, fs = fz.n, fz.factors
    pos = rng.randrange(len(fs))
    other = rng.choice([q for q in range(len(fs)) if q != pos])
    edges = list(fs[pos].edges)
    i = rng.randrange(len(edges))
    u, v = rng.sample(edges[i], 2)
    w = rng.choice([x for x in range(n) if x not in (u, v)])
    rest = edges[:i] + edges[i + 1 :]
    yield "moved endpoint", _changed(fz, {pos: {"edges": rest + [(u, w)]}})
    for x in (-1, n):
        yield "endpoint out of range", _changed(fz, {pos: {"edges": rest + [(u, x)]}})
    yield "dropped edge", _changed(fz, {pos: {"edges": rest}})
    yield "copied edge", _changed(fz, {other: {"edges": fs[other].edges + (edges[i],)}})
    if rest:
        # Still a (near-)one-factor, but both new edges belong to other factors.
        (a, b), (c, d) = edges[i], rest.pop(rng.randrange(len(rest)))
        yield "re-paired edges", _changed(fz, {pos: {"edges": rest + [(a, c), (b, d)]}})
    # u's edges in two factors trade places: the same edge set, two double covers.
    q = rng.choice([q for q in range(len(fs)) if q != pos and fs[q].partners[u] is not None])
    theirs = make_edge(u, fs[q].partners[u])
    mine = [e for e in fs[q].edges if e != theirs] + [edges[i]]
    swapped = {pos: {"edges": edges[:i] + [theirs] + edges[i + 1 :]}, q: {"edges": mine}}
    yield "swapped edges", _changed(fz, swapped)
    yield "wrong order", _changed(fz, {pos: {"n": n + 2}})
    yield "missing factor", Factorization(n, fs[:pos] + fs[pos + 1 :])
    yield "isolated out of range", _changed(fz, {pos: {"isolated": rng.choice([-1, n])}})
    if n % 2:
        mine, theirs = fs[pos].isolated, fs[other].isolated
        yield "repeated isolated", _changed(fz, {pos: {"isolated": theirs}})
        yield "no isolated vertex", _changed(fz, {pos: {"isolated": None}})
        swapped = {pos: {"isolated": theirs}, other: {"isolated": mine}}
        yield "swapped isolated", _changed(fz, swapped)
    else:
        yield "isolated at even order", _changed(fz, {pos: {"isolated": rng.randrange(n)}})


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_list_check_agrees_with_the_per_edge_path(seed):
    """Valid inputs and every corruption get the frozen per-edge results."""
    rng = random.Random(seed)
    kinds = set()
    for name, fz in _valid_inputs(rng):
        assert _agrees_with_reference(fz, name) == [], name
        for kind, bad in _corruptions(rng, fz):
            assert _agrees_with_reference(bad, (name, kind)), (name, kind)
            kinds.add(kind)
            for f in bad.factors:
                try:
                    f.partners
                except ValueError as e:
                    assert str(e) == validate_factor(f).reason, (name, kind)
    assert len(kinds) == 13


_K5 = build_modular_factorization(5).factors
_GK4 = _round_robin(4).factors


@pytest.mark.parametrize(
    "fz, problems",
    [
        (
            Factorization(5, _K5[1:]),
            [
                "expected 5 factors for order 5, found 4",
                "2 edges of the complete graph are missing",
            ],
        ),
        (
            Factorization(5, (_K5[0], Factor(5, _K5[1].edges, 0, 1), *_K5[2:])),
            [
                "factor 1 invalid: isolated vertex 0 is covered by an edge",
                "vertex 0 is isolated in 2 factors, expected 1",
                "vertex 3 is isolated in 0 factors, expected 1",
            ],
        ),
        (
            Factorization(5, (_K5[0], Factor(7, _K5[1].edges, 3, 1), *_K5[2:])),
            ["factor 1 has order 7, expected 5"],
        ),
        (
            Factorization(4, (_GK4[0], Factor(4, _GK4[1].edges, 0), _GK4[2])),
            ["factor 1 invalid: even order admits no isolated vertex"],
        ),
    ],
)
def test_invalid_input_keeps_its_messages(fz, problems):
    assert factorization_problems(fz) == problems


def _reference_not_bool(value, name):
    if value.__class__ is bool:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _reference_factor(data):
    """Frozen two-pass parse of a factor record: (n, edges, isolated, index).

    The first pass checks every edge's arity and booleans, then the three
    fields' booleans; the second converts n, canonicalises every edge and
    converts isolated and index.
    """
    edges = []
    for e in data["edges"]:
        if len(e) != 2:
            raise ValueError(f"edge {reprlib.repr(e)} must have exactly two endpoints")
        u, v = e[0], e[1]
        if u.__class__ is bool or v.__class__ is bool:
            raise ValueError(f"edge {reprlib.repr(e)} must have integer endpoints")
        edges.append((u, v))
    n = _reference_not_bool(data["n"], "n")
    isolated = _reference_not_bool(data.get("isolated"), "isolated")
    index = _reference_not_bool(data.get("index"), "index")
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"graph order must be >= 3, got {n}")
    canonical = []
    for u, v in edges:
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        canonical.append((u, v) if u < v else (v, u))
    if isolated is not None:
        isolated = operator.index(isolated)
    if index is not None:
        index = operator.index(index)
    return n, tuple(sorted(canonical)), isolated, index


def _reference_factorization(data):
    """Frozen two-pass parse of a factorization record: (n, factor fields)."""
    n = _reference_not_bool(data["n"], "n")
    factors = tuple(_reference_factor(f) for f in data["factors"])
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"graph order must be >= 3, got {n}")
    return n, factors


def _parsed(data):
    fz = Factorization.from_dict(data)
    return fz.n, tuple((f.n, f.edges, f.isolated, f.index) for f in fz.factors)


def _outcome(parse, text):
    """("ok", fields) or (exception type, its text) for parse(json.loads(text))."""
    try:
        return "ok", parse(json.loads(text))
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return type(exc), str(exc)


def _parse_corruptions(rng, text):
    """(kind, JSON text) of the record `text` with one defect, for every kind."""
    n = json.loads(text)["n"]

    def one(change):
        data = json.loads(text)
        f = rng.choice(data["factors"])
        change(data, f, f["edges"], rng.randrange(len(f["edges"])))
        return json.dumps(data)

    edge_defects = {
        "three endpoints": lambda u, v: [u, v, rng.randrange(n)],
        "one endpoint": lambda u, v: [rng.choice([u, v])],
        "boolean endpoint": lambda u, v: rng.choice([[True, v], [u, False]]),
        "string endpoint": lambda u, v: rng.choice([[str(u), v], [u, str(v)]]),
        "float endpoint": lambda u, v: rng.choice([[float(u), v], [u, float(v)]]),
        "null endpoint": lambda u, v: rng.choice([[None, v], [u, None]]),
        "loop edge": lambda u, v: rng.choice([[u, u], [v, v]]),
        "dict edge": lambda u, v: {"0": u, "1": v},
        "int edge": lambda u, v: u,
        "string edge": lambda u, v: rng.choice([f"{u}{v}", f"{u},{v}", "ab"]),
    }
    for kind, defect in edge_defects.items():

        def change(data, f, edges, i):
            edges[i] = defect(*edges[i])

        yield kind, one(change)
    for field in ("n", "isolated", "index", "top-level n"):
        out_of_range = [-1, 0, 2] if field.endswith("n") else [-1, n, n + 2]
        values = {
            "boolean": rng.choice([True, False]),
            "string": str(rng.randrange(n)),
            "float": float(rng.randrange(n)),
            "out-of-range int": rng.choice(out_of_range),
        }
        for name, value in values.items():

            def change(data, f, edges, i):
                (data if field == "top-level n" else f)[field.split()[-1]] = value

            yield f"{field} {name}", one(change)

    def missing(data, f, edges, i):
        key = rng.choice(["n", "edges", "isolated", "index", "top-level n", "factors"])
        if key in ("top-level n", "factors"):
            del data[key.split()[-1]]
        else:
            del f[key]

    yield "missing key", one(missing)

    def factor_list(data, f, edges, i):
        data["factors"][data["factors"].index(f)] = rng.choice([edges, list(f.values())])

    yield "factor a list", one(factor_list)

    def edges_dict(data, f, edges, i):
        f["edges"] = rng.choice([{str(j): e for j, e in enumerate(edges)}, {"uv": edges}])

    yield "edges a dict", one(edges_dict)

    def edges_int(data, f, edges, i):
        f["edges"] = len(edges)

    yield "edges an int", one(edges_int)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_parse_agrees_with_the_two_pass_reference(seed):
    """One defect of each kind: the same exception and text, or equal fields."""
    rng = random.Random(seed)
    kinds, outcomes = set(), set()
    for n in (5, 7, 11):
        text = json.dumps(build_modular_factorization(n).to_dict())
        assert _outcome(_parsed, text) == _outcome(_reference_factorization, text)
        for _ in range(3):
            for kind, bad in _parse_corruptions(rng, text):
                got = _outcome(_parsed, bad)
                assert got == _outcome(_reference_factorization, bad), (kind, bad)
                kinds.add(kind)
                outcomes.add(got[0])
    assert len(kinds) == 30
    assert outcomes == {"ok", ValueError, TypeError, KeyError}
