import copy
import gc
import hashlib
import io
import json
import pickle
import random
import signal
import sys
import threading
import tracemalloc
from functools import cached_property
from itertools import chain, combinations, islice, zip_longest

import pytest

import nearfactor.factors
import nearfactor.oracle as oracle
import nearfactor.pairing as pairing
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factor,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
)
from nearfactor.oracle import (
    CostGuardError,
    enumerate_factorizations,
    exact_c,
    independent_hamiltonicity_check,
    oracle_agrees_with_classification,
    oracle_summary,
    write_factorizations_ndjson,
)
from nearfactor.pairing import classify_pair, count_perfect_pairs


def _canonical(fz):
    return tuple(sorted(f.edges for f in fz.factors))


def test_enumeration_k3_is_unique():
    found = list(enumerate_factorizations(3))
    assert len(found) == 1
    fz = found[0]
    assert _canonical(fz) == _canonical(build_modular_factorization(3))
    assert [f.isolated for f in fz.factors] == [2, 1, 0]  # sorted by edge lists


def test_enumeration_k5():
    found = list(enumerate_factorizations(5))
    assert len(found) == 6
    # no duplicates, every one a genuine partition
    assert len({_canonical(fz) for fz in found}) == 6
    for fz in found:
        assert factorization_problems(fz) == []
    # the modular family is among them
    target = _canonical(build_modular_factorization(5))
    assert sum(1 for fz in found if _canonical(fz) == target) == 1


def _count_k6_edge_colorings():
    # proper edge colorings of K_6 with 5 colors; each one-factorization of
    # K_6 is counted once per labeling of its 5 factors (5! = 120 ways)
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    used = [0] * 6
    full = (1 << 5) - 1

    def rec(pos: int) -> int:
        if pos == len(edges):
            return 1
        u, v = edges[pos]
        total = 0
        avail = full & ~(used[u] | used[v])
        while avail:
            bit = avail & -avail
            avail ^= bit
            used[u] |= bit
            used[v] |= bit
            total += rec(pos + 1)
            used[u] ^= bit
            used[v] ^= bit
        return total

    return rec(0)


def test_enumeration_k5_cross_checked_against_k6_matchings():
    # joining a new vertex to each isolated vertex turns a factorization of
    # K_5 into a one-factorization of K_6 and vice versa, so the counts match
    assert _count_k6_edge_colorings() == 6 * 120
    assert len(list(enumerate_factorizations(5))) == 6


def _reference_factorizations(n):
    """Every factorization of K_n by plain recursion, in the oracle's order.

    Edges are given factors in lexicographic order, lowest free factor
    first, and factor c never covers vertex c.  Each factorization is the
    list of (edges, isolated vertex) of its factors, sorted by edge list.
    """
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    used = [1 << v for v in range(n)]
    full = (1 << n) - 1
    factor = [0] * len(edges)

    def rec(pos):
        if pos == len(edges):
            held = [[] for _ in range(n)]
            for e, c in zip(edges, factor):
                held[c].append(e)
            yield sorted((tuple(held[c]), c) for c in range(n))
            return
        u, v = edges[pos]
        avail = full & ~(used[u] | used[v])
        while avail:
            bit = avail & -avail
            avail ^= bit
            used[u] |= bit
            used[v] |= bit
            factor[pos] = bit.bit_length() - 1
            yield from rec(pos + 1)
            used[u] ^= bit
            used[v] ^= bit

    return rec(0)


def _give_up(signum, frame):
    raise TimeoutError("the stream did not end within a minute")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("n, length", [(3, None), (5, None), (7, None), (9, 20000)])
def test_stream_matches_a_plain_backtracker(n, length):
    """The memoised search gives the reference's factorizations, in order.

    Whole streams at n = 3, 5 and 7 (1, 6 and 6240 factorizations) and the
    first 20,000 at n = 9.
    """
    stream = islice(enumerate_factorizations(n), length)
    reference = islice(_reference_factorizations(n), length)
    seen = 0
    # A search that replays a wrong memo entry builds malformed factors,
    # whose walks need not end: give up after a minute with a traceback.
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(60)
    try:
        for fz, factors in zip_longest(stream, reference):
            assert [(f.edges, f.isolated) for f in fz.factors] == factors
            seen += 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert seen == {3: 1, 5: 6, 7: 6240, 9: 20000}[n]


def _add_edge_at_a_covered_vertex(edges, marks, held):
    """Give the factor holding edges[0] edges[1] too: they share a vertex."""
    owner = next(c for c, mask in enumerate(held) if mask & marks[0])
    held[owner] |= marks[1]


def _swap_disjoint_edges(edges, marks, held):
    """Swap two disjoint edges between two factors: each covers a vertex twice."""
    owner = [next(c for c, mask in enumerate(held) if mask & m) for m in marks]
    for i, j in combinations(range(len(edges)), 2):
        c, d = owner[i], owner[j]
        if c != d and not set(edges[i]) & set(edges[j]):
            held[c] ^= marks[i] | marks[j]
            held[d] ^= marks[i] | marks[j]
            return
    raise AssertionError("no two disjoint edges to swap")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "corrupt", [_add_edge_at_a_covered_vertex, _swap_disjoint_edges]
)
def test_a_malformed_factor_stops_the_stream(monkeypatch, corrupt):
    """A search bug that gives a factor a second edge at a vertex raises.

    The first assignment of the streamed prefix is corrupted, so the first
    factorization holds a factor that covers a vertex twice; walking it
    need not end, so the stream must refuse to build it.
    """
    fill = oracle._fill
    done = []

    def corrupted(edges, marks, used, held, full):
        for _ in fill(edges, marks, used, held, full):
            if not done:
                done.append(corrupt(edges, marks, held))
            yield

    monkeypatch.setattr(oracle, "_fill", corrupted)
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="malformed factor"):
            next(enumerate_factorizations(7))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert done


def _kernel_reference(kernel, key, n):
    """What the prefix search _fill gives on the kernel's edges, in its format.

    The tail is the last four vertices R.., row R - 1 the edges from R - 1 to
    them; field i of `key` (n bits at i * n) goes to vertex R + i.  A row way
    is each factor's added edge mask, then the bits added to `key`; a tail
    end is each factor's edge mask.
    """
    full = (1 << n) - 1
    tail = n - 4
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    at_row = edge_list.index((tail - 1, tail))
    part = slice(at_row, at_row + 4) if kernel == "_row_ways" else slice(at_row + 4, None)
    edges = edge_list[part]
    marks = [1 << pos for pos in reversed(range(len(edge_list)))][part]
    used = [0] * tail + [key >> (i * n) & full for i in range(4)]
    held = [0] * n
    found = []
    for _ in oracle._fill(edges, marks, used, held, full):
        added = sum(used[tail + i] << (i * n) for i in range(4)) ^ key
        found.append((*held, added) if kernel == "_row_ways" else tuple(held))
    return found, marks


def _random_key(rng, n):
    """Four n-bit fields, each missing 0 to 5 factors: small searches, many dead."""
    fields = (rng.sample(range(n), n - rng.randint(0, min(5, n))) for _ in range(4))
    return sum(sum(1 << c for c in field) << (i * n) for i, field in enumerate(fields))


@pytest.mark.parametrize("kernel", ["_row_ways", "_tail_ends"])
def test_kernels_match_the_prefix_search(monkeypatch, kernel):
    """Each memo kernel gives exactly what _fill gives on its edges, in order.

    Every key one n = 7 run looks up, then 2000 seeded random keys at each of
    n = 5, 7 and 9, among them keys with no way and keys with several.
    """
    original = getattr(oracle, kernel)
    met = []

    def recorded(key, marks, n, full):
        met.append(key)
        return original(key, marks, n, full)

    monkeypatch.setattr(oracle, kernel, recorded)
    assert sum(1 for _ in enumerate_factorizations(7)) == 6240
    assert len(met) == len(set(met)) == {"_row_ways": 1809, "_tail_ends": 1603}[kernel]
    rng = random.Random(27)
    cases = [(7, key) for key in met]
    cases += [(n, _random_key(rng, n)) for n in (5, 7, 9) for _ in range(2000)]
    sizes = set()
    for n, key in cases:
        expected, marks = _kernel_reference(kernel, key, n)
        assert list(original(key, marks, n, (1 << n) - 1)) == expected
        sizes.add(min(len(expected), 2))
    assert sizes == {0, 1, 2}


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("kernel", ["_row_ways", "_tail_ends"])
def test_a_malformed_kernel_output_stops_the_stream(monkeypatch, kernel):
    """A kernel that gives a factor two edges at one vertex stops the stream.

    Every output of the patched kernel also gives the factor holding the
    kernel's first edge its second, which shares a vertex with the first.
    """
    original = getattr(oracle, kernel)
    done = []

    def corrupted(key, marks, n, full):
        out = []
        for entry in original(key, marks, n, full):
            held = list(entry)
            owner = next(c for c in range(n) if held[c] & marks[0])
            held[owner] |= marks[1]
            out.append(tuple(held))
            done.append(owner)
        return tuple(out)

    monkeypatch.setattr(oracle, kernel, corrupted)
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="malformed factor"):
            next(enumerate_factorizations(7))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert done


def test_two_runs_in_lockstep_each_give_the_stream_of_one():
    """Runs keep their memos apart: two n = 7 runs advanced together each
    give what one run alone gives, factorizations and counts alike."""
    alone = list(enumerate_factorizations(7))
    expected = [count_perfect_pairs(fz) for fz in alone]
    zipped = list(zip_longest(enumerate_factorizations(7), enumerate_factorizations(7)))
    assert len(zipped) == len(alone) == 6240
    for (a, b), fz in zip(zipped, alone):
        assert a == b == fz
    assert [count_perfect_pairs(a) for a, _ in zipped] == expected
    assert [count_perfect_pairs(b) for _, b in zipped] == expected


def test_each_run_starts_its_own_memos():
    """The tail and row memos are locals of one run, never shared.

    A run half way through the n = 7 stream holds more memo entries than
    a run that has yielded one factorization, and the two hold different
    dicts.
    """
    first = enumerate_factorizations(7)
    second = enumerate_factorizations(7)
    assert sum(1 for _ in islice(first, 3120)) == 3120
    next(second)
    memos = first.gi_frame.f_locals, second.gi_frame.f_locals
    for name in ("rows", "tails", "shared"):
        old, new = (frame[name] for frame in memos)
        assert old is not new
        assert 0 < len(new) < len(old)


def test_oracle_memory_is_bounded_and_freed_with_its_run():
    """An n = 7 run's memos stay small and go when the run ends.

    Every memo is a local of one run: once the run is exhausted and
    dropped, the traced memory is back where it started.  The peak bound
    is about twice what a run measures (0.74 MB on CPython 3.11).
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in enumerate_factorizations(7)) == 6240
        gc.collect()  # also empties the interpreter's free lists
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1_500_000
    assert after - before < 50_000


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_factorizations(4))
    with pytest.raises(ValueError):
        list(enumerate_factorizations(11))
    with pytest.raises(ValueError):
        list(enumerate_factorizations(1))


def test_exact_c_small_orders():
    assert exact_c(3) == 3
    assert exact_c(5) == 10


def test_exact_c_guards_the_big_search():
    with pytest.raises(CostGuardError):
        exact_c(9)
    with pytest.raises(CostGuardError):
        oracle_summary(9)
    with pytest.raises(ValueError):
        exact_c(6)


def test_oracle_summary_k5():
    summary = oracle_summary(5)
    assert summary.exact_c == 10
    assert summary.lower_bound == 10
    assert summary.factorizations_seen == 6
    assert summary.to_dict() == {
        "n": 5,
        "exact_c": 10,
        "lower_bound": 10,
        "factorizations_seen": 6,
    }


def test_independent_check_examples():
    assert independent_hamiltonicity_check(
        build_modular_factor(5, 0), build_modular_factor(5, 1)
    )
    assert not independent_hamiltonicity_check(
        build_modular_factor(9, 0), build_modular_factor(9, 3)
    )
    same = build_modular_factor(5, 0)
    assert not independent_hamiltonicity_check(same, same)


@pytest.mark.parametrize(
    "f, g, perfect",
    [
        # Even order: one 6-cycle, or two 4-cycles.
        (build_modular_factor_even(6, 1), build_modular_factor_even(6, 3), True),
        (
            Factor(8, ((0, 1), (2, 3), (4, 5), (6, 7))),
            Factor(8, ((0, 3), (1, 2), (4, 7), (5, 6))),
            False,
        ),
        # Even order, six edges, but vertex 1 has degree 3 and vertex 5 degree 1.
        (
            Factor(6, ((0, 1), (2, 3), (4, 5))),
            Factor(6, ((0, 3), (1, 2), (1, 4))),
            False,
        ),
        # Too few edges for a Hamiltonian path.
        (build_modular_factor(5, 0), Factor(5, ((1, 2),), 0), False),
        # An edge leaves the vertex range.
        (Factor(5, ((0, 1), (2, 7)), 4), Factor(5, ((1, 2), (3, 4)), 0), False),
        # Odd order, four edges forming a 4-cycle: no vertex of degree 1.
        (Factor(5, ((0, 1), (2, 3)), 4), Factor(5, ((1, 2), (0, 3)), 4), False),
    ],
)
def test_independent_check_decides_by_census_and_scan(f, g, perfect):
    assert independent_hamiltonicity_check(f, g) is perfect
    assert independent_hamiltonicity_check(g, f) is perfect


def test_independent_check_refuses_mismatched_orders():
    f, g = build_modular_factor(5, 0), build_modular_factor(7, 0)
    with pytest.raises(ValueError, match="mismatched graph orders: 5 vs 7"):
        independent_hamiltonicity_check(f, g)


def test_independent_check_agrees_with_walk_on_k5_enumeration():
    for fz in enumerate_factorizations(5):
        assert oracle_agrees_with_classification(fz)


def test_ndjson_dump_roundtrip():
    buffer = io.StringIO()
    count = write_factorizations_ndjson(5, buffer)
    assert count == 6
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 6
    parsed = [Factorization.from_dict(json.loads(line)) for line in lines]
    assert {_canonical(fz) for fz in parsed} == {
        _canonical(fz) for fz in enumerate_factorizations(5)
    }


# sha256 of write_factorizations_ndjson output: n -> (lines, digest).
NDJSON_SHA256 = {
    5: (6, "850685125e7525ece24b9fefad07cac3a9ecab9d082de681994d7a2d07ea180d"),
    7: (6240, "020eb4b62c868806657185d393d9c9fa4836e9f66e7f21b7f1e5edf405e98335"),
}


@pytest.mark.parametrize("n", sorted(NDJSON_SHA256))
def test_ndjson_dump_is_byte_stable(n):
    buffer = io.StringIO()
    assert write_factorizations_ndjson(n, buffer) == NDJSON_SHA256[n][0]
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == NDJSON_SHA256[n][1]


def test_enumerated_factors_match_their_public_rebuild():
    """Pre-built oracle factors equal what the public constructor builds.

    Covers the whole n = 7 stream and the first 3000 factorizations at n = 9:
    equality through to_dict/from_dict, factor order, the handed-over
    partner array (kept, not rebuilt on access) and the hash.
    """
    stream = chain(
        enumerate_factorizations(7), islice(enumerate_factorizations(9), 3000)
    )
    for fz in stream:
        rebuilt = Factorization.from_dict(fz.to_dict())
        assert fz == rebuilt
        assert list(fz.factors) == sorted(fz.factors, key=lambda f: f.edges)
        for f, r in zip(fz.factors, rebuilt.factors):
            assert f.partners == r.partners
            assert f.partners is f.partners
            assert hash(f) == hash(r)


def test_enumeration_builds_each_distinct_factor_once_per_run(monkeypatch):
    """K_7 has 7 * 5!! = 105 near-one-factors; a run builds each one once."""
    built = []
    prebuilt = Factor._prebuilt.__func__

    def counted(cls, *args):
        f = prebuilt(cls, *args)
        built.append(f)
        return f

    monkeypatch.setattr(Factor, "_prebuilt", classmethod(counted))
    by_value = {}
    for fz in enumerate_factorizations(7):
        for f in fz.factors:
            assert by_value.setdefault(f, f) is f
    assert len(built) == 105
    assert len(by_value) == 105
    assert {id(f) for f in by_value} == {id(f) for f in built}


def test_enumeration_runs_share_no_factor():
    first = {id(f): f for fz in enumerate_factorizations(5) for f in fz.factors}
    second = {id(f): f for fz in enumerate_factorizations(5) for f in fz.factors}
    assert set(first) & set(second) == set()
    assert set(first.values()) == set(second.values())


def test_oracle_builds_factors_without_canonicalising_or_rebuilding(monkeypatch):
    """The oracle hands over finished factors: no make_edge, no partner build.

    A partner array seeded on the instance shadows the class attribute, so
    replacing `Factor.partners` with one that raises only fires for a factor
    whose array was not handed over.
    """

    def refuse(*args):
        raise AssertionError("factor rebuilt inside the oracle")

    rebuild = cached_property(refuse)
    rebuild.__set_name__(Factor, "partners")
    monkeypatch.setattr(nearfactor.factors, "make_edge", refuse)
    monkeypatch.setattr(Factor, "partners", rebuild)
    summary = oracle_summary(7)
    assert summary.exact_c == 21
    assert summary.factorizations_seen == 6240


def _per_pair(fz):
    return sum(classify_pair(f, g).perfect for f, g in combinations(fz.factors, 2))


def _with_run_lists(n, stop=None):
    """The n stream, up to stop, each with its run's `perfect` and `made` lists.

    Both are read from the generator's frame while it waits at the yield.
    """
    stream = enumerate_factorizations(n)
    for fz in islice(stream, stop):
        names = stream.gi_frame.f_locals
        yield fz, names["perfect"], names["made"]


def _disjoint_pairs(factors):
    """The unordered pairs of factors that can share a factorization.

    Such factors have no edge in common and isolate different vertices.
    """
    return {
        frozenset((f, g))
        for f, g in combinations(factors, 2)
        if set(f.edges).isdisjoint(g.edges) and f.isolated != g.isolated
    }


def test_oracle_walks_each_distinct_pair_once_per_run(monkeypatch):
    """A run walks each pair that can share a factorization once, as it
    builds the second factor of the pair.

    The pairs come from the factors' edge sets and isolated vertices: 60
    at n = 5 and 3150 at n = 7, against 131,040 pairs counted over the
    n = 7 stream.  Counting walks nothing, and each count equals the
    per-pair sum.  The n = 5 stream counted first is another run, whose
    walks the n = 7 run must not repeat or skip.
    """
    walks = []
    reached = oracle._reached

    def counted(pf, tables, start, n):
        tables = list(tables)
        for pg, verdict in zip(tables, reached(pf, tables, start, n)):
            walks.append((tuple(pf), tuple(pg)))
            yield verdict

    def refuse(*args):
        raise AssertionError("pair walked while counting")

    monkeypatch.setattr(oracle, "_reached", counted)
    monkeypatch.setattr(pairing, "_reached", refuse)
    for n, disjoint in ((5, 60), (7, 3150)):
        expected = []
        counts = []
        factors = set()
        for fz in enumerate_factorizations(n):
            expected.append(_per_pair(fz))
            counts.append(count_perfect_pairs(fz))
            factors.update(fz.factors)
        assert counts == expected
        # A hop table is the factor's partner array, so it names the factor.
        factor_of = {tuple(pairing._hops(f)): f for f in factors}
        assert len(factor_of) == len(factors)
        pairs = _disjoint_pairs(factors)
        walked = [frozenset(map(factor_of.__getitem__, pair)) for pair in walks]
        assert len(walked) == len(set(walked)) == len(pairs) == disjoint
        assert set(walked) == pairs
        walks.clear()
    assert max(counts) == 21 and len(counts) == 6240


def test_oracle_counts_from_its_run_table_alone(monkeypatch):
    """Streamed factorizations never re-check that their factors walk."""

    def refuse(fz):
        raise AssertionError("oracle factors re-checked")

    monkeypatch.setattr(pairing, "_walkable", refuse)
    summary = oracle_summary(7)
    assert (summary.exact_c, summary.factorizations_seen) == (21, 6240)
    prefix = islice(enumerate_factorizations(9), 500)
    counts = [count_perfect_pairs(fz) for fz in prefix]
    assert [max(counts), sum(counts)] == [26, 10738]


def test_streamed_factorizations_carry_only_their_count():
    """n, the factors and an int perfect-pair count: nothing of the run.

    Over the n = 7 stream and every 7th of the first 3000 at n = 9, the
    count equals the classify_pair sum.
    """
    stream = chain(
        enumerate_factorizations(7), islice(enumerate_factorizations(9), 0, 3000, 7)
    )
    for fz in stream:
        assert vars(fz).keys() == {"n", "factors", "_perfect_pairs"}
        count = vars(fz)["_perfect_pairs"]
        assert type(count) is int
        assert count == _per_pair(fz)


def test_oracle_counts_match_per_pair_sum_on_n9_prefix():
    for fz in islice(enumerate_factorizations(9), 3000):
        assert count_perfect_pairs(fz) == _per_pair(fz)


def test_oracle_verdict_table_holds_each_pair_verdict():
    """After a whole n = 7 run, every pair's verdict is held by its slots.

    Slots are 0..104, one per distinct factor, and the run holds one
    perfect mask per slot.  The masks are symmetric, no slot is paired
    with itself, every bit of a pair that shares a factorization is that
    pair's classify_pair verdict, and no other pair has its bit set.
    """
    factor_of = {}
    pairs = set()
    slot_of = {}
    for fz, perfect, made in _with_run_lists(7):
        slot_of.update((id(f), a) for a, f in enumerate(made[len(slot_of) :], len(slot_of)))
        slots = [slot_of[id(f)] for f in fz.factors]
        assert len(set(slots)) == len(fz.factors)
        assert count_perfect_pairs(fz) == sum(
            perfect[a] >> b & 1 for a, b in combinations(slots, 2)
        )
        for a, f in zip(slots, fz.factors):
            assert factor_of.setdefault(a, f) is f
        pairs.update(combinations(sorted(slots), 2))
    assert sorted(factor_of) == list(range(105))
    assert len(set(map(id, factor_of.values()))) == 105
    assert len(perfect) == 105
    assert len(pairs) == 3150
    for a, mask in enumerate(perfect):
        assert not mask >> a & 1
        for b in range(105):
            assert mask >> b & 1 == perfect[b] >> a & 1
    for a, b in combinations(range(105), 2):
        verdict = (a, b) in pairs and classify_pair(factor_of[a], factor_of[b]).perfect
        assert perfect[a] >> b & 1 == verdict


def test_threads_counting_one_run_agree_with_the_per_pair_sum():
    """Four threads count the same n = 7 run at once, switching often.

    Each factorization carries its count before it is yielded, so counting
    only reads it: the threads must agree with each other and with the
    per-pair sum.
    """
    stream = list(enumerate_factorizations(7))
    expected = [_per_pair(fz) for fz in stream]
    counts = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(out):
        start.wait()
        out.extend(count_perfect_pairs(fz) for fz in stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in counts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == [expected] * 4


def test_oracle_runs_share_no_verdict_table():
    # The lists hold each run's mask list itself (compared by identity), so
    # the first run's list cannot be freed and its address reused by the
    # second.
    first = [perfect for _, perfect, _ in _with_run_lists(7)]
    second = [perfect for _, perfect, _ in _with_run_lists(7)]
    assert all(masks is first[0] for masks in first)
    assert all(masks is second[0] for masks in second)
    assert first[0] is not second[0]
    assert first[0] == second[0] and len(first[0]) == 105
    # Every factor built so far is one of the prefix's: the slots in use are
    # 0..len(made) - 1.
    prefix = list(_with_run_lists(9, 3000))
    made = prefix[-1][2]
    assert {id(f) for fz, _, _ in prefix for f in fz.factors} == set(map(id, made))
    assert len(made) <= 9 * 7 * 5 * 3


def test_copies_of_oracle_factorizations_count_the_same():
    """Rebuilt, copied and pickled factorizations count like the original.

    Copies are taken before the original is counted and after; the count
    is attached before a factorization is yielded, so both must agree.
    The count takes no part in ==, hash, repr or to_dict.
    """
    stream = chain(
        islice(enumerate_factorizations(7), 0, None, 97),
        islice(enumerate_factorizations(9), 0, 3000, 151),
    )
    for fz in stream:
        rebuilt = Factorization(fz.n, fz.factors)
        assert "_perfect_pairs" not in vars(rebuilt)
        assert fz == rebuilt and hash(fz) == hash(rebuilt)
        assert repr(fz) == repr(rebuilt)
        assert fz.to_dict() == rebuilt.to_dict()
        variants = [
            rebuilt,
            Factorization.from_dict(fz.to_dict()),
            copy.copy(fz),
            copy.deepcopy(fz),
            pickle.loads(pickle.dumps(fz)),
        ]
        cold = [count_perfect_pairs(v) for v in variants]
        expected = count_perfect_pairs(fz)
        warm = [count_perfect_pairs(copy.deepcopy(fz)), count_perfect_pairs(fz)]
        assert cold == [expected] * 5
        assert warm == [expected] * 2
        assert expected == _per_pair(fz)


def test_copies_of_oracle_factorizations_leave_the_run_behind():
    """copy, deepcopy and pickle keep the fields and drop the attached count.

    A copy is then counted pair by pair, as a rebuilt factorization is, and
    the pickle of a streamed factorization carries no count: it is no
    larger than the pickle of the same factors rebuilt.
    """
    for fz in islice(enumerate_factorizations(9), 0, 3000, 151):
        rebuilt = Factorization(fz.n, fz.factors)
        for clone in (copy.copy(fz), copy.deepcopy(fz), pickle.loads(pickle.dumps(fz))):
            assert clone == fz
            assert "_perfect_pairs" not in vars(clone)
        assert len(pickle.dumps(fz)) <= len(pickle.dumps(rebuilt))


def test_perfect_counts_vary_across_k5_factorizations():
    counts = sorted(
        sum(
            1
            for f, g in combinations(fz.factors, 2)
            if independent_hamiltonicity_check(f, g)
        )
        for fz in enumerate_factorizations(5)
    )
    assert max(counts) == 10
    assert min(counts) >= 0
    assert len(counts) == 6


def test_k9_stream_prefix_and_lower_bound_witness():
    """Exercise the n = 9 machinery without the full enumeration (hours; see README).

    A prefix of the stream must be valid and internally consistent, and the
    sum-family factorization of K_9 must witness the 27-pair lower bound
    under both deciders, which proves exact_c(9) >= 27.
    """
    prefix = list(islice(enumerate_factorizations(9), 2000))
    assert len(prefix) == 2000
    assert len({_canonical(fz) for fz in prefix}) == 2000
    for fz in prefix[:50]:
        assert factorization_problems(fz) == []
        assert oracle_agrees_with_classification(fz)
    witness = build_modular_factorization(9)
    assert count_perfect_pairs(witness) == 27
    assert (
        sum(
            1
            for f, g in combinations(witness.factors, 2)
            if independent_hamiltonicity_check(f, g)
        )
        == 27
    )


# sha256 of the NDJSON encoding of the first 2000 n = 9 factorizations.
K9_PREFIX_SHA256 = "a3fad90ab264353da0803a63398182c8ba6c438dc1869ed41af6ab5f36e0385a"


def test_k9_stream_order_is_pinned():
    """The n = 9 stream order, byte for byte over its first 2000 items.

    [26, 10738] (best and total perfect pairs over the first 500) is the
    value the benchmark checks the n = 9 prefix against.
    """
    digest = hashlib.sha256()
    counts = []
    for fz in islice(enumerate_factorizations(9), 2000):
        line = json.dumps(fz.to_dict(), sort_keys=True, separators=(",", ":"))
        digest.update(line.encode() + b"\n")
        if len(counts) < 500:
            counts.append(count_perfect_pairs(fz))
    assert [max(counts), sum(counts)] == [26, 10738]
    assert digest.hexdigest() == K9_PREFIX_SHA256


@pytest.mark.expensive
def test_exact_c_9_full_enumeration_reaches_the_maximum():
    """Complete n = 9 sweep: enumerates all 1,225,566,720 factorizations.

    The perfect factorization in ``tests/data/k9_perfect.json`` has all
    C(9, 2) = 36 pairs perfect, and no factorization can have more, so the
    sweep must find exactly 36 (the modular family gives only 27).  This is
    a pure-Python run of hours, sized in README's acceptance-gate paragraph.
    It is excluded from the default suite (see addopts) and exists so the
    full computation has a launchable entry point: ``pytest -m expensive``.
    """
    assert exact_c(9, expensive=True) == 36


def test_a_misspelt_marker_is_refused():
    """A misspelt `expensive` cannot slip the sweep above into the default suite."""
    with pytest.raises(pytest.fail.Exception, match="'expensiv' not found in `markers`"):
        pytest.mark.expensiv


def test_agreement_is_false_when_the_deciders_differ(monkeypatch):
    monkeypatch.setattr(oracle, "independent_hamiltonicity_check", lambda f, g: False)
    assert not oracle_agrees_with_classification(build_modular_factorization(5))
