import copy
import hashlib
import io
import json
import pickle
import sys
import threading
from functools import cached_property
from itertools import chain, combinations, islice

import pytest

import nearfactor.factors
import nearfactor.pairing as pairing
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factor,
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


def _run(fz):
    """The (slots, verdict table) attachment the oracle gives a factorization."""
    return vars(fz)["_run"]


def test_oracle_walks_each_distinct_pair_once_per_run(monkeypatch):
    """A whole n = 7 stream walks its 3150 distinct pairs once, not 131,040.

    Each count still equals the per-pair sum.  The n = 5 stream counted
    first is another run, whose verdicts the n = 7 run must not see.
    """
    walks = []
    reached = pairing._reached

    def counted(*args):
        walks.append(args)
        return reached(*args)

    for n, distinct in ((5, 60), (7, 3150)):
        expected = []
        counts = []
        for fz in enumerate_factorizations(n):
            expected.append(_per_pair(fz))
            with monkeypatch.context() as m:
                m.setattr(pairing, "_reached", counted)
                counts.append(count_perfect_pairs(fz))
        assert counts == expected
        assert len(walks) == distinct
        walks.clear()
    assert max(counts) == 21 and len(counts) == 6240


def test_oracle_counts_from_its_run_table_alone(monkeypatch):
    """Streamed factorizations never re-check their factors' walk inputs."""

    def refuse(fz):
        raise AssertionError("oracle factors re-checked")

    monkeypatch.setattr(pairing, "_walk_inputs", refuse)
    summary = oracle_summary(7)
    assert (summary.exact_c, summary.factorizations_seen) == (21, 6240)
    prefix = islice(enumerate_factorizations(9), 500)
    counts = [count_perfect_pairs(fz) for fz in prefix]
    assert [max(counts), sum(counts)] == [26, 10738]


def test_oracle_counts_match_per_pair_sum_on_n9_prefix():
    for fz in islice(enumerate_factorizations(9), 3000):
        assert count_perfect_pairs(fz) == _per_pair(fz)


def test_oracle_verdict_table_holds_each_pair_verdict():
    """After a whole n = 7 run, every walked pair is recorded by its slots.

    Slots are 0..104, one per distinct factor.  Bit b of a slot a's walked
    mask marks a pair walked from a to a later slot b of some
    factorization, never a slot with itself, and its bit in the perfect
    mask is that pair's verdict.
    """
    factor_of = {}
    pairs = set()
    for fz in enumerate_factorizations(7):
        slots, table = _run(fz)
        assert len(slots) == len(fz.factors)
        for a, f in zip(slots, fz.factors):
            assert factor_of.setdefault(a, f) is f
        pairs.update(combinations(slots, 2))
        count_perfect_pairs(fz)
    assert sorted(factor_of) == list(range(105))
    assert len(set(map(id, factor_of.values()))) == 105
    assert len(table.known) == 105
    assert len(pairs) == sum(w.bit_count() for w, _ in table.known) == 3150
    for a, b in pairs:
        walked, perfect = table.known[a]
        assert walked >> b & 1
        assert perfect >> b & 1 == classify_pair(factor_of[a], factor_of[b]).perfect
    for a, (walked, perfect) in enumerate(table.known):
        assert not walked >> a & 1
        assert perfect & ~walked == 0


def test_threads_counting_one_run_agree_with_the_per_pair_sum():
    """Four threads count the same cold n = 7 run at once, switching often."""
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
    # The sets hold the tables themselves (compared by identity), so the
    # first run's table cannot be freed and its address reused by the second.
    first = {_run(fz)[1] for fz in enumerate_factorizations(7)}
    second = {_run(fz)[1] for fz in enumerate_factorizations(7)}
    assert len(first) == len(second) == 1
    assert first.isdisjoint(second)
    prefix = list(islice(enumerate_factorizations(9), 3000))
    slots = {a for fz in prefix for a in _run(fz)[0]}
    assert slots == set(range(len(slots)))
    assert len(slots) <= 9 * 7 * 5 * 3


def test_copies_of_oracle_factorizations_count_the_same():
    """Rebuilt, copied and pickled factorizations count like the original.

    Copies are taken before the original is counted, while its run's table
    is still cold, and after.  The attachment takes no part in ==, hash,
    repr or to_dict.
    """
    stream = chain(
        islice(enumerate_factorizations(7), 0, None, 97),
        islice(enumerate_factorizations(9), 0, 3000, 151),
    )
    for fz in stream:
        rebuilt = Factorization(fz.n, fz.factors)
        assert "_run" not in vars(rebuilt)
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
    """Exercise the n = 9 machinery without the full (about 16 h) enumeration.

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
    a pure-Python run of about 16 hours (about 21k counted factorizations
    per second); it is excluded from the default suite (see addopts) and
    exists so the full computation has a launchable entry point:
    ``pytest -m expensive``.
    """
    assert exact_c(9, expensive=True) == 36
