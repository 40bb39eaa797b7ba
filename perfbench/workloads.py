"""The benchmark's workloads: seeded inputs, a library pass, a CLI pass, checks.

Each workload turns a seed into plain inputs (`make_inputs`), writes the
files its CLI pass reads (`files`), runs one pass of library calls
(`library_pass`, timing each step with `steps.time(name)`, see run.Steps)
and lists its CLI subprocess calls (`cli_calls`).  Every
answer is checked against exact integers from formulas computed here,
independently of the library, and every check is one attempted operation in
the `Ledger`.

`nearfactor` must already be importable (see checkout.load_nearfactor).
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import nearfactor as nf

from checkout import WORK

GOLDEN = Path(__file__).with_name("golden.json")

# Sizes per profile.  "full" is the benchmark; "tiny" is the harness
# self-test.  A pass is cut into timed steps of about 30 ms or less, so that
# each step runs at the machine speed the reference loop measured just
# before it (see run.Samples); that bounds the sizes.  Runs with different
# seeds do the same amount of work: the cost of a modular family depends on
# its order alone, so the family orders are fixed and the seed varies the
# sampled pairs, the vertex labels of the verified file, the corrupted edge
# and the even order; both splits of 63 give isomorphic product families,
# and (5, 15) and (15, 5) are the same product up to swapping coordinates.
PROFILES = {
    "full": {
        "prime": 61,
        "composite": 63,
        "evens": (16, 18),
        "pair_samples": 12,
        "exact_n": 5,
        "stream_n": 7,
        "stream_chunk": 156,
        "prefix_n": 9,
        "prefix_len": 500,
        "prefix_chunk": 50,
        "crosscheck": 8,
        "splits": ((7, 9), (9, 7)),
        "noncoprime": ((5, 15), (15, 5)),
        "product_samples": 12,
    },
    "tiny": {
        "prime": 13,
        "composite": 15,
        "evens": (6, 8),
        "pair_samples": 4,
        "exact_n": 5,
        "stream_n": 5,
        "stream_chunk": 3,
        "prefix_n": 5,
        "prefix_len": 6,
        "prefix_chunk": 3,
        "crosscheck": 3,
        "splits": ((3, 5), (5, 3)),
        "noncoprime": ((3, 3),),
        "product_samples": 4,
    },
}

# Exhaustive-oracle facts: factorizations of K_n and the exact maximum.
ORACLE_FACTS = {3: (1, 3), 5: (6, 10), 7: (6240, 21)}

OVERSIZED = b'{"n": 2000001, "factors": []}'


def load_golden() -> dict:
    """Recorded CLI results and oracle prefix counts; see golden.py."""
    if not GOLDEN.is_file():
        return {"cli": {}, "library": {}}
    return json.loads(GOLDEN.read_text())


def prefix_key(n: int, length: int) -> str:
    return f"prefix n={n} len={length}"


def phi(n: int) -> int:
    """Euler's totient by direct count; independent of nearfactor.numtheory."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def to_json_bytes(payload: dict) -> bytes:
    """The CLI's JSON encoding: sorted keys, compact, one trailing newline."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Ledger:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class CliCall:
    """One CLI subprocess: its arguments and what it must return.

    `kind` names the per-layer metric the call's time goes to.  A call is
    checked against the recorded golden exit code and stdout hash under
    `key`, or, when `expect_stdout` is set, against those exact bytes.
    """

    kind: str
    args: list[str]
    key: str
    expect_exit: int
    expect_stdout: bytes | None = None
    check_json: dict = field(default_factory=dict)


class Family:
    """Modular families of odd order: the O(n^3) pair-classification cost."""

    name = "family"

    @staticmethod
    def make_inputs(seed: int, sizes: dict) -> dict:
        rng = random.Random(f"family:{seed}")
        p, c = sizes["prime"], sizes["composite"]
        samples = {}
        for n in (p, c):
            chosen: set[tuple[int, int]] = set()
            while len(chosen) < sizes["pair_samples"]:
                k, l = rng.sample(range(n), 2)
                chosen.add((k, l))
            samples[n] = sorted(chosen)
        return {
            "orders": [p, c],
            "even": rng.choice(sizes["evens"]),
            "samples": samples,
            "labels": rng.sample(range(p), p),
            "corrupt": [rng.randrange(p), rng.randrange((p - 1) // 2)],
            "phi": {n: phi(n) for n in (p, c)},
        }

    @staticmethod
    def relabelled(inputs: dict) -> dict:
        """The prime-order family with vertex v renamed labels[v], as a dict."""
        p, labels = inputs["orders"][0], inputs["labels"]
        data = nf.build_modular_factorization(p).to_dict()
        for f in data["factors"]:
            f["edges"] = sorted(sorted([labels[u], labels[v]]) for u, v in f["edges"])
            f["isolated"] = labels[f["isolated"]]
        return data

    @classmethod
    def corrupted(cls, inputs: dict) -> dict:
        """The relabelled family with one edge moved onto an isolated vertex."""
        data = cls.relabelled(inputs)
        factor, edge = inputs["corrupt"]
        f = data["factors"][factor]
        u, _ = f["edges"][edge]
        f["edges"][edge] = sorted([u, f["isolated"]])
        return data

    @classmethod
    def files(cls, inputs: dict) -> dict[str, bytes]:
        p = inputs["orders"][0]
        return {
            f"family-{p}.json": to_json_bytes(cls.relabelled(inputs)),
            f"corrupt-{p}.json": to_json_bytes(cls.corrupted(inputs)),
            "oversized.json": OVERSIZED,
        }

    @staticmethod
    def library_pass(inputs: dict, files: dict, ledger: Ledger, steps) -> dict:
        pairs = 0
        for n in inputs["orders"]:
            expected = n * inputs["phi"][n] // 2
            with steps.time(f"build {n}"):
                fz = nf.build_modular_factorization(n)
            with steps.time(f"problems {n}"):
                problems = nf.factorization_problems(fz)
            ledger.check(f"factorization_problems({n}) empty", problems == [])
            with steps.time(f"count {n}"):
                count = nf.count_perfect_pairs(fz)
            ledger.check(f"count_perfect_pairs({n}) == n*phi(n)/2", count == expected)
            pairs += comb(n, 2)
            with steps.time(f"gcd sweep {n}"):
                by_gcd = sum(
                    1 for k, l in combinations(range(n), 2) if nf.is_perfect_by_gcd(k, l, n)
                )
            ledger.check(f"gcd sweep({n}) == n*phi(n)/2", by_gcd == expected)
            with steps.time(f"sampled pairs {n}"):
                for k, l in inputs["samples"][n]:
                    f, g = fz.factors[k], fz.factors[l]
                    verdict = nf.classify_pair(f, g)
                    closed = [nf.nth_union_edge(k, l, n, i) for i in range(1, n)]
                    walked = verdict.witness.edges
                    closed_perfect = len({closed[0][0], *(b for _, b in closed)}) == n
                    ledger.check(
                        f"deciders agree on ({k}, {l}) of {n}",
                        verdict.perfect
                        == nf.is_perfect_by_gcd(k, l, n)
                        == closed_perfect
                        == nf.independent_hamiltonicity_check(f, g)
                        == (gcd(k - l, n) == 1),
                    )
                    ledger.check(
                        f"closed form matches walk on ({k}, {l}) of {n}",
                        list(walked) == closed[: len(walked)],
                    )
            pairs += len(inputs["samples"][n])
        p = inputs["orders"][0]
        data = json.loads(files[f"family-{p}.json"])
        with steps.time("parse"):
            parsed = nf.Factorization.from_dict(data)
        ledger.check(f"relabelled family of order {p} round-trips", parsed.to_dict() == data)
        e = inputs["even"]
        with steps.time("even"):
            evens = [nf.build_modular_factor_even(e, k) for k in range(e)]
            agree = all(
                nf.classify_pair(f, g).perfect == nf.independent_hamiltonicity_check(f, g)
                for f, g in combinations(evens, 2)
            )
        pairs += comb(e, 2)
        ledger.check(f"even order {e}: walk and census agree", agree)
        return {"pairs": pairs}

    @staticmethod
    def cli_calls(inputs: dict, paths: dict) -> list[CliCall]:
        p = inputs["orders"][0]
        family, corrupt = f"family-{p}.json", f"corrupt-{p}.json"
        corrupted = nf.Factorization.from_dict(Family.corrupted(inputs))
        expect_corrupt = to_json_bytes(
            {
                "n": p,
                "factor_count": p,
                "valid": False,
                "problems": nf.factorization_problems(corrupted),
                "perfect_pairs": None,
            }
        )
        return [
            CliCall("construct", ["construct", "--n", str(p)], f"construct --n {p}", 0),
            CliCall(
                "pairs",
                ["pairs", "--n", str(p)],
                f"pairs --n {p}",
                0,
                check_json={"perfect_pairs": p * inputs["phi"][p] // 2, "agree": True},
            ),
            CliCall("verify", ["verify", "--input", paths[family]], f"verify --input {family}", 0),
            CliCall("reject", ["verify", "--input", paths[corrupt]], "", 2, expect_corrupt),
            CliCall(
                "reject",
                ["verify", "--input", paths["oversized.json"]],
                "verify --input oversized.json",
                2,
            ),
        ]

    @classmethod
    def golden_inputs(cls, sizes: dict) -> list[dict]:
        return [cls.make_inputs(0, sizes)]


class Oracle:
    """Exhaustive enumeration: Factor building and tiny-pair classification."""

    name = "oracle"

    @staticmethod
    def make_inputs(seed: int, sizes: dict) -> dict:
        rng = random.Random(f"oracle:{seed}")
        m, length = sizes["prefix_n"], sizes["prefix_len"]
        return {
            "exact_n": sizes["exact_n"],
            "stream": [
                sizes["stream_n"], ORACLE_FACTS[sizes["stream_n"]][0], sizes["stream_chunk"]
            ],
            "prefix": [m, length, sizes["prefix_chunk"]],
            "prefix_expect": load_golden()["library"].get(prefix_key(m, length)),
            "crosscheck": sorted(rng.sample(range(length), sizes["crosscheck"])),
            "phi": {n: phi(n) for n in (sizes["exact_n"], m)},
        }

    @staticmethod
    def files(inputs: dict) -> dict[str, bytes]:
        return {}

    @staticmethod
    def _count_stream(label: str, n: int, length: int, chunk: int, steps, keep=()):
        """Enumerate and count the first `length` factorizations of K_n.

        Each chunk of the stream is one timed step.  Returns the best and
        the total perfect-pair count, whether the stream ended right after
        `length`, and the factorizations at the positions in `keep`.
        """
        span = steps.tracer.span
        best = total = 0
        kept = []
        stream = nf.enumerate_factorizations(n)
        for first in range(0, length, chunk):
            with steps.time(f"{label} {first}"):
                for i in range(first, min(first + chunk, length)):
                    with span("oracle.enumerate"):
                        fz = next(stream)
                    with span("oracle.count"):
                        c = nf.count_perfect_pairs(fz)
                    best = max(best, c)
                    total += c
                    if i in keep:
                        kept.append(fz)
        ended = next(stream, None) is None
        stream.close()
        return best, total, ended, kept

    @classmethod
    def library_pass(cls, inputs: dict, files: dict, ledger: Ledger, steps) -> dict:
        n = inputs["exact_n"]
        with steps.time("exact_c"):
            best = nf.exact_c(n)
            totient = nf.totient(n)
        ledger.check(f"exact_c({n})", best == ORACLE_FACTS[n][1])
        ledger.check(f"totient({n})", totient == inputs["phi"][n])
        s, seen, chunk = inputs["stream"]
        best, _, ended, _ = cls._count_stream("stream", s, seen, chunk, steps)
        ledger.check(
            f"n={s}: {seen} factorizations, best {ORACLE_FACTS[s][1]}",
            ended and best == ORACLE_FACTS[s][1],
        )
        m, length, chunk = inputs["prefix"]
        best, total, _, sampled = cls._count_stream(
            "prefix", m, length, chunk, steps, set(inputs["crosscheck"])
        )
        ledger.check(
            f"best and total perfect pairs over the n={m} prefix",
            [best, total] == inputs["prefix_expect"],
        )
        with steps.time("crosscheck"):
            verdicts = [
                (nf.factorization_problems(fz) == [], nf.oracle_agrees_with_classification(fz))
                for fz in sampled
            ]
        for valid, agree in verdicts:
            ledger.check(f"sampled n={m} factorization valid", valid)
            ledger.check(f"walk and census agree on a sampled n={m} factorization", agree)
        pairs = (
            ORACLE_FACTS[n][0] * comb(n, 2)
            + seen * comb(s, 2)
            + (length + len(sampled)) * comb(m, 2)
        )
        return {"pairs": pairs, "factorizations": length}

    @staticmethod
    def cli_calls(inputs: dict, paths: dict) -> list[CliCall]:
        n = inputs["exact_n"]
        seen, best = ORACLE_FACTS[n]
        facts = {
            "exact_c": best,
            "factorizations_seen": seen,
            "lower_bound": n * inputs["phi"][n] // 2,
        }
        return [
            CliCall("oracle", ["oracle", "--n", str(n)], f"oracle --n {n}", 0, check_json=facts),
            CliCall("reject", ["oracle", "--n", "9"], "oracle --n 9", 3),
        ]

    @classmethod
    def golden_inputs(cls, sizes: dict) -> list[dict]:
        return [cls.make_inputs(0, sizes)]


class Product:
    """Product families, flattening, gcd prediction and the CRT equivalence."""

    name = "product"

    @staticmethod
    def make_inputs(seed: int, sizes: dict) -> dict:
        rng = random.Random(f"product:{seed}")
        s, t = rng.choice(sizes["splits"])
        a, b = rng.choice(sizes["noncoprime"])
        k = sizes["product_samples"]

        def pair_sample(s: int, t: int) -> list:
            indices = [(i, j) for i in range(s) for j in range(t)]
            return [rng.sample(indices, 2) for _ in range(k)]

        return {
            "coprime": [s, t],
            "noncoprime": [a, b],
            "crt": [[rng.randrange(s), rng.randrange(t)] for _ in range(k)],
            "vertices": [rng.randrange(s * t) for _ in range(k)],
            "pairs": {"coprime": pair_sample(s, t), "noncoprime": pair_sample(a, b)},
            "phi": {n: phi(n) for n in (s, t, s * t, a, b)},
        }

    @staticmethod
    def files(inputs: dict) -> dict[str, bytes]:
        return {}

    @staticmethod
    def library_pass(inputs: dict, files: dict, ledger: Ledger, steps) -> dict:
        ph = inputs["phi"]
        s, t = inputs["coprime"]
        a, b = inputs["noncoprime"]
        doubling = 2 * (s * ph[s] // 2) * (t * ph[t] // 2)
        with steps.time("count coprime"):
            count = nf.count_perfect_product_pairs(s, t)
        ledger.check(f"count_perfect_product_pairs({s}, {t}) doubling", count == doubling)
        with steps.time("predicted coprime"):
            predicted = nf.predicted_perfect_product_pairs(s, t)
        ledger.check(f"predicted_perfect_product_pairs({s}, {t})", predicted == doubling)
        with steps.time("equivalence"):
            report = nf.build_equivalence_report(s, t)
        ledger.check(
            f"equivalence report ({s}, {t})",
            report.all_edge_sets_equal
            and report.bounds_equal
            and report.direct_bound == s * t * ph[s * t] // 2 == doubling,
        )
        with steps.time("count non-coprime"):
            count = nf.count_perfect_product_pairs(a, b)
        ledger.check(f"count_perfect_product_pairs({a}, {b}) == 0 (non-coprime)", count == 0)
        with steps.time("predicted non-coprime"):
            predicted = nf.predicted_perfect_product_pairs(a, b)
        ledger.check(
            f"predicted_perfect_product_pairs({a}, {b})", predicted == a * ph[a] * b * ph[b] // 2
        )
        with steps.time("crt"):
            combined = [nf.crt_combine(k, l, s, t).value for k, l in inputs["crt"]]
            mapped = [nf.crt_vertex_map(v, s, t) for v in inputs["vertices"]]
        ledger.check(
            f"crt maps ({s}, {t})",
            all(p % s == k and p % t == l for p, (k, l) in zip(combined, inputs["crt"]))
            and mapped == [(v % s, v % t) for v in inputs["vertices"]],
        )
        for label, (m, n) in (("coprime", (s, t)), ("noncoprime", (a, b))):
            with steps.time(f"sampled pairs {label}"):
                for (k, l), (k2, l2) in inputs["pairs"][label]:
                    f = nf.build_product_factor(m, n, k, l).flattened()
                    g = nf.build_product_factor(m, n, k2, l2).flattened()
                    walk = nf.classify_pair(f, g).perfect
                    agree = walk == nf.independent_hamiltonicity_check(f, g)
                    if label == "coprime":
                        agree = agree and walk == nf.is_perfect_product_pair(m, n, (k, l), (k2, l2))
                    ledger.check(f"deciders agree on a {label} product pair", agree)
        pairs = comb(s * t, 2) + comb(a * b, 2) + sum(len(v) for v in inputs["pairs"].values())
        return {"pairs": pairs}

    @staticmethod
    def cli_calls(inputs: dict, paths: dict) -> list[CliCall]:
        s, t = inputs["coprime"]
        a, b = inputs["noncoprime"]
        return [
            CliCall(
                "equiv",
                ["equiv", "--s", str(s), "--t", str(t)],
                f"equiv --s {s} --t {t}",
                0,
                check_json={"all_edge_sets_equal": True, "bounds_equal": True},
            ),
            CliCall(
                "reject", ["equiv", "--s", str(a), "--t", str(b)], f"equiv --s {a} --t {b}", 2
            ),
        ]

    @staticmethod
    def golden_inputs(sizes: dict) -> list[dict]:
        return [
            {"coprime": list(st), "noncoprime": list(ab)}
            for st in sizes["splits"]
            for ab in sizes["noncoprime"]
        ]


WORKLOADS = {w.name: w for w in (Family, Oracle, Product)}


@dataclass
class Prepared:
    """A workload's inputs, its files written under a fresh work directory."""

    workload: type
    inputs: dict
    files: dict[str, bytes]
    workdir: Path
    calls: list[CliCall]

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    @classmethod
    def write(cls, workload: type, inputs: dict) -> "Prepared":
        """Write the workload's files for these inputs under a fresh directory."""
        files = workload.files(inputs)
        WORK.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        paths = {}
        for fname, data in files.items():
            path = workdir / fname
            path.write_bytes(data)
            paths[fname] = str(path)
        return cls(workload, inputs, files, workdir, workload.cli_calls(inputs, paths))


def prepare(name: str, seed: int, profile: str) -> Prepared:
    """Everything a run does before its first timed call."""
    workload = WORKLOADS[name]
    return Prepared.write(workload, workload.make_inputs(seed, PROFILES[profile]))
