#!/usr/bin/env python3
"""nearfactor benchmark: closed loop, one client, one process, no threads.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Workloads are `family`, `oracle` and `product` (or `all`, which runs the
three in turn).  A run repeats rounds of one library pass (in process) and
one CLI pass (one subprocess at a time) until `--seconds` have passed, checks
every answer, and prints a report followed by one JSON result line.  Times
are measured against a reference loop timed just before each operation (see
`Samples`).  With `--trace 1` it alternates untraced and traced library
passes and reports the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checkout import ROOT, CheckoutError, child_env, load_nearfactor

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 120
PROBE = Path(__file__).with_name("setup_probe.py")

# Best time of `reference()` on the machine that defined this benchmark (a
# 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7).  End-to-end times are given in
# seconds at that speed; see README.md, "Statistic".
REFERENCE_S = 635e-6


def reference() -> float:
    """Time one run of a fixed pure-Python loop that calls no nearfactor code."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        table[i & 511] = i
        acc += table.get((i * 7) & 511, 0) % 13
    return perf_counter() - start


class Samples:
    """Times of named operations, each paired with a reference time before it.

    `samples` holds the raw seconds; `ratios` each time divided by the
    reference time measured just before it.  `seconds` turns the median
    ratios back into seconds at the reference speed.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}
        self.references: list[float] = []

    def add(self, name: str, elapsed: float, ref: float) -> None:
        self.references.append(ref)
        self.samples.setdefault(name, []).append(elapsed)
        self.ratios.setdefault(name, []).append(elapsed / ref)

    @contextlib.contextmanager
    def time(self, name: str):
        """Time one step of a library pass; a span too when traced."""
        ref = reference()
        start = perf_counter()
        with self.tracer.span(name):
            yield
        self.add(name, perf_counter() - start, ref)

    def seconds(self, prefix: str = "") -> float:
        """Sum over operations named `prefix...` of the median ratio, in seconds."""
        return REFERENCE_S * sum(
            statistics.median(v) for k, v in self.ratios.items() if k.startswith(prefix)
        )


def summarize(samples: list[float]) -> dict:
    """Best, median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for q in (99.9, 99, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            tail = {"percentile": q, "value": ordered[math.ceil(q / 100 * n) - 1]}
            break
    return {"best": ordered[0], "median": statistics.median(ordered), "tail": tail, "samples": n}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "trace": args.trace,
        "reference_s": REFERENCE_S,
    }


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    return perf_counter() - start, proc


def setup_time(name: str, seed: int, profile: str, ledger, setups: Samples) -> None:
    """One fresh-interpreter set-up, interpreter start included."""
    ref = reference()
    elapsed, proc = run_child(
        [sys.executable, str(PROBE), "--workload", name, "--seed", str(seed), "--profile", profile]
    )
    setups.add("setup", elapsed, ref)
    ledger.check(f"setup probe exit {proc.returncode}", proc.returncode == 0)


def run_cli(call, golden: dict, ledger, tracer, cli: Samples) -> None:
    """Run one CLI subprocess and check its exit code and stdout."""
    ref = reference()
    with tracer.span(f"cli.{call.kind}"):
        elapsed, proc = run_child([sys.executable, "-m", "nearfactor.cli", *call.args])
    cli.add(" ".join(Path(a).name if os.sep in a else a for a in call.args), elapsed, ref)
    tracer.count("cli.output_bytes", len(proc.stdout))
    ok = proc.returncode == call.expect_exit
    if call.expect_stdout is not None:
        ok = ok and proc.stdout == call.expect_stdout
    else:
        digest = hashlib.sha256(proc.stdout).hexdigest()
        ok = ok and golden.get(call.key) == [proc.returncode, digest]
    if ok and call.check_json:
        data = json.loads(proc.stdout)
        ok = all(data.get(k) == v for k, v in call.check_json.items())
    ledger.check(f"cli `{' '.join(call.args)}` exit {proc.returncode}", ok)


def library_pass(prepared, ledger, steps) -> tuple[float, dict | None]:
    start = perf_counter()
    try:
        out = prepared.workload.library_pass(prepared.inputs, prepared.files, ledger, steps)
    except Exception as exc:  # a failing pass is counted, the run goes on
        ledger.check(f"library pass raised {exc!r}", False)
        return perf_counter() - start, None
    return perf_counter() - start, out


def layer_metrics(table: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced pass, from its folded span table."""

    def total(field: str, *names: str) -> float:
        return sum(table[n][field] for n in names if n in table)

    def own(*names):
        return total("self_s", *names)

    def incl(*names):
        return total("incl_s", *names)

    def calls(*names):
        return int(total("calls", *names))

    numtheory = [n for n in table if n.startswith("numtheory.")]
    classify_s = own("pairing.classify_pair", "pairing.union_walk", "pairing.count_perfect_pairs")
    classified = calls("pairing.classify_pair")
    steps = counters.get("pairing.walk_steps", 0)
    metrics = {
        "pairing.classify.calls": classified,
        "pairing.classify.s": classify_s,
        "pairing.walk_steps": steps,
        "pairing.ns_per_step": classify_s / steps * 1e9 if steps else 0.0,
        "pairing.perfect_ratio": counters.get("pairing.perfect", 0) / classified
        if classified
        else 0.0,
        "pairing.gcd.s": own("pairing.is_perfect_by_gcd"),
        "pairing.closed_form.s": own("pairing.nth_union_edge"),
        "factors.build.calls": calls(
            "factors.build_modular_factor", "factors.build_modular_factor_even"
        ),
        "factors.build.s": own(
            "factors.build_modular_factor",
            "factors.build_modular_factor_even",
            "factors.build_modular_factorization",
        ),
        "factors.edges": counters.get("factors.edges", 0),
        "factors.problems.s": own("factors.factorization_problems", "factors.validate_factor"),
        "factors.parse.s": own("factors.Factorization.from_dict", "factors.Factor.from_dict"),
        "oracle.enumerate.s": own("oracle.enumerate"),
        "oracle.factorizations": calls("oracle.enumerate"),
        "oracle.count.s": incl("oracle.count"),
        "oracle.crosscheck.s": own(
            "oracle.independent_hamiltonicity_check", "oracle.oracle_agrees_with_classification"
        ),
        "oracle.exact_c.s": incl("oracle.exact_c"),
        "product.build.s": own("product.build_product_factor"),
        "product.flatten.s": own(
            "product.flatten_product_factor", "product.ProductFactor.flattened"
        ),
        "product.count.s": incl("product.count_perfect_product_pairs"),
        "product.predicted.s": incl("product.predicted_perfect_product_pairs"),
        "equivalence.report.s": incl("equivalence.build_equivalence_report"),
        "equivalence.factors_compared": calls("equivalence.verify_factor_equality"),
        "numtheory.calls": calls(*numtheory),
        "numtheory.s": own(*numtheory),
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
    }
    for kind in ("startup", "construct", "pairs", "verify", "reject", "equiv", "oracle"):
        metrics[f"cli.{kind}.s"] = incl(f"cli.{kind}")
    return metrics


def tracer_hooks(tracer) -> dict:
    def on_classify(verdict) -> None:
        tracer.count("pairing.perfect", int(verdict.perfect))
        steps = verdict.witness.edges if verdict.witness is not None else verdict.cycle
        tracer.count("pairing.walk_steps", len(steps))

    def on_build(factor) -> None:
        tracer.count("factors.edges", len(factor.edges))

    return {
        "pairing.classify_pair": on_classify,
        "factors.build_modular_factor": on_build,
        "factors.build_modular_factor_even": on_build,
    }


def run_workload(name: str, args: argparse.Namespace, nf) -> dict:
    from tracing import NullTracer, Tracer
    from workloads import Ledger, load_golden, prepare

    ledger = Ledger()
    golden = load_golden()["cli"]
    prepared = prepare(name, args.seed, args.profile)
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    plain, traced, cli, setups = Samples(null), Samples(tracer), Samples(null), Samples(null)
    passes, layers = [], []
    counted = None  # the counts of the last library pass that completed
    try:
        start = perf_counter()
        deadline = start + args.seconds
        while True:
            # Set-ups are spread over the run, so that their median covers it.
            due = len(setups.samples.get("setup", ())) * args.seconds / SETUP_REPEATS
            if not args.trace and perf_counter() - start >= due:
                if len(setups.samples.get("setup", ())) < SETUP_REPEATS:
                    setup_time(name, args.seed, args.profile, ledger, setups)
            wall, out = library_pass(prepared, ledger, plain)
            passes.append(wall)
            counted = out or counted
            if args.trace:
                tracer.install(nf, tracer_hooks(tracer))
                try:
                    library_pass(prepared, ledger, traced)
                finally:
                    tracer.uninstall()
                with tracer.span("cli.startup"):
                    run_child([sys.executable, "-c", "import nearfactor.cli"])
            for call in prepared.calls:
                run_cli(call, golden, ledger, tracer, cli)
            if args.trace:
                pass_id = tracer.pass_id
                table, counters = tracer.fold()
                layers.append((layer_metrics(table, counters), {"pass": pass_id, "names": table}))
            if perf_counter() >= deadline:
                break
        while not args.trace and len(setups.samples.get("setup", ())) < SETUP_REPEATS:
            setup_time(name, args.seed, args.profile, ledger, setups)
    finally:
        prepared.cleanup()

    timings = {
        "library pass": summarize(passes),
        "reference": summarize(plain.references + cli.references + setups.references),
    }
    for kind, group in (("step", plain), ("cli", cli), ("", setups)):
        for key, values in group.samples.items():
            timings[f"{kind} {key}".strip()] = summarize(values)
    report = {
        "workload": name,
        "environment": environment(args),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.error_rate,
        "failures": ledger.failures,
        "timings": timings,
    }
    if counted is not None:
        wall = plain.seconds()
        report["end_to_end"] = {
            "setup_s": (setups.seconds() if setups.ratios else None, "s"),
            "wall_s": (wall, "s"),
            "pairs_per_s": (counted["pairs"] / wall, "1/s"),
            "cli_s": (cli.seconds(), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "error_rate": (ledger.error_rate, "ratio"),
        }
        if "factorizations" in counted:
            rate = counted["factorizations"] / plain.seconds("prefix ")
            report["end_to_end"]["factorizations_per_s"] = (rate, "1/s")
    if layers:
        per_layer = {
            key: statistics.median_low(m[key] for m, _ in layers) for key in layers[0][0]
        }
        per_layer["trace.overhead_s"] = traced.seconds() - plain.seconds()
        report["per_layer"] = per_layer
        report["spans"] = layers[-1][1]
    return report


def metric_lines(report: dict, declared: list[dict], trace: int) -> dict:
    """The declared metrics, by name, with value and unit, from one report."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if trace:
            value = report.get("per_layer", {}).get(name)
        else:
            value = report.get("end_to_end", {}).get(name, (None,))[0]
        if value is None:
            raise KeyError(f"metric {name} missing for workload {report['workload']}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("family", "oracle", "product", "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    try:
        nf = load_nearfactor()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (CheckoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = ("family", "oracle", "product") if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args, nf) for name in names]
    metrics = {}
    for report in reports:
        print(json.dumps(report, indent=1, sort_keys=True))
        for key, value in metric_lines(report, declared, args.trace).items():
            metrics[key if len(reports) == 1 else f"{report['workload']}.{key}"] = value
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
