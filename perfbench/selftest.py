"""Fast self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload with the "tiny" profile (n <= 15, the oracle at n = 5,
product (3, 5)) and checks that:
  - every declared end-to-end and per-layer metric is emitted with its unit;
  - a corrupted library answer raises error_rate above 0;
  - the traced run records spans for every layer of nearfactor.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from checkout import ROOT, load_nearfactor

LAYERS = ("numtheory", "factors", "pairing", "product", "equivalence", "oracle", "cli")
WORKLOADS = ("family", "oracle", "product")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_tiny(trace: int) -> tuple[list[dict], dict]:
    """Run all workloads at tiny size; return the reports and the result line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--profile", "tiny", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    body, _, last = proc.stdout.strip().rpartition("\n")
    decoder = json.JSONDecoder()
    reports, i = [], 0
    while i < len(body):
        report, i = decoder.raw_decode(body, i)
        reports.append(report)
        while i < len(body) and body[i].isspace():
            i += 1
    return reports, json.loads(last)


def check_metrics_emitted(spec: dict) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        reports, result = run_tiny(trace)
        expect(result["correct"] and result["failed"] == 0, f"tiny run failed: {result}")
        expect([r["workload"] for r in reports] == list(WORKLOADS), "not every workload ran")
        for workload in WORKLOADS:
            for metric in declared:
                got = result["metrics"].get(f"{workload}.{metric['name']}")
                expect(
                    got is not None and got["unit"] == metric["unit"]
                    and isinstance(got["value"], (int, float)),
                    f"{workload}: metric {metric['name']} missing or without unit",
                )
        if trace:
            layers = {name.split(".")[0] for r in reports for name in r["spans"]["names"]}
            expect(set(LAYERS) <= layers, f"no spans for layers {set(LAYERS) - layers}")
            for r in reports:
                expect("trace.overhead_s" in r["per_layer"], "trace.overhead_s missing")
        else:
            for r in reports:
                expect(r["error_rate"] == 0, f"{r['workload']}: error_rate {r['error_rate']}")


def check_corruption_counted(nf) -> None:
    import run

    args = argparse.Namespace(seed=1, seconds=0, trace=0, profile="tiny")
    honest = nf.count_perfect_pairs
    nf.count_perfect_pairs = lambda fz: honest(fz) + 1
    try:
        report = run.run_workload("family", args, nf)
    finally:
        nf.count_perfect_pairs = honest
    expect(report["error_rate"] > 0, "a wrong count_perfect_pairs answer went unnoticed")


def main() -> int:
    nf = load_nearfactor()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics_emitted(spec)
    check_corruption_counted(nf)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
